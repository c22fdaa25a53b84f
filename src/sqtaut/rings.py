"""Exact scalar and sparse graded-polynomial arithmetic.

Scalars are `fractions.Fraction` in every value, always stored reduced, so
every equality test in the package is exact.  The one product loop,
`int_mul`, runs on int tables (`GradedPoly` over a common denominator).

Polynomials are sparse tables mapping kappa/lambda monomials at a fixed
genus to nonzero scalars.  A monomial is a tuple of ((kind, index), exp)
pairs with exp >= 1, sorted by (kind, index), where kind 0 is kappa_index
and kind 1 is lambda_index; the empty tuple is 1.  The degree of a monomial
is sum(index * exp).  Which indices are valid is checked where monomials
are built from outside input (`kappa_lambda`), not here.  Truncation is a
property of the value (an optional degree cap carried by the polynomial),
never global state; the explicit-cap entry point `poly_mul` overrides it
per operation.

A `GradedPoly` is built one of two ways, both through `GradedPoly._set`.
`GradedPoly(genus, coeffs, cap)` validates: it copies the table, reads
every value as a Fraction and drops zeros and terms above the cap; every
table that comes from outside (readers, constructors, the ring operations
of `SparseSum`) goes through it.  `GradedPoly._trusted(genus, table, cap)`,
the `Frozen` constructor that validates nothing, keeps a table as it is,
for producers that build it canonical: `poly_mul`, `degree_part`, lambda
elimination and the relation generators.

Terms print in graded order: by degree, then factor by factor by
(kind, index, -exp), a shorter monomial first when it is a prefix.  The
sort key is the flat list [degree, kind, index, -exp, kind, index, -exp,
...]: every factor fills exactly three places, so comparing two keys
place by place compares the same fields in the same order as comparing
(degree, ((gen, -exp), ...)) would, and two monomials never share a key.

`SparseSum` holds the ring operations that `GradedPoly`, `PointedClass`
and `CurveClass` share: addition, negation, subtraction, powers, equality,
truncation and the dispatch of `*`, with `accumulate` as the one merge
step of every sum.

One-variable series are plain lists of Fractions (or ints) indexed by
degree; `series_mul` and `truncated_inverse` work on them.

Every value is immutable after construction (`Frozen`) and every
operation is a pure function, so concurrent use needs no coordination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf, lcm
from types import MappingProxyType
from typing import Iterator

Rational = Fraction

Monomial = tuple

GENERATOR_NAMES = ("kappa", "lambda")


class InputError(ValueError):
    """Operands are structurally incompatible or parameters are invalid."""


class DomainError(ValueError):
    """A value lies outside an operation's mathematical domain."""


class CertificateError(Exception):
    """A pairing matrix failed its structural rank certificate."""


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 1:
        m1, m2 = m2, m1
    if len(m2) == 1:
        # one factor: a scan finds its generator or its place
        factor = m2[0]
        gen = factor[0]
        for i, (g, e) in enumerate(m1):
            if g >= gen:
                if g == gen:
                    return (*m1[:i], (gen, e + factor[1]), *m1[i + 1:])
                return (*m1[:i], factor, *m1[i:])
        return m1 + m2
    acc = dict(m1)
    for gen, exp in m2:
        acc[gen] = acc.get(gen, 0) + exp
    return tuple(sorted(acc.items()))


def mono_degree(m: Monomial) -> int:
    deg = 0
    for (_, index), exp in m:
        deg += index * exp
    return deg


def _mono_sort_key(m: Monomial) -> list:
    # the flat graded key of the module docstring: higher leading exponents
    # print first within a degree
    key = [0]
    deg = 0
    for (kind, index), exp in m:
        deg += index * exp
        key += kind, index, -exp
    key[0] = deg
    return key


def combine_caps(a: int | None, b: int | None) -> int | None:
    """The degree cap of a value built from operands capped at a and b."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def accumulate(acc: dict, key, value) -> None:
    """Add value to acc[key], dropping the key when the sum is zero."""
    s = acc.get(key)
    s = value if s is None else s + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


# Sets a field of a Frozen value; only the `_set` methods below call this.
setfield = object.__setattr__


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields, in order, in `_fields`, and nowhere else.
    `Frozen(*values, **named)` binds them as a call would, positional
    first, then by name, and raises TypeError naming the fields when a
    count or a name does not fit.  `cls._trusted(*values)` builds a value
    on the fields in order and validates nothing, for producers that
    guarantee them.  Both set the fields through `_set(*values)`, once: a
    subclass with checks or defaults writes its own `__init__` and ends it
    in `self._set(...)`, and one that stores a field in another form
    overrides `_set` (`GradedPoly`, whose table is read-only, and
    `BlockMonomial`, which stores its derived `degree` as well).  After
    that, assigning or deleting an attribute raises AttributeError.
    Values of the same class compare equal and hash alike when their
    fields do, and print as `Name(field=value, ...)`.
    """

    _fields: tuple = ()

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            # bound as a call binds them: positional first, then by name
            bound = dict(zip(fields, values))
            if (len(values) > len(fields) or not named.keys() <= set(fields) - bound.keys()
                    or len(bound) + len(named) != len(fields)):
                raise TypeError(f"{type(self).__qualname__} takes the fields "
                                f"({', '.join(fields)}); got {len(values)} by position "
                                f"and ({', '.join(named)}) by name")
            bound.update(named)
            values = [bound[name] for name in fields]
        self._set(*values)

    @classmethod
    def _trusted(cls, *values):
        """A value on `values`, the fields in order, which the caller
        guarantees valid: no constructor check runs."""
        value = object.__new__(cls)
        value._set(*values)
        return value

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            setfield(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class SparseSum(Frozen):
    """Ring operations shared by the sparse class types.

    A value is a read-only table from basis keys to nonzero coefficients in
    a space that operands must share, with an optional degree `cap`: when
    set, the value is trusted only up to that total degree and terms beyond
    it are dropped.  `==` ignores the cap, which is bookkeeping, and values
    are unhashable.

    A subclass is built as `cls(*space, table, cap=None)`, caps a copy of
    the table in its `__init__` and provides `_space`, `_table`,
    `_scalar(q)` (the uncapped constant q in the same space), `scale` by
    the `_SCALARS` types and `_mul`, its product with a value of its type.
    """

    cap: int | None

    @property
    def is_zero(self) -> bool:
        return not self._table

    def __bool__(self) -> bool:
        return bool(self._table)

    def _new(self, table, cap):
        return type(self)(*self._space, table, cap)

    def truncate(self, cap: int | None):
        return self._new(self._table, cap)

    def _require_compatible(self, other) -> None:
        if self._space != other._space:
            raise InputError(f"mismatched spaces {self._space} and {other._space}")

    def _coerce(self, other):
        """other as a value of this type, or None if it is not one."""
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        return other if isinstance(other, type(self)) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._require_compatible(other)
        acc = dict(self._table)
        for key, value in other._table.items():
            accumulate(acc, key, value)
        return self._new(acc, combine_caps(self.cap, other.cap))

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self._table.items()}, self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        """self ** n by repeated squaring."""
        if n < 0:
            raise InputError("negative power")
        result, base = self._scalar(1).truncate(self.cap), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._space == other._space and self._table == other._table

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._mul(other)

    def __rmul__(self, other):
        if isinstance(other, self._SCALARS):
            return self.scale(other)
        return NotImplemented


class GradedPoly(SparseSum):
    """Sparse kappa/lambda polynomial with Rational coefficients at a genus.

    `coeffs` maps canonical monomials to nonzero Fractions; a monomial's
    degree for the cap is its total degree.  The constructor validates its
    table and `_trusted` does not (module docstring).
    """

    _fields = ("genus", "coeffs", "cap")

    def __init__(self, genus: int, coeffs, cap: int | None = None) -> None:
        clean: dict = {}
        for m, c in coeffs.items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c == 0:
                continue
            if cap is not None and mono_degree(m) > cap:
                continue
            clean[m] = c
        self._set(genus, clean, cap)

    def _set(self, genus: int, table: dict, cap: int | None = None) -> None:
        setfield(self, "genus", genus)
        setfield(self, "coeffs", MappingProxyType(table))
        setfield(self, "cap", cap)

    _space = property(lambda self: (self.genus,))
    _table = property(lambda self: self.coeffs)
    _SCALARS = (int, Fraction)

    def _scalar(self, q) -> "GradedPoly":
        return GradedPoly(self.genus, {(): q})

    # -- queries ---------------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get((), Fraction(0))

    @property
    def degree(self) -> int:
        """Largest total degree present; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(mono_degree(m) for m in self.coeffs)

    def terms(self) -> list:
        """Terms in canonical (graded, then exponent-vector) order."""
        return sorted(self.coeffs.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def coefficient(self, m: Monomial) -> Fraction:
        return self.coeffs.get(m, Fraction(0))

    def degree_part(self, k: int) -> "GradedPoly":
        """The homogeneous component of total degree k."""
        part = {m: c for m, c in self.coeffs.items() if mono_degree(m) == k}
        return GradedPoly._trusted(self.genus, part)

    def homogeneous_degrees(self) -> list:
        return sorted({mono_degree(m) for m in self.coeffs})

    # -- arithmetic ------------------------------------------------------

    def scale(self, factor) -> "GradedPoly":
        q = Fraction(factor)
        return self._new({m: c * q for m, c in self.coeffs.items()}, self.cap)

    def _mul(self, other: "GradedPoly") -> "GradedPoly":
        return poly_mul(self, other, combine_caps(self.cap, other.cap))

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"GradedPoly({format_poly(self)})"


def _integral(coeffs) -> tuple:
    """(D, D * coeffs) with D the least common denominator."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}


def int_mul(a, b, cap: int | None) -> dict:
    """Product of two monomial -> int tables, as a table of nonzero ints,
    without terms above total degree cap (None keeps all).  A coefficient
    that is not an int raises DomainError; it is never rounded."""
    if not all(isinstance(c, int) for c in (*a.values(), *b.values())):
        raise DomainError("int_mul takes int coefficients only")
    acc: dict = {}
    # b by degree, so that the rest of b is past the cap once one term is
    bterms = sorted(((mono_degree(m), m, c) for m, c in b.items()),
                    key=lambda t: t[0])
    for m1, c1 in a.items():
        room = (inf if cap is None else cap) - mono_degree(m1)
        for d2, m2, c2 in bterms:
            if d2 > room:
                break
            m = mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c}


def poly_mul(a: GradedPoly, b: GradedPoly, maxdeg: int | None) -> GradedPoly:
    """Product of a and b without terms above degree maxdeg (None keeps all)."""
    if not isinstance(a, GradedPoly) or not isinstance(b, GradedPoly):
        raise InputError("poly_mul expects two GradedPoly operands")
    a._require_compatible(b)
    # over a common denominator, so that the pair loop runs on ints
    (da, ia), (db, ib) = _integral(a.coeffs), _integral(b.coeffs)
    acc = {m: Fraction(c, da * db) for m, c in int_mul(ia, ib, maxdeg).items()}
    return GradedPoly._trusted(a.genus, acc, maxdeg)


# -- decimal text ----------------------------------------------------------
# CPython converts int <-> str only up to a digit limit (4,300 by default,
# 640 at least); these split on powers of ten to stay under any limit.

def int_text(n: int) -> str:
    """The decimal text of an int of any size."""
    if n.bit_length() <= 1_600:  # under 482 digits
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    k = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10 ** k)
    return int_text(high) + int_text(low).zfill(k)


def int_from_text(digits: str) -> int:
    """The int of a string of decimal digits of any length."""
    if len(digits) <= 480:
        return int(digits)
    k = len(digits) // 2
    return int_from_text(digits[:-k]) * 10 ** k + int_from_text(digits[-k:])


def rational_text(q) -> str:
    """str(q) for an int or Fraction of any size."""
    num = int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_text(q.denominator)}"


def _format_terms(terms) -> str:
    """Join (factor texts, nonzero coefficient) pairs as '1 - 3/4*x*y^2'."""
    pieces = []
    for factors, c in terms:
        mag = abs(c)
        body = "*".join(factors)
        if not factors:
            text = rational_text(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{rational_text(mag)}*{body}"
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(pieces) if pieces else "0"


def _power_text(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def _factor_texts(m: Monomial) -> list:
    """The factors of a kappa/lambda monomial as text, e.g. ['kappa_1^2']."""
    return [_power_text(f"{GENERATOR_NAMES[kind]}_{index}", exp)
            for (kind, index), exp in m]


def format_poly(p: GradedPoly) -> str:
    """Deterministic human-readable form, e.g. '1 - 3/4*kappa_1*lambda_2^2'."""
    return _format_terms((_factor_texts(m), c) for m, c in p.terms())


# -- one-variable series ---------------------------------------------------

def series_mul(a: list, b: list, maxdeg: int) -> list:
    """Product of two coefficient lists up to degree maxdeg; ints stay ints."""
    size = max(0, min(len(a) + len(b) - 1, maxdeg + 1))
    out = [sum(0 * x for x in (*a[:1], *b[:1]))] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i]):
                out[i + j] += x * y
    return out


def truncated_inverse(p: list, maxdeg: int) -> list:
    """Coefficients 0..maxdeg of the multiplicative inverse of the series p.

    Requires constant term exactly 1.  The inverse q solves p * q = 1 degree
    by degree: q_0 = 1 and q_n = -sum_{j=1}^{n} p_j q_{n-j}.
    """
    if maxdeg < 0:
        raise InputError("negative truncation degree")
    if not p or p[0] != 1:
        raise DomainError("truncated_inverse requires constant term 1")
    p = [Fraction(c) for c in p[:maxdeg + 1]]
    q = [Fraction(1)]
    for n in range(1, maxdeg + 1):
        s = Fraction(0)
        for j in range(1, min(n, len(p) - 1) + 1):
            s += p[j] * q[n - j]
        q.append(-s)
    return q


def format_series(coeffs: list, variable: str) -> str:
    """A one-variable series in increasing degree, e.g. '1 + 3*t^2'."""
    return _format_terms(
        ([_power_text(variable, n)] if n else [], c)
        for n, c in enumerate(coeffs)
        if c
    )


# -- Bernoulli numbers ---------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_all(up_to: int) -> tuple:
    """(B_0, ..., B_up_to) of x/(e^x - 1) = sum B_n x^n / n!, from the
    tangent numbers T_k = tan^(2k-1)(0): B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1)).  The T_k come from the O(k^2) integer recurrence of
    Brent and Harvey (arXiv:1108.0286, "TangentNumbers"), so the only
    rationals built are the returned ones.
    """
    half = up_to // 2
    t = [0, 1] + [k - 1 for k in range(2, half + 1)]
    for k in range(2, half + 1):  # t[k] = (k-1)! before the sweeps
        t[k] *= t[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * up_to
    for k in range(1, half + 1):
        four = 4 ** k
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], four * (four - 1))
    return tuple(out[:up_to + 1])


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n for even n >= 2 (B_2 = 1/6 convention)."""
    if not isinstance(n, int) or n < 2 or n % 2:
        raise InputError(f"bernoulli defined here for even n >= 2, got {n!r}")
    # a bound of at least 32, rounded up to a power of two, so that
    # ascending calls fill the cache O(log n) times, not once per index
    return _bernoulli_all(max(32, 1 << (n - 1).bit_length()))[n]


def check_set_partition(blocks, exps, d: int) -> None:
    """Raise InputError unless `blocks` are nonempty tuples of strictly
    increasing labels, ordered by least element, covering {1..d} exactly,
    and `exps` holds one nonnegative integer exponent per block."""
    if len(exps) != len(blocks):
        raise InputError("one exponent per block required")
    for exp in exps:
        if not isinstance(exp, int) or exp < 0:
            raise InputError(f"bad exponent {exp!r}")
    seen = []
    last_min = 0
    for block in blocks:
        if not block or list(block) != sorted(set(block)):
            raise InputError(f"bad block {block!r}")
        if block[0] <= last_min:
            raise InputError("blocks must be ordered by least element")
        last_min = block[0]
        seen.extend(block)
    # the count goes first so that a huge d never reaches range()
    if len(seen) != d or sorted(seen) != list(range(1, d + 1)):
        raise InputError("blocks must partition {1..d}")


def set_partitions(d: int, min_parts: int = 1) -> Iterator[tuple]:
    """Set partitions of {1..d} into at least `min_parts` parts, each part a
    tuple of increasing labels and parts ordered by least element: each
    label joins every earlier part in turn, then opens a new one.  It joins
    only where enough parts can still open, so every branch yields, and only
    a join recurses: the depth is at most d - min_parts."""
    if d < 1:
        raise InputError("d must be >= 1")

    def rec(x, parts):
        opened = 0
        while x <= d:
            if len(parts) + d - x >= min_parts:
                for part in parts:
                    part.append(x)
                    yield from rec(x + 1, parts)
                    part.pop()
            parts.append([x])  # the last choice for x: no recursion
            opened += 1
            x += 1
        yield tuple(map(tuple, parts))
        del parts[len(parts) - opened:]

    if min_parts <= d:
        yield from rec(1, [])


def iter_weak_compositions(total: int, parts: int) -> Iterator[tuple]:
    """All tuples of `parts` nonnegative integers summing to `total`, lex
    order: the next moves one unit of the last nonzero entry one place left
    and the rest of it to the end, until (total, 0, ..., 0)."""
    if parts < 0 or total < 0:
        raise InputError("negative arguments")
    if parts == 0:
        if total == 0:
            yield ()
        return
    c = [0] * parts
    c[-1] = total
    while True:
        yield tuple(c)
        j = parts - 1
        while j and not c[j]:
            j -= 1
        if not j:
            return
        rest, c[j] = c[j] - 1, 0
        c[j - 1] += 1
        c[-1] = rest
