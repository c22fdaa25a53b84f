"""Exact scalar and sparse graded-polynomial arithmetic.

Scalars are `fractions.Fraction` throughout: arbitrary precision, always
stored reduced with positive denominator, so every equality test in the
package is exact.

Polynomials are sparse tables mapping kappa/lambda monomials at a fixed
genus to nonzero scalars.  A monomial is a tuple of ((kind, index), exp)
pairs with exp >= 1, sorted by (kind, index), where kind 0 is kappa_index
and kind 1 is lambda_index; the empty tuple is 1.  The degree of a monomial
is sum(index * exp).  Which indices are valid is checked where monomials
are built from outside input (`kappa_lambda`), not here.  Truncation is a
property of the value (an optional degree cap carried by the polynomial),
never global state; the explicit-cap entry point `poly_mul` overrides it
per operation.

One-variable series are plain lists of Fractions indexed by degree;
`series_mul` and `truncated_inverse` work on them.

Every value is immutable after construction and every operation is a pure
function, so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Iterator

Rational = Fraction

Monomial = tuple

GENERATOR_NAMES = ("kappa", "lambda")


class InputError(ValueError):
    """Operands are structurally incompatible or parameters are invalid."""


class DomainError(ValueError):
    """A value lies outside an operation's mathematical domain."""


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for gen, exp in m2:
        acc[gen] = acc.get(gen, 0) + exp
    return tuple(sorted(acc.items()))


def mono_degree(m: Monomial) -> int:
    deg = 0
    for (_, index), exp in m:
        deg += index * exp
    return deg


def _mono_sort_key(m: Monomial):
    # Graded order: total degree first, then exponent-vector comparison
    # (higher leading exponents print first within a degree).
    return (mono_degree(m), tuple((gen, -e) for gen, e in m))


def combine_caps(a: int | None, b: int | None) -> int | None:
    """The degree cap of a value built from operands capped at a and b."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def power(base, n: int, one):
    """base ** n by repeated squaring, starting from `one`."""
    if n < 0:
        raise InputError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


@dataclass(frozen=True, eq=False)
class GradedPoly:
    """Sparse kappa/lambda polynomial with Rational coefficients at a genus.

    `coeffs` maps canonical monomials to nonzero Fractions and is read-only.
    `maxdeg`, when set, means the value is only trusted up to that total
    degree; terms beyond it are dropped on construction and by every
    operation.
    """

    genus: int
    coeffs: MappingProxyType
    maxdeg: int | None = None

    def __post_init__(self) -> None:
        clean: dict = {}
        cap = self.maxdeg
        for m, c in self.coeffs.items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c == 0:
                continue
            if cap is not None and mono_degree(m) > cap:
                continue
            clean[m] = c
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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
        return GradedPoly(self.genus, part, None)

    def homogeneous_degrees(self) -> list:
        return sorted({mono_degree(m) for m in self.coeffs})

    def truncate(self, maxdeg: int | None) -> "GradedPoly":
        return GradedPoly(self.genus, self.coeffs, maxdeg)

    # -- arithmetic ------------------------------------------------------

    def _require_compatible(self, other: "GradedPoly") -> None:
        if self.genus != other.genus:
            raise InputError(
                f"mismatched genus: {self.genus} and {other.genus}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly(self.genus, {(): other})
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._require_compatible(other)
        acc = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = acc.get(m, Fraction(0)) + c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return GradedPoly(self.genus, acc, combine_caps(self.maxdeg, other.maxdeg))

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.genus, {m: -c for m, c in self.coeffs.items()}, self.maxdeg)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly(self.genus, {(): other})
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return GradedPoly(
                self.genus, {m: c * q for m, c in self.coeffs.items()}, self.maxdeg
            )
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._require_compatible(other)
        cap = combine_caps(self.maxdeg, other.maxdeg)
        return _mul_capped(self, other, cap)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, GradedPoly(self.genus, {(): Fraction(1)}, self.maxdeg))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return self.is_zero
            return self.coeffs == {(): q}
        if not isinstance(other, GradedPoly):
            return NotImplemented
        # Truncation metadata is bookkeeping, not part of the value.
        return self.genus == other.genus and self.coeffs == other.coeffs

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"GradedPoly({format_poly(self)})"


def _mul_capped(a: GradedPoly, b: GradedPoly, cap: int | None) -> GradedPoly:
    acc: dict = {}
    bdegs = [(m, c, mono_degree(m)) for m, c in b.coeffs.items()]
    for m1, c1 in a.coeffs.items():
        d1 = mono_degree(m1)
        for m2, c2, d2 in bdegs:
            if cap is not None and d1 + d2 > cap:
                continue
            m = mono_mul(m1, m2)
            s = acc.get(m, Fraction(0)) + c1 * c2
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    return GradedPoly(a.genus, acc, cap)


def poly_mul(a: GradedPoly, b: GradedPoly, maxdeg: int | None) -> GradedPoly:
    """Product of a and b with all terms above total degree maxdeg dropped."""
    if not isinstance(a, GradedPoly) or not isinstance(b, GradedPoly):
        raise InputError("poly_mul expects two GradedPoly operands")
    a._require_compatible(b)
    return _mul_capped(a, b, maxdeg)


def _format_terms(terms) -> str:
    """Join (factor texts, nonzero coefficient) pairs as '1 - 3/4*x*y^2'."""
    pieces = []
    for factors, c in terms:
        mag = abs(c)
        body = "*".join(factors)
        if not factors:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(pieces) if pieces else "0"


def _power_text(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def format_poly(p: GradedPoly) -> str:
    """Deterministic human-readable form, e.g. '1 - 3/4*kappa_1*lambda_2^2'."""
    return _format_terms(
        ([_power_text(f"{GENERATOR_NAMES[kind]}_{index}", exp)
          for (kind, index), exp in m], c)
        for m, c in p.terms()
    )


# -- one-variable series ---------------------------------------------------

def series_mul(a: list, b: list, maxdeg: int) -> list:
    """Product of two coefficient lists, dropping degrees above maxdeg."""
    size = min(len(a) + len(b) - 1, maxdeg + 1)
    out = [Fraction(0)] * size
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
    """(B_0, ..., B_up_to) via series inversion of (e^x - 1)/x.

    The generating function x/(e^x - 1) = sum B_n x^n / n! is computed by
    inverting sum_j x^j/(j+1)!, keeping every coefficient exact.
    """
    q = [Fraction(1, factorial(j + 1)) for j in range(up_to + 1)]
    inv = truncated_inverse(q, up_to)
    return tuple(inv[n] * factorial(n) for n in range(up_to + 1))


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n for even n >= 2 (B_2 = 1/6 convention)."""
    if not isinstance(n, int) or n < 2 or n % 2:
        raise InputError(f"bernoulli defined here for even n >= 2, got {n!r}")
    return _bernoulli_all(n)[n]


def iter_weak_compositions(total: int, parts: int) -> Iterator[tuple]:
    """All tuples of `parts` nonnegative integers summing to `total`, lex order."""
    if parts < 0 or total < 0:
        raise InputError("negative arguments")
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in iter_weak_compositions(total - head, parts - 1):
            yield (head,) + rest
