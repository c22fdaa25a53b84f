"""The value types are immutable records: fixed fields, field equality.

Every class here is built on `rings.Frozen`: it names its fields in
`_fields`, they are set once, by its constructor or by `_trusted`, and
assigning or deleting an attribute raises AttributeError.
The three ring classes (`GradedPoly`, `PointedClass`, `CurveClass`) compare
through `SparseSum.__eq__` and are unhashable; the records compare and hash
by their fields.
"""

import re
from fractions import Fraction

import pytest

from sqtaut import pairing, verify
from sqtaut.conifold import LocalSeries, conifold_F
from sqtaut.curve import CurveClass, OMEGA, cc_omega
from sqtaut.kappa_lambda import kappa_class, kl_one
from sqtaut.pairing import (
    COMPUTED,
    PROVEN_ZERO,
    ChainStratum,
    PairingEntry,
    enumerate_P,
    rank_certificate,
)
from sqtaut.pointed import BlockMonomial, PointedClass, chern_F, unit_monomial
from sqtaut.rings import GradedPoly, InputError

G = 4


def values():
    """One value of every Frozen class, with the pairing cells that every
    structural or computed-zero cell shares."""
    spec = BlockMonomial(2, ((1,), (2,)), (0, 1))
    cert = rank_certificate(2, 1)
    check = verify.lookup("betti")
    return {
        "GradedPoly": kappa_class(G, 1),
        "BlockMonomial": unit_monomial(2),
        "PointedClass": chern_F(G, 2, 2),
        "CurveClass": cc_omega(G, 2),
        "ChainStratum": ChainStratum.from_spec(spec),
        "PairingEntry": PairingEntry(COMPUTED, value=Fraction(2)),
        "_COMPUTED_ZERO": pairing._COMPUTED_ZERO,
        "_TOO_FEW_BLOCKS": pairing._TOO_FEW_BLOCKS,
        "_SUPPORT_MISMATCH": pairing._SUPPORT_MISMATCH,
        "_UNEVALUATED": pairing._UNEVALUATED,
        "DiagonalBlock": cert.blocks[0],
        "Certificate": cert,
        "LocalSeries": conifold_F(3),
        "CheckResult": verify.run_check(check),
        "Check": check,
    }


@pytest.mark.parametrize("name", list(values()))
def test_fields_cannot_be_set_or_deleted(name):
    value = values()[name]
    field = value._fields[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.new_attribute = 1
    assert getattr(value, field) is before


def test_stored_monomial_degree_cannot_be_set():
    mono = BlockMonomial(3, ((1, 2), (3,)), (0, 1))
    with pytest.raises(AttributeError):
        mono.degree = 0
    with pytest.raises(AttributeError):
        del mono.degree
    assert mono.degree == 2


@pytest.mark.parametrize("build", [BlockMonomial, BlockMonomial._trusted],
                         ids=["validated", "trusted"])
def test_monomial_fields_written_at_once_cannot_be_set_or_deleted(build):
    mono = build(3, ((1, 2), (3,)), (0, 1))
    fields = {"d": 3, "blocks": ((1, 2), (3,)), "exps": (0, 1), "degree": 2}
    assert vars(mono) == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(mono, name, None)
        with pytest.raises(AttributeError):
            delattr(mono, name)
    assert vars(mono) == fields


def test_shared_pairing_cells_stay_as_built():
    assert pairing._COMPUTED_ZERO == PairingEntry(COMPUTED, value=Fraction(0))
    assert pairing._TOO_FEW_BLOCKS == PairingEntry(
        PROVEN_ZERO, reason=pairing.REASON_TOO_FEW_BLOCKS)
    assert pairing._UNEVALUATED == PairingEntry(pairing.UNEVALUATED)
    with pytest.raises(AttributeError):
        pairing._COMPUTED_ZERO.value = Fraction(1)
    assert pairing._COMPUTED_ZERO.value == 0


@pytest.mark.parametrize("build", [
    lambda: BlockMonomial(3, ((1, 2), (3,)), (0, 1)),
    lambda: PairingEntry(COMPUTED, value=Fraction(3, 2)),
], ids=["BlockMonomial", "PairingEntry"])
def test_equal_records_compare_and_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in a._fields))
    assert {a: 1}[b] == 1
    assert a != tuple(getattr(a, f) for f in a._fields)


def test_records_differ_in_any_field():
    assert BlockMonomial(2, ((1, 2),), (0,)) != BlockMonomial(2, ((1, 2),), (1,))
    assert BlockMonomial._trusted(2, ((1, 2),), (1,)) == BlockMonomial(2, ((1, 2),), (1,))
    assert PairingEntry(COMPUTED, value=Fraction(0)) != PairingEntry(COMPUTED)
    assert PairingEntry(PROVEN_ZERO, reason="a") != PairingEntry(PROVEN_ZERO, reason="b")
    spec = BlockMonomial(2, ((1,), (2,)), (0, 1))
    assert ChainStratum.from_spec(spec).monomial is spec
    assert ChainStratum.from_spec(spec) != ChainStratum.from_spec(
        BlockMonomial(2, ((1,), (2,)), (1, 0)))


@pytest.mark.parametrize("name", ["GradedPoly", "PointedClass", "CurveClass"])
def test_ring_classes_stay_unhashable(name):
    with pytest.raises(TypeError):
        hash(values()[name])


def test_keyword_construction_and_defaults():
    entry = PairingEntry(COMPUTED, value=Fraction(5))
    assert (entry.status, entry.value, entry.reason) == (COMPUTED, 5, None)
    entry = PairingEntry(status=PROVEN_ZERO, reason="why")
    assert (entry.value, entry.reason) == (None, "why")
    table = {(((0, 1), 2),): Fraction(3), (): 1}
    p = GradedPoly(G, table)
    assert p.cap is None and p == GradedPoly(genus=G, coeffs=table, cap=None)
    assert GradedPoly(G, table, 1) == GradedPoly(G, {(): 1})
    spec = BlockMonomial(2, ((1, 2),), (0,))
    assert ChainStratum(monomial=spec, heavy_labels=((1, 2), (3,), (4, 5)),
                        light_blocks=((), (1, 2), ()),
                        psi_labels=(3,)) == ChainStratum.from_spec(spec)
    mono = BlockMonomial(d=2, blocks=((1,), (2,)), exps=(1, 0))
    assert mono == BlockMonomial(2, ((1,), (2,)), (1, 0))
    pc = PointedClass(genus=G, d=2, terms={mono: kl_one(G)})
    assert pc.cap is None and pc.terms[mono] == kl_one(G)
    cc = CurveClass(genus=G, d=2, terms={(OMEGA, 1): pc}, cap=5)
    assert cc == cc_omega(G, 2) * pc
    series = LocalSeries(max_genus=1, coeffs=(Fraction(1, 12),), constant_term=Fraction(1))
    assert series.N1(1) == Fraction(1, 12)
    assert repr(series) == (
        "LocalSeries(max_genus=1, coeffs=(Fraction(1, 12),), "
        "constant_term=Fraction(1, 1))")


@pytest.mark.parametrize("name", list(values()))
def test_every_value_is_rebuilt_from_its_fields(name):
    value = values()[name]
    cls, fields = type(value), value._values()
    assert cls(*fields) == value
    assert cls(**dict(zip(value._fields, fields))) == value
    if cls is GradedPoly:  # its `_set` takes a table and stores it read-only
        fields = (value.genus, dict(value.coeffs), value.cap)
    assert cls._trusted(*fields) == value


# the records whose constructor is `Frozen`'s own
BOUND = ["ChainStratum", "DiagonalBlock", "Certificate", "CheckResult", "Check"]


@pytest.mark.parametrize("name", BOUND)
def test_fields_that_do_not_bind_raise_type_error_naming_them(name):
    value = values()[name]
    cls, fields, first = type(value), value._values(), value._fields[0]
    message = rf"^{cls.__name__} takes the fields \({', '.join(value._fields)}\); got "
    for args, named in [
        (fields + (None,), {}),                    # too many values
        (fields[:-1], {}),                         # a field missing
        (fields, {"extra": None}),                 # an unknown name
        (fields, {first: fields[0]}),              # a field given twice
    ]:
        with pytest.raises(TypeError, match=message):
            cls(*args, **named)


def test_records_print_their_fields_in_order():
    spec = BlockMonomial(2, ((1,), (2,)), (0, 1))
    assert repr(ChainStratum.from_spec(spec)) == (
        "ChainStratum(monomial=BlockMonomial(d=2, blocks=((1,), (2,)), exps=(0, 1)), "
        "heavy_labels=((1, 2), (3,), (4, 5), (6, 7)), light_blocks=((), (1,), (2,), ()), "
        "psi_labels=(3, 4))")
    assert repr(rank_certificate(2, 1)) == (
        "Certificate(d=2, k=1, size=3, blocks=(DiagonalBlock(length=2, size=2, "
        "diagonal=(Fraction(2, 1), Fraction(2, 1)), off_diagonal_checked=2), "
        "DiagonalBlock(length=1, size=1, diagonal=(Fraction(1, 1),), off_diagonal_checked=0)), "
        "zero_pairs=2, unevaluated_pairs=2, full_rank=True)")


@pytest.mark.parametrize("build,message", [
    (lambda: enumerate_P(0, -1), "need d >= 1 and k >= 0"),
    # the checks run in their order: d first, labels last
    (lambda: BlockMonomial(-1, None, None), "d must be >= 0"),
    (lambda: BlockMonomial(2, ((1, 2),), (0, 0)), "one exponent per block required"),
    (lambda: BlockMonomial(2, ((1, 2),), (-1,)), "bad exponent -1"),
    (lambda: BlockMonomial(2, ((2,), (1,)), (0, 1)), "blocks must be ordered by least element"),
    (lambda: BlockMonomial(3, ((1, 2),), (0,)), "blocks must partition {1..d}"),
    (lambda: LocalSeries(0, None, None), "max_genus must be >= 1"),
    (lambda: LocalSeries(2, (Fraction(1),), Fraction(1)), "need one coefficient per genus"),
])
def test_invalid_arguments_raise_input_error(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()
