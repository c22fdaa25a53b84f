"""Exact tautological-class calculus on moduli of curves with
collision-allowed marked points: graded polynomial cores, pushforward
calculi, relation generators, pairing matrices, genus-zero intersection
combinatorics, and local Calabi-Yau invariants.
"""

from .conifold import LocalSeries, conifold_F, conifold_N
from .curve import (
    CurveClass,
    cc_omega,
    cc_pullback,
    cc_sections_sum,
    cc_sigma,
    pi_push,
)
from .genus0 import intersect_M02d, poincare_Q02, psi_integral_M0n
from .jsonio import (
    SCHEMA,
    emit_kl,
    emit_pointed,
    emit_poly,
    emit_rational,
    parse_kl,
    parse_kl_pretty,
    parse_pointed,
    parse_poly,
    parse_rational,
)
from .kappa_lambda import (
    KLPoly,
    chern_E_dual,
    genus_of,
    kappa_class,
    kl_is_kappa_only,
    kl_one,
    kl_scalar,
    kl_zero,
    lambda_class,
    lambda_to_kappa,
)
from .pairing import (
    Certificate,
    CertificateError,
    ChainStratum,
    PairingMatrix,
    enumerate_P,
    pairing_entry,
    rank_certificate,
)
from .pointed import (
    BlockMonomial,
    PointedClass,
    chern_F,
    diagonal_monomial,
    epsilon_push,
    pc_delta,
    pc_delta_sym,
    pc_diagonal,
    pc_from_kl,
    pc_monomial,
    pc_mul,
    pc_one,
    pc_psihat,
    pc_zero,
    psihat_monomial,
    pushed_chern,
    unit_monomial,
)
from .relations import prop8_relation, rank_F, theorem5_class
from .rings import (
    DomainError,
    GradedPoly,
    InputError,
    Rational,
    bernoulli,
    poly_mul,
    series_mul,
    set_partitions,
    truncated_inverse,
)

__all__ = [
    "BlockMonomial",
    "CHECKS",
    "Certificate",
    "CertificateError",
    "ChainStratum",
    "CheckResult",
    "CurveClass",
    "DomainError",
    "GradedPoly",
    "InputError",
    "KLPoly",
    "LocalSeries",
    "PairingMatrix",
    "PointedClass",
    "Rational",
    "SCHEMA",
    "bernoulli",
    "cc_omega",
    "cc_pullback",
    "cc_sections_sum",
    "cc_sigma",
    "chern_E_dual",
    "chern_F",
    "conifold_F",
    "conifold_N",
    "diagonal_monomial",
    "emit_kl",
    "emit_pointed",
    "emit_poly",
    "emit_rational",
    "enumerate_P",
    "epsilon_push",
    "genus_of",
    "intersect_M02d",
    "kappa_class",
    "kl_is_kappa_only",
    "kl_one",
    "kl_scalar",
    "kl_zero",
    "lambda_class",
    "lambda_to_kappa",
    "pairing_entry",
    "parse_kl",
    "parse_kl_pretty",
    "parse_pointed",
    "parse_poly",
    "parse_rational",
    "pc_delta",
    "pc_delta_sym",
    "pc_diagonal",
    "pc_from_kl",
    "pc_monomial",
    "pc_mul",
    "pc_one",
    "pc_psihat",
    "pc_zero",
    "pi_push",
    "poincare_Q02",
    "poly_mul",
    "prop8_relation",
    "psi_integral_M0n",
    "psihat_monomial",
    "pushed_chern",
    "rank_F",
    "rank_certificate",
    "run_all",
    "run_check",
    "series_mul",
    "set_partitions",
    "theorem5_class",
    "truncated_inverse",
    "unit_monomial",
]

__version__ = "0.1.0"


def __getattr__(name: str):  # verify loads on first use of its names
    if name in ("CHECKS", "CheckResult", "run_all", "run_check"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
