"""Exact tautological-class calculus on moduli of curves with
collision-allowed marked points: graded polynomial cores, pushforward
calculi, relation generators, pairing matrices, genus-zero intersection
combinatorics, and local Calabi-Yau invariants.

`import sqtaut` loads no submodule.  A public name is imported from its
home module in `_EXPORTS` on first use and then kept in the package
namespace, so later reads are plain lookups; `sqtaut.<module>` loads that
submodule the same way.  Every command-line run starts a fresh
interpreter, and this way it compiles only the modules it runs.
"""

from importlib import import_module

# home module -> the public names it provides
_EXPORTS = {
    "conifold": ("LocalSeries", "conifold_F", "conifold_N"),
    "curve": ("CurveClass", "cc_omega", "cc_pullback", "cc_sections_sum",
              "cc_sigma", "pi_push"),
    "genus0": ("intersect_M02d", "poincare_Q02", "psi_integral_M0n"),
    "jsonio": ("SCHEMA", "emit_kl", "emit_pointed", "emit_poly", "emit_rational",
               "parse_kl", "parse_kl_pretty", "parse_pointed", "parse_poly",
               "parse_rational"),
    "kappa_lambda": ("KLPoly", "chern_E_dual", "genus_of", "kappa_class",
                     "kl_is_kappa_only", "kl_one", "kl_scalar", "kl_zero",
                     "lambda_class", "lambda_to_kappa"),
    "pairing": ("Certificate", "ChainStratum", "PairingMatrix", "enumerate_P",
                "pairing_entry", "rank_certificate"),
    "pointed": ("BlockMonomial", "PointedClass", "chern_F", "diagonal_monomial",
                "epsilon_push", "pc_delta", "pc_delta_sym", "pc_diagonal",
                "pc_from_kl", "pc_monomial", "pc_mul", "pc_one", "pc_psihat",
                "pc_zero", "psihat_monomial", "pushed_chern", "unit_monomial"),
    "relations": ("prop8_relation", "rank_F", "theorem5_class"),
    "rings": ("CertificateError", "DomainError", "GradedPoly", "InputError",
              "Rational", "bernoulli", "poly_mul", "series_mul",
              "set_partitions", "truncated_inverse"),
    "verify": ("CHECKS", "CheckResult", "run_all", "run_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # the import binds it in this namespace
        return import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
