"""Command-line front end.

Commands mirror the library: relation generation, Chern-class expansion,
pushforward and product of serialized classes, Poincare polynomials,
genus-zero integrals, pairing certificates, local invariants, lambda
elimination, and the named verification suite.

Each `cmd_*` computes its result and returns two zero-argument renderers,
`(text, payload)`, plus an exit code if it can fail (`verify-paper` gives 1
when a check fails and still writes its report).  `main` renders only the
form that `--json` selects and writes it once, to stdout or `--output`, so
an error leaves stdout empty.  Rationals are written with
`rings.rational_text`, which Python's int-to-str digit limit does not bound.
Each `cmd_*` imports the module it computes with, so that a run, which
starts a fresh interpreter, compiles only the modules it uses.

Exit codes: 0 success, 1 verification failure, 2 invalid input.  Output
is deterministic for fixed arguments; `--json` switches every command
from its text form to a schema-tagged payload.  If SQTAUT_OUTPUT_DIR is
set, relative `--output` paths land inside it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .jsonio import (
    SCHEMA,
    emit_kl,
    emit_pointed,
    emit_poly,
    emit_rational,
    parse_kl,
    parse_pointed,
)
from .rings import CertificateError, InputError, format_series, rational_text


def _write_out(args, text: str) -> None:
    dest = getattr(args, "output", None)
    if dest is None:
        print(text)
        return
    out_dir = os.environ.get("SQTAUT_OUTPUT_DIR")
    if out_dir and not os.path.isabs(dest):
        dest = os.path.join(out_dir, dest)
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_payload(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise InputError("JSON input is nested too deeply") from None


# -- commands: each returns (text, payload[, exit code]) -------------------

def cmd_relation(args):
    from .kappa_lambda import lambda_to_kappa
    from .relations import prop8_relation, theorem5_class
    g, d = args.genus, args.d
    if args.theorem5:
        if args.k is None or not (args.a is None and args.b is None and args.c is None):
            raise InputError("--theorem5 takes -g, -d and -k")
        rel = theorem5_class(g, d, args.k)
        provenance = {"theorem": "theorem5", "params": {"g": g, "d": d, "k": args.k}}
    else:
        if args.k is not None or None in (args.a, args.b, args.c):
            raise InputError("--prop8 takes -g, -d, -a, -b and -c")
        rel = prop8_relation(g, d, args.a, args.b, args.c)
        provenance = {
            "theorem": "prop8",
            "params": {"a": args.a, "b": args.b, "c": args.c, "g": g, "d": d},
        }
    if args.kappa_only:
        rel = lambda_to_kappa(rel)
        provenance["kappa_only"] = True

    def text() -> str:
        params = " ".join(f"{k}={v}" for k, v in provenance["params"].items())
        suffix = " (kappa-only)" if args.kappa_only else ""
        return f"# {provenance['theorem']} {params}{suffix}\n{rel}"
    return text, lambda: emit_kl(rel, provenance)


def cmd_chern_f(args):
    from .pointed import chern_F
    part = chern_F(args.genus, args.d, args.degree).degree_part(args.degree)
    return lambda: str(part), lambda: emit_pointed(part)


def cmd_push(args):
    from .pointed import epsilon_push
    pushed = epsilon_push(parse_pointed(_load_payload(args.file)))
    return lambda: str(pushed), lambda: emit_kl(pushed)


def cmd_mult(args):
    from .pointed import pc_mul
    a = parse_pointed(_load_payload(args.file1))
    b = parse_pointed(_load_payload(args.file2))
    product = pc_mul(a, b)
    if args.trunc is not None:
        product = product.truncate(args.trunc)
    return lambda: str(product), lambda: emit_pointed(product)


def cmd_betti(args):
    from .genus0 import poincare_Q02
    poly = poincare_Q02(args.d)
    return (lambda: format_series(poly, "t"),
            lambda: {**emit_poly(poly, "t"), "d": args.d})


def cmd_intersect(args):
    from .genus0 import intersect_M02d
    value = intersect_M02d(args.d, args.x1, args.x2, args.y)  # checks its work first
    y = [0] * args.d if args.y is None else args.y
    return (lambda: rational_text(value),
            lambda: emit_rational(value, d=args.d, x1=args.x1, x2=args.x2, y=y))


def cmd_pairing(args):
    from .pairing import COMPUTED, PROVEN_ZERO, PairingMatrix, rank_certificate
    d, k = args.d, args.k
    cert = rank_certificate(d, k)
    blocks = []
    for block in cert.blocks:
        blocks.append(
            {
                "length": block.length,
                "size": block.size,
                "diagonal": [rational_text(v) for v in block.diagonal],
                "off_diagonal_zeros": block.off_diagonal_checked,
            }
        )
    payload = {
        "schema": SCHEMA,
        "kind": "pairing",
        "d": d,
        "k": k,
        "size": cert.size,
        "blocks": blocks,
        "proven_zero_pairs": cert.zero_pairs,
        "unevaluated_pairs": cert.unevaluated_pairs,
        "full_rank": cert.full_rank,
    }
    if cert.size <= 60:
        matrix = PairingMatrix(d, k)
        cells = []
        for i in range(matrix.size):
            row = []
            for j in range(matrix.size):
                e = matrix.entry(i, j)
                if e.status == COMPUTED:
                    row.append(rational_text(e.value))
                elif e.status == PROVEN_ZERO:
                    row.append("z")
                else:
                    row.append(".")
            cells.append(row)
        payload["entries"] = cells
        payload["entry_legend"] = {
            "z": PROVEN_ZERO,
            ".": "unevaluated",
            "number": "computed value",
        }

    def text() -> str:
        lines = [f"pairing matrix d={d} k={k}: {payload['size']} rows"]
        for block in payload["blocks"]:
            head = f"  length {block['length']}: {block['size']} rows"
            if block["size"] <= 60:
                head += ", diagonal " + " ".join(block["diagonal"])
            else:
                head += ", diagonal entries all positive (omitted)"
            lines.append(head)
        if "entries" in payload:
            lines.append("  entries (z = proven zero, . = unevaluated):")
            for row in payload["entries"]:
                lines.append("    " + " ".join(row))
        lines.append(
            f"proven-zero pairs: {payload['proven_zero_pairs']}, "
            f"unevaluated pairs: {payload['unevaluated_pairs']}"
        )
        lines.append("rank certificate: full rank")
        return "\n".join(lines)
    return text, lambda: payload


def cmd_conifold(args):
    from .conifold import check_scaling, conifold_F, conifold_N
    if args.d is not None:
        check_scaling(args.max_genus, args.d)
    series = conifold_F(args.max_genus)
    genera = range(1, args.max_genus + 1)
    payload = {
        "schema": SCHEMA,
        "kind": "conifold",
        "max_genus": args.max_genus,
        "constant_term": rational_text(series.constant_term),
        "n1": {str(g): rational_text(series.N1(g)) for g in genera},
    }
    if args.d is not None:
        payload["d"] = args.d
        payload["nd"] = {str(g): rational_text(conifold_N(g, args.d, series))
                         for g in genera}

    def text() -> str:
        lines = [f"constant term: {payload['constant_term']}"]
        for g in genera:
            line = f"N[{g},1] = {payload['n1'][str(g)]}"
            if args.d is not None:
                line += f"   N[{g},{args.d}] = {payload['nd'][str(g)]}"
            lines.append(line)
        return "\n".join(lines)
    return text, lambda: payload


def cmd_lambda_to_kappa(args):
    from .kappa_lambda import lambda_to_kappa
    payload = _load_payload(args.file)
    result = lambda_to_kappa(parse_kl(payload))
    return lambda: str(result), lambda: emit_kl(result, payload.get("provenance"))


def cmd_verify_paper(args):
    from .verify import run_all
    checks = [
        {"id": r.check_id, "statement": r.statement, "passed": r.passed,
         "details": list(r.details), "elapsed_s": round(r.elapsed, 3), "budget_s": r.budget}
        for r in run_all(args.only)
    ]
    payload = {
        "schema": SCHEMA,
        "kind": "verify-report",
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }

    def text() -> str:
        lines = []
        for c in checks:
            lines.append(f"{'PASS' if c['passed'] else 'FAIL'}  {c['id']} "
                         f"({c['elapsed_s']:.2f} s, budget {c['budget_s']:g} s)")
            lines.append(f"      {c['statement']}")
            for detail in c["details"]:
                lines.append(f"      - {detail}")
        lines.append(f"{sum(c['passed'] for c in checks)}/{len(checks)} checks passed")
        return "\n".join(lines)
    return text, lambda: payload, 0 if payload["passed"] else 1


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqtaut",
        description="Exact tautological-class calculus: relations, "
        "pushforwards, pairing certificates, and local invariants.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a schema-tagged JSON payload")
    common.add_argument("--output", metavar="FILE", help="write to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relation", parents=[common], help="generate a vanishing kappa/lambda class")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--theorem5", action="store_true", help="Chern-degree family, parameter -k")
    which.add_argument("--prop8", action="store_true", help="section-calculus family, parameters -a -b -c")
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument("-d", type=int, required=True, help="number of light points")
    p.add_argument("-k", type=int, help="degree step above the bundle rank")
    p.add_argument("-a", type=int, help="power of the section sum")
    p.add_argument("-b", type=int, help="power of the relative cotangent class")
    p.add_argument("-c", type=int, help="Chern degree above the bundle rank")
    p.add_argument("--kappa-only", action="store_true", help="eliminate lambda classes")
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("chern-f", parents=[common], help="one graded piece of the obstruction-bundle Chern class")
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_chern_f)

    p = sub.add_parser("push", parents=[common], help="integrate a pointed class over the light points")
    p.add_argument("file", nargs="?", default="-", help="pointed-class JSON file, or - for stdin")
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("mult", parents=[common], help="product of two pointed classes")
    p.add_argument("file1", help="pointed-class JSON file")
    p.add_argument("file2", help="pointed-class JSON file")
    p.add_argument("--trunc", type=int, help="truncate the product above this degree")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("betti", parents=[common], help="Poincare polynomial of the two-pointed chain space")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("intersect", parents=[common], help="two-heavy-point integral with d light points")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x1", type=int, required=True)
    p.add_argument("--x2", type=int, required=True)
    p.add_argument("--y", type=int, nargs="*", help="light exponents, default all zero")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("pairing", parents=[common], help="pairing matrix and its full-rank certificate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("conifold", parents=[common], help="local invariants from the sine series")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--d", type=int, help="also print degree-d values")
    p.set_defaults(func=cmd_conifold)

    p = sub.add_parser("lambda-to-kappa", parents=[common], help="eliminate lambda classes from a serialized class")
    p.add_argument("file", nargs="?", default="-", help="kl-class JSON file, or - for stdin")
    p.set_defaults(func=cmd_lambda_to_kappa)

    p = sub.add_parser("verify-paper", parents=[common], help="run the named verification checks")
    p.add_argument("--only", metavar="ID", help="run a single check by id or alias")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, payload, *code = args.func(args)
        _write_out(args, json.dumps(payload(), indent=2) if args.json else text())
        return code[0] if code else 0
    except CertificateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
