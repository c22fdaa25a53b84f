"""Command-line front end.

Commands mirror the library: relation generation, Chern-class expansion,
pushforward and product of serialized classes, Poincare polynomials,
genus-zero integrals, pairing certificates, local invariants, lambda
elimination, and the named verification suite.

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

from .conifold import conifold_F, conifold_N
from .curve import prop8_relation
from .genus0 import intersect_M02d, poincare_Q02
from .jsonio import (
    SCHEMA,
    emit_kl,
    emit_pointed,
    emit_poly,
    emit_rational,
    parse_kl,
    parse_pointed,
)
from .kappa_lambda import lambda_to_kappa
from .pairing import (
    COMPUTED,
    PROVEN_ZERO,
    CertificateError,
    PairingMatrix,
    rank_certificate,
)
from .pointed import chern_F, epsilon_push, pc_mul, theorem5_class
from .rings import InputError, format_series


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


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _load_payload(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise InputError("JSON input is nested too deeply") from None


# -- commands -------------------------------------------------------------

def cmd_relation(args) -> int:
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
    if args.json:
        _write_out(args, _dump(emit_kl(rel, provenance)))
    else:
        params = " ".join(f"{k}={v}" for k, v in provenance["params"].items())
        suffix = " (kappa-only)" if args.kappa_only else ""
        header = f"# {provenance['theorem']} {params}{suffix}"
        _write_out(args, f"{header}\n{rel}")
    return 0


def cmd_chern_f(args) -> int:
    part = chern_F(args.genus, args.d, args.degree).degree_part(args.degree)
    if args.json:
        _write_out(args, _dump(emit_pointed(part)))
    else:
        _write_out(args, str(part))
    return 0


def cmd_push(args) -> int:
    p = parse_pointed(_load_payload(args.file))
    pushed = epsilon_push(p)
    if args.json:
        _write_out(args, _dump(emit_kl(pushed)))
    else:
        _write_out(args, str(pushed))
    return 0


def cmd_mult(args) -> int:
    a = parse_pointed(_load_payload(args.file1))
    b = parse_pointed(_load_payload(args.file2))
    product = pc_mul(a, b)
    if args.trunc is not None:
        product = product.truncate(args.trunc)
    if args.json:
        _write_out(args, _dump(emit_pointed(product)))
    else:
        _write_out(args, str(product))
    return 0


def cmd_betti(args) -> int:
    poly = poincare_Q02(args.d)
    if args.json:
        payload = emit_poly(poly, "t")
        payload["d"] = args.d
        _write_out(args, _dump(payload))
    else:
        _write_out(args, format_series(poly, "t"))
    return 0


def cmd_intersect(args) -> int:
    y = args.y if args.y is not None else [0] * args.d
    value = intersect_M02d(args.d, args.x1, args.x2, y)
    if args.json:
        payload = emit_rational(
            value, d=args.d, x1=args.x1, x2=args.x2, y=list(y)
        )
        _write_out(args, _dump(payload))
    else:
        _write_out(args, str(value))
    return 0


def _pairing_payload(d: int, k: int) -> dict:
    cert = rank_certificate(d, k)
    blocks = []
    for block in cert.blocks:
        blocks.append(
            {
                "length": block.length,
                "size": block.size,
                "diagonal": [str(v) for v in block.diagonal],
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
                    row.append(str(e.value))
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
    return payload


def cmd_pairing(args) -> int:
    payload = _pairing_payload(args.d, args.k)
    if args.json:
        _write_out(args, _dump(payload))
        return 0
    lines = [f"pairing matrix d={args.d} k={args.k}: {payload['size']} rows"]
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
    _write_out(args, "\n".join(lines))
    return 0


def cmd_conifold(args) -> int:
    series = conifold_F(args.max_genus)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "kind": "conifold",
            "max_genus": args.max_genus,
            "constant_term": str(series.constant_term),
            "n1": {str(g): str(series.N1(g)) for g in range(1, args.max_genus + 1)},
        }
        if args.d is not None:
            payload["d"] = args.d
            payload["nd"] = {
                str(g): str(conifold_N(g, args.d, series))
                for g in range(1, args.max_genus + 1)
            }
        _write_out(args, _dump(payload))
        return 0
    lines = [f"constant term: {series.constant_term}"]
    for g in range(1, args.max_genus + 1):
        line = f"N[{g},1] = {series.N1(g)}"
        if args.d is not None:
            line += f"   N[{g},{args.d}] = {conifold_N(g, args.d, series)}"
        lines.append(line)
    _write_out(args, "\n".join(lines))
    return 0


def cmd_lambda_to_kappa(args) -> int:
    payload = _load_payload(args.file)
    result = lambda_to_kappa(parse_kl(payload))
    if args.json:
        _write_out(args, _dump(emit_kl(result, payload.get("provenance"))))
    else:
        _write_out(args, str(result))
    return 0


def cmd_verify_paper(args) -> int:
    from .verify import run_all  # the only command that needs verify
    results = run_all(args.only)
    all_passed = all(r.passed for r in results)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "kind": "verify-report",
            "checks": [
                {
                    "id": r.check_id,
                    "statement": r.statement,
                    "passed": r.passed,
                    "details": list(r.details),
                }
                for r in results
            ],
            "passed": all_passed,
        }
        _write_out(args, _dump(payload))
    else:
        lines = []
        for r in results:
            lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.check_id}")
            lines.append(f"      {r.statement}")
            for detail in r.details:
                lines.append(f"      - {detail}")
        passed = sum(r.passed for r in results)
        lines.append(f"{passed}/{len(results)} checks passed")
        _write_out(args, "\n".join(lines))
    return 0 if all_passed else 1


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
        return args.func(args)
    except CertificateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
