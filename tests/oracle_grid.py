"""Relation generators and lambda images against their oracles on full grids.

The tier-1 suite checks the per-block formulas of `prop8_relation` and
`theorem5_class`, and the genus-free lambda images, on small grids; this
script checks every point of three larger ones, which takes about five
minutes:

  * prop8_relation(g, d, a, b, c) against the pushed product
    eps_*([pi_*((s^a + (-1)^c (s+1)^a) omega^b) * c(F_d)]_N) for
    2 <= g <= 9, 1 <= d <= 5, a <= 3, b <= 2, 1 <= c <= 4 and relation
    degree <= 6; where the Chern index or N is negative, InputError;
  * theorem5_class(g, d, k) against pushed_chern(g, d, g-d-1+2k) for
    2 <= g <= 12, 1 <= d <= 5, 1 <= k <= 4 and Chern degree >= 0;
  * the kappa images of lambda_1..lambda_g against the table built by
    Newton's identities with full polynomial products, for 2 <= g <= 24,
    and lambda_to_kappa of every lambda monomial of degree <= 12 at g = 12
    against the product of that table's images.

Run from the repository root:

    PYTHONPATH=src python tests/oracle_grid.py

It prints one line per grid and exits 1 on any mismatch.
"""

import itertools
import sys
import time

from sqtaut.kappa_lambda import _lambda_table, kl_one, lambda_to_kappa
from sqtaut.pointed import pushed_chern
from sqtaut.relations import prop8_relation, rank_F, theorem5_class
from sqtaut.rings import InputError
from test_curve import pushed_product_prop8
from test_kappa_lambda import lambda_monomial, newton_lambda_table, partitions


def prop8_grid() -> list:
    """Parameter tuples whose relation differs from the oracle."""
    bad = []
    checked = rejected = 0
    for g, d, a, b, c in itertools.product(range(2, 10), range(1, 6), range(4),
                                           range(3), range(1, 5)):
        if g - 2 * d - 2 + a + b + c > 6:
            continue
        if rank_F(g, d) + c < 0 or g - d - 2 + a + b + c < 0:
            try:
                prop8_relation(g, d, a, b, c)
            except InputError:
                rejected += 1
            else:
                bad.append((g, d, a, b, c))
            continue
        if prop8_relation(g, d, a, b, c) != pushed_product_prop8(g, d, a, b, c):
            bad.append((g, d, a, b, c))
        checked += 1
    print(f"prop8: {checked} points checked, {rejected} rejected, "
          f"{len(bad)} mismatches", flush=True)
    return bad


def theorem5_grid() -> list:
    bad = []
    checked = 0
    for g, d, k in itertools.product(range(2, 13), range(1, 6), range(1, 5)):
        target = rank_F(g, d) + 2 * k
        if target < 0:
            continue
        if theorem5_class(g, d, k) != pushed_chern(g, d, target):
            bad.append((g, d, k))
        checked += 1
    print(f"theorem5: {checked} points checked, {len(bad)} mismatches", flush=True)
    return bad


def lambda_grid() -> list:
    bad = []
    for g in range(2, 25):
        got, want = _lambda_table(g), newton_lambda_table(g)
        if len(got) != g:
            bad.append((g, "length"))
        bad += [(g, n) for n, (x, y) in enumerate(zip(got, want), 1) if x != y]
    table, monomials = newton_lambda_table(12), 0
    for n in range(13):
        for parts in partitions(n, 12):
            want = kl_one(12)
            for i in parts:
                want = want * table[i - 1]
            if lambda_to_kappa(lambda_monomial(12, parts)) != want:
                bad.append((12, parts))
            monomials += 1
    print(f"lambda images: genus 2..24 and {monomials} lambda monomials at "
          f"genus 12, {len(bad)} mismatches", flush=True)
    return bad


def main() -> int:
    failed = False
    for grid in (prop8_grid, theorem5_grid, lambda_grid):
        start = time.perf_counter()
        bad = grid()
        print(f"  {time.perf_counter() - start:.1f} s", flush=True)
        for point in bad:
            print(f"  MISMATCH {point}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
