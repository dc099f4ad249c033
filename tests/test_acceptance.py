"""Acceptance suite: one check per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from obstructor import (
    ConePoint,
    ExactMatrix,
    GroupSpec,
    adjoint_component,
    arrow_complex,
    betti_numbers,
    build_root_system,
    catalog_grid,
    column_factor_map,
    dim_symmetric,
    divergence_suite,
    exhaustive_verify,
    expected_column_join,
    heisenberg_map,
    identity_check,
    is_isomorphic_via,
    join_sphere,
    obstructor_shape,
    obstructor_subcomplex,
    properness_test,
    split_growth_experiment,
    split_map,
    sphere_betti,
    sphere_preimage,
)
from obstructor.cli import ACCEPTANCE_TYPES


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_ordering_witnesses_exhaustive():
    t0 = time.perf_counter()
    labelings = witnesses = 0
    for fam, rank in ACCEPTANCE_TYPES:
        rs = build_root_system((fam, rank))
        rep = exhaustive_verify(rs)
        assert rep.passed, (fam, rank)
        assert rep.witnesses_found == rep.witnesses_found_componentwise
        labelings += rep.labelings_checked
        witnesses += rep.witnesses_found
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        labelings == witnesses and elapsed < 30.0,
        f"{len(ACCEPTANCE_TYPES)} types, {labelings} labelings, "
        f"{witnesses} witnesses, {elapsed:.1f}s",
    )


def test_criterion_2_dimension_identities():
    checked = 0
    ok = True
    for n in range(2, 13):
        rep = identity_check(GroupSpec("sl_z", n=n))
        ok &= rep.identity_holds and rep.m == n * (n + 1) // 2 - 3
        ok &= rep.dim_symmetric == n * (n + 1) // 2 - 1
        checked += 1
        rep = identity_check(GroupSpec("sl_o", n=n, places=(2, 0)))
        ok &= rep.identity_holds and rep.m == n * n + n - 4
        ok &= rep.dim_symmetric == n * n + n - 2
        checked += 1
    for r in range(0, 7):
        for s in range(0, 4):
            if r + s < 1 or r + 2 * s > 6:
                continue
            for n in range(2, 9):
                ok &= identity_check(GroupSpec("sl_o", n=n, places=(r, s))).identity_holds
                checked += 1
    for n in range(2, 11):
        ok &= identity_check(GroupSpec("sp_z", n=n)).identity_holds
        checked += 1
    for q in range(1, 7):
        for nn in range(2 * q, 15):
            if (q, nn) == (1, 2):
                continue
            for xm in range(0, 4):
                ok &= identity_check(
                    GroupSpec("so_q", witt=q, ambient=nn, dim_xm=xm)
                ).identity_holds
                checked += 1
    _verdict(2, ok, f"{checked} group specs, exact integer equality")


def test_criterion_3_complex_suite():
    ok = True
    c3 = arrow_complex(3)
    ok &= c3.f_vector() == (6, 12, 6)
    ok &= c3.euler_characteristic() == 0
    ok &= betti_numbers(c3) == (1, 1, 0)

    canonical_betti = {k: betti_numbers(join_sphere(k)) for k in range(4)}
    ok &= all(canonical_betti[k] == sphere_betti(k) for k in range(4))

    rng = random.Random(2024)
    preimages = 0
    for n in range(2, 6):
        c = arrow_complex(n)
        sims = [s for s in c.simplices() if len(s) <= 4]
        direct = []
        for s in sims:
            k = len(s) - 1
            pre = sphere_preimage(s)
            ok &= len(pre.facets) == 2 ** (k + 1)
            slots = {pos: i for i, pos in enumerate(sorted(s))}
            ok &= is_isomorphic_via(pre, join_sphere(k), lambda v: (slots[v[0]], v[1]))
            preimages += 1
            if n <= 4 or k <= 1:
                direct.append(s)
        if n == 5:
            # sorted, so the sample depends on the seed alone, not on set order
            pool = sorted((s for s in sims if len(s) - 1 >= 2), key=sorted)
            direct.extend(rng.sample(pool, min(60, len(pool))))
        for s in direct:
            ok &= betti_numbers(sphere_preimage(s)) == sphere_betti(len(s) - 1)

    towers = 0
    for n in range(2, 7):
        L = obstructor_subcomplex(n)
        ok &= is_isomorphic_via(L, expected_column_join(n), column_factor_map(n))
        shape = obstructor_shape(GroupSpec("sl_z", n=n))
        ok &= shape.m == n * (n + 1) // 2 - 3
        factor_dims = sorted(
            len({v for v in L.vertices if column_factor_map(n)(v)[0] == f and v[1] in (1, -1) and v[0][0] < v[0][1]}) // 2
            for f in range(n - 1)
        )
        ok &= factor_dims == [k + 1 for k in shape.plus_dims]
        towers += 1
    _verdict(3, ok, f"annulus data, {preimages} sphere preimages, {towers} join towers")


def test_criterion_4_matrix_regressions():
    ok = True
    m = split_map(3)
    x, y = Fraction(6), Fraction(35)
    tot = x + y
    p = ConePoint((((2, 3), 1), ((3, 1), 1)), (x / tot, y / tot), tot)
    ok &= m(p) == ExactMatrix([[1, 0, 0], [x * y, 1, x], [y, 0, 1]])
    for r in (Fraction(10), Fraction(10 ** 2), Fraction(10 ** 5)):
        a = ExactMatrix([[1, r, 1], [0, 1, 1], [0, 0, 1]])
        pa = ConePoint(
            (((1, 2), 1), ((1, 3), 1), ((2, 3), 1)),
            (r / (r + 2), 1 / (r + 2), 1 / (r + 2)),
            r + 2,
        )
        ok &= m(pa) == a
        b_unsplit = ExactMatrix([[1, 0, -r], [0, 1, 0], [0, 1, 1]])
        ok &= a.inverse() @ b_unsplit == ExactMatrix([[1, -1, -1], [0, 0, -1], [0, 1, 1]])
        pb = ConePoint((((1, 3), -1), ((3, 2), 1)), (r / (r + 1), 1 / (r + 1)), r + 1)
        b_split = m(pb)
        ok &= b_split == ExactMatrix([[1, -r, -r], [0, 1, 0], [0, 1, 1]])
        ok &= a.inverse() @ b_split == ExactMatrix(
            [[1, -r - 1, -1], [0, 0, -1], [0, 1, 1]]
        )
    _verdict(4, ok, "split product, bounded pair, separated pair: exact")


def test_criterion_5_divergence_and_properness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, pairing in ((3, "cross"), (4, "aligned")):
        for builder in (heisenberg_map, split_map):
            cm = builder(n)
            div = divergence_suite(cm, pairing=pairing)
            prop = properness_test(cm)
            ok &= div.all_passed and prop.all_passed
            details.append(f"{cm.name}:{div.total}p/{prop.total}r")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _verdict(5, ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_6_split_growth():
    ok = True
    details = []
    for n in (3, 4):
        mins = []
        for mag in [10 ** k for k in range(1, 7)]:
            res = split_growth_experiment(n, mag, samples=100, seed=2024)
            mins.append(res.min_max_entry)
        ok &= all(a < b for a, b in zip(mins, mins[1:]))
        ok &= mins[-1] > 10 ** 3
        details.append(f"n={n}: {mins}")
    _verdict(6, ok, "; ".join(details))


def test_criterion_7_adjoint_spot_checks():
    ok = True
    g = ExactMatrix.identity(3)
    ok &= adjoint_component(g, (1, 3), (1, 3)) == 1
    ok &= adjoint_component(g, (1, 3), (2, 3)) == 0
    t = Fraction(13)
    g = ExactMatrix.from_entries(3, {(2, 1): t})
    ok &= adjoint_component(g, (1, 3), (2, 3)) == t
    d = ExactMatrix([[3, 0, 0], [0, 7, 0], [0, 0, Fraction(1, 21)]])
    ok &= adjoint_component(d, (2, 3), (2, 3)) == d[2, 2] / d[3, 3]

    rng = random.Random(77)
    instances = 0
    for _ in range(20):
        u = ExactMatrix.from_entries(
            3,
            {(i, j): rng.randint(-9, 9) for i, j in ((1, 2), (1, 3), (2, 3))},
        )
        d1 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        d2 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        d3 = 1 / (d1 * d2)
        d = ExactMatrix([[d1, 0, 0], [0, d2, 0], [0, 0, d3]])
        slope = d3 / d1
        for t in (0, 1, 3, 8):
            y = ExactMatrix.from_entries(3, {(3, 2): t})
            comp = adjoint_component(u @ d @ y, (2, 1), (3, 1))
            ok &= comp == slope * t
        instances += 1
    _verdict(7, ok, f"3 tagged examples, {instances} seeded slope instances, exact")
