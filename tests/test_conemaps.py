import math
import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstructor import (
    BadSimplex,
    BadVertex,
    ConeMap,
    ConePoint,
    ExactMatrix,
    adjoint_component,
    d_stat,
    default_radii,
    distance,
    divergence_suite,
    divergence_test,
    exp_nilpotent,
    fibration_compose,
    heisenberg_map,
    properness_test,
    size,
    split_growth_experiment,
    split_map,
    split_residual,
    superimpose_map,
)
from obstructor import conemaps
from obstructor.conemaps import (
    GROWTH_FACTOR,
    WEIGHT_TOTAL,
    SuiteReport,
    _bounded_growth,
    _combo_bounds,
    _grew,
    _log_stat,
    _pair_stat,
    _pair_verdict,
    _ray_bounds,
    _sampled_rays,
    _simplices_sorted,
    sample_weight_vectors,
)
from obstructor.exact import int_adjugate, int_det

ORACLE_RADII = (1, 16, 2 ** 20)


def test_heisenberg_basics():
    h = heisenberg_map(3)
    assert h(ConePoint((), (), 7)) == ExactMatrix.identity(3)
    p = ConePoint((((1, 2), 1),), (1,), 5)
    assert h(p) == ExactMatrix.from_entries(3, {(1, 2): 5})
    q = ConePoint.barycenter([((1, 2), 1), ((1, 3), -1)], 4)
    assert h(q) == ExactMatrix.from_entries(3, {(1, 2): 2, (1, 3): -2})
    with pytest.raises(BadVertex):
        h(ConePoint((((2, 1), 1),), (1,), 1))
    with pytest.raises(BadVertex):
        h(ConePoint((((1, 1), 1),), (1,), 1))


def test_heisenberg_symbolic_difference_grows():
    # A on <12+> and B on <12-,13+>: the relative difference has entry
    # -t(1 + w) in the (1,2) slot, exactly
    h = heisenberg_map(3)
    w = Fraction(1, 3)
    for t in (Fraction(2), Fraction(64), Fraction(2 ** 20)):
        a = h(ConePoint((((1, 2), 1),), (1,), t))
        b = h(ConePoint((((1, 2), -1), ((1, 3), 1)), (w, 1 - w), t))
        diff = a.inverse() @ b
        assert diff[1, 2] == -t * (1 + w)
        assert diff[1, 3] == t * (1 - w)


def test_split_map_displayed_product_and_regressions():
    m = split_map(3)
    x, y = Fraction(3), Fraction(11)
    tot = x + y
    p = ConePoint((((2, 3), 1), ((3, 1), 1)), (x / tot, y / tot), tot)
    assert m(p) == ExactMatrix([[1, 0, 0], [x * y, 1, x], [y, 0, 1]])


def test_split_map_rejects_cycles_and_repeats():
    m = split_map(3)
    with pytest.raises(BadSimplex):
        m(ConePoint((((1, 2), 1), ((2, 1), 1)), (Fraction(1, 2), Fraction(1, 2)), 1))
    with pytest.raises(BadSimplex):
        m(ConePoint((((1, 2), 1), ((1, 2), -1)), (Fraction(1, 2), Fraction(1, 2)), 1))
    with pytest.raises(BadVertex):
        m(ConePoint((((0, 2), 1),), (1,), 1))


def test_split_image_has_determinant_one():
    m = split_map(4)
    rng = random.Random(5)
    sims = sorted(m.domain.simplices(), key=repr)
    for s in rng.sample(sims, 25):
        s = tuple(sorted(s))
        k = len(s)
        w = [Fraction(1, k)] * k
        rows, den = m(ConePoint(s, w, rng.randint(1, 50))).scaled_int()
        assert int_det(rows) == den ** 4


# heisenberg and split build each ray from their polynomial hook;
# superimpose has none and goes through the exact fallback
SCALED_MAPS = [heisenberg_map(3), heisenberg_map(4), split_map(3), split_map(4), superimpose_map(3)]


def _assert_scaled_matches_exact(cm, simplex, weights, radii):
    images = cm.scaled(simplex, weights, WEIGHT_TOTAL, radii)
    assert len(images) == len(radii)
    ws = [Fraction(a, WEIGHT_TOTAL) for a in weights]
    for (rows, den), t in zip(images, radii):
        exact = cm(ConePoint(simplex, ws, t))
        assert ExactMatrix([[Fraction(v, den) for v in row] for row in rows]) == exact


def test_scaled_path_matches_exact_path():
    # every domain simplex at n = 3 and a sample at n = 4
    for cm in SCALED_MAPS:
        sims = sorted(cm.domain.simplices(), key=repr)
        if cm.size > 3:
            sims = random.Random(11).sample(sims, 20)
        for k, s in enumerate(sims):
            s = tuple(sorted(s))
            for ws in sample_weight_vectors(len(s), 2, k):
                _assert_scaled_matches_exact(cm, s, ws, ORACLE_RADII)
    # no domain simplex of split_map has a t^2 term in its image, and scaled
    # drops that all-zero term; <23+,31+> has one, which must be kept
    for n in (3, 4):
        off_domain = (((2, 3), 1), ((3, 1), 1))
        coeffs, _ = split_map(n)._scaled(off_domain, (20, 40), WEIGHT_TOTAL)
        assert any(chain.from_iterable(coeffs[2]))
        _assert_scaled_matches_exact(split_map(n), off_domain, (20, 40), ORACLE_RADII)


@st.composite
def _interior_points(draw):
    cm = draw(st.sampled_from(SCALED_MAPS))
    n = cm.size
    # any set of arrows of a total order is acyclic, so a valid split
    # simplex, in or out of the domain; heisenberg needs the natural order
    order = range(1, n + 1)
    if not cm.name.startswith("heisenberg"):
        order = draw(st.permutations(order))
    arrows = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
    positions = draw(st.lists(st.sampled_from(arrows), min_size=1, unique=True))
    s = tuple(sorted((p, draw(st.sampled_from((1, -1)))) for p in positions))
    # an interior composition of WEIGHT_TOTAL: every part at least 1
    cuts = draw(st.lists(st.integers(1, WEIGHT_TOTAL - 1), min_size=len(s) - 1,
                         max_size=len(s) - 1, unique=True))
    bounds = [0, *sorted(cuts), WEIGHT_TOTAL]
    weights = [b - a for a, b in zip(bounds, bounds[1:])]
    radii = draw(st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=4))
    return cm, s, weights, radii


@settings(max_examples=60, deadline=None)
@given(_interior_points())
def test_scaled_matches_exact_path_at_random_points(point):
    _assert_scaled_matches_exact(*point)


def test_scaled_validates_the_simplex():
    h, m = heisenberg_map(3), split_map(3)
    with pytest.raises(BadVertex):
        h.scaled((((2, 1), 1),), (WEIGHT_TOTAL,), WEIGHT_TOTAL, (1,))
    with pytest.raises(BadSimplex):
        m.scaled((((1, 2), 1), ((2, 1), 1)), (30, 30), WEIGHT_TOTAL, (1,))
    for cm in (h, m):
        with pytest.raises(BadSimplex):
            cm.scaled((((1, 2), 1), ((1, 2), -1)), (30, 30), WEIGHT_TOTAL, (1,))


def test_sample_weight_vectors_is_memoized_and_still_refuses():
    first = sample_weight_vectors(4, 8, 2)
    assert isinstance(first, tuple) and all(isinstance(w, tuple) for w in first)
    assert sample_weight_vectors(4, 8, 2) == first
    assert len(first) == 8 and all(sum(w) == WEIGHT_TOTAL and min(w) >= 1 for w in first)
    for _ in range(2):
        with pytest.raises(ValueError, match="samples"):
            sample_weight_vectors(4, 0, 2)


def _failed_simplices(report):
    return [{k: v for k, v in f.items() if k != "growth"} for f in report.failures]


@pytest.mark.parametrize("builder", [heisenberg_map, split_map])
@pytest.mark.parametrize("factor", [GROWTH_FACTOR, 10 ** 7])
def test_hook_path_matches_generic_path(builder, factor):
    # the same map without its hook goes through exact Fraction images; the
    # dens differ, so the logs may differ in the last digits but no verdict may
    cm = builder(3)
    generic = ConeMap(cm.name, cm.domain, cm.size, cm.__call__)
    for run in (
        lambda m: properness_test(m, growth_factor=factor),
        lambda m: divergence_suite(m, pairing="aligned", growth_factor=factor),
    ):
        fast, slow = run(cm), run(generic)
        assert (fast.total, fast.passed, fast.failed) == (slow.total, slow.passed, slow.failed)
        assert _failed_simplices(fast) == _failed_simplices(slow)
        assert abs(fast.min_growth - slow.min_growth) < 1e-9


def test_size_and_distance():
    assert size(ExactMatrix.identity(4)) == 0.0
    assert abs(size(ExactMatrix([[2, 0], [0, Fraction(1, 2)]])) - math.log(2)) < 1e-12
    a = ExactMatrix([[1, 5], [0, 1]])
    b = ExactMatrix([[1, 0], [7, 1]])
    g = ExactMatrix([[3, 1], [2, 1]])
    assert d_stat(a.inverse() @ b) == d_stat(b.inverse() @ a)
    assert d_stat((g @ a).inverse() @ (g @ b)) == d_stat(a.inverse() @ b)
    assert distance(a, b) == distance(b, a)


def test_bounded_pair_has_zero_distance_growth():
    for r in (10, 10 ** 3, 10 ** 9):
        a = ExactMatrix([[1, r, 1], [0, 1, 1], [0, 0, 1]])
        b = ExactMatrix([[1, 0, -r], [0, 1, 0], [0, 1, 1]])
        assert a.inverse() @ b == ExactMatrix([[1, -1, -1], [0, 0, -1], [0, 1, 1]])
        assert size(a.inverse() @ b) == 0.0


def test_divergence_test_basic():
    h = heisenberg_map(3)
    rep = divergence_test(h, (((1, 2), 1),), (((1, 2), -1),), radii=(1, 2, 4, 2 ** 20))
    assert rep.status == "PASS"
    assert len(rep.d_curve) == 4
    assert rep.d_curve[-1] > rep.d_curve[0]
    rep = divergence_test(h, (((1, 2), 1),), (((1, 2), 1),))
    assert rep.status == "INADMISSIBLE"
    rep = divergence_test(h, (((1, 2), 1),), (((1, 2), 1), ((1, 3), 1)))
    assert rep.status == "INADMISSIBLE"


def test_superimpose_counterexample_and_split_fix():
    # under the naive single-matrix map the cones on <12+,23+,13+> and
    # <13-,32+> contain sequences that stay a bounded distance apart; the
    # witnessing sequences drift their weights toward a vertex, so the
    # boundedness is checked exactly rather than on fixed-weight rays.
    # <13-,32+> is not a simplex of the map's domain, so this is no false
    # PASS of divergence_suite on that domain
    naive = superimpose_map(3)
    splitm = split_map(3)
    sigma = (((1, 2), 1), ((1, 3), 1), ((2, 3), 1))
    tau = (((1, 3), -1), ((3, 2), 1))
    assert not naive.domain.has_simplex(frozenset(tau))
    for r in (Fraction(10), Fraction(10 ** 4), Fraction(10 ** 8)):
        pa = ConePoint(sigma, (r / (r + 2), 1 / (r + 2), 1 / (r + 2)), r + 2)
        pb = ConePoint(tau, (r / (r + 1), 1 / (r + 1)), r + 1)
        a, b = naive(pa), naive(pb)
        assert a == ExactMatrix([[1, r, 1], [0, 1, 1], [0, 0, 1]])
        assert b == ExactMatrix([[1, 0, -r], [0, 1, 0], [0, 1, 1]])
        assert d_stat(a.inverse() @ b) == 1  # distance 0, independent of r
        # the split map sends the same cone points far apart
        b_split = splitm(pb)
        assert b_split == ExactMatrix([[1, -r, -r], [0, 1, 0], [0, 1, 1]])
        assert splitm(pa) == a
        assert (a.inverse() @ b_split)[1, 2] == -r - 1
        assert d_stat(a.inverse() @ b_split) >= r
    # on fixed-weight interior rays the split map certifies divergence
    rep = divergence_test(splitm, sigma, tau)
    assert rep.status == "PASS"


def test_properness_constant_map_fails():
    dom = heisenberg_map(2).domain
    const = ConeMap("const", dom, 2, lambda p: ExactMatrix.identity(2))
    rep = properness_test(const, radii=(1, 2, 4), samples=2)
    assert rep.failed == rep.total > 0


def test_properness_flags_rays_that_dip():
    # |t - 16| falls from 15 to 0 before it grows: non-monotone, yet the ray
    # grows by far more than the growth factor from the first radius to the last
    dom = heisenberg_map(2).domain
    dip = ConeMap("dip", dom, 2, lambda p: ExactMatrix.from_entries(2, {(1, 2): p.t - 16}))
    rep = properness_test(dip, radii=(1, 16, 2 ** 20), samples=1)
    assert rep.failed == rep.total == 2
    assert [f["monotone"] for f in rep.failures] == [False, False]
    assert rep.min_growth > math.log(GROWTH_FACTOR)


def test_default_radii():
    r = default_radii()
    assert r[0] == 1 and r[-1] == 2 ** 20 and len(r) == 21


def test_fibration_recovers_heisenberg():
    # center coordinate (1,3) fibered over the abelianization ((1,2),(2,3))
    center = heisenberg_map(3)
    q_dom_positions = [((1, 2), s) for s in (1, -1)] + [((2, 3), s) for s in (1, -1)]

    from obstructor.complexes import SimplicialComplex
    from itertools import product as iproduct

    q_facets = [
        frozenset({((1, 2), s1), ((2, 3), s2)}) for s1, s2 in iproduct((1, -1), repeat=2)
    ]
    q_dom = SimplicialComplex.from_facets(q_facets)

    def q_eval(p):
        entries = {pos: s * w * p.t for (pos, s), w in zip(p.simplex, p.weights)}
        return ExactMatrix.from_entries(3, entries)

    beta = ConeMap("quotient", q_dom, 3, q_eval)

    center_dom = SimplicialComplex.from_facets([{(((1, 3), 1))}, {((1, 3), -1)}])

    def c_eval(p):
        entries = {pos: s * w * p.t for (pos, s), w in zip(p.simplex, p.weights)}
        return ExactMatrix.from_entries(3, entries)

    alpha = ConeMap("center", center_dom, 3, c_eval)
    f = fibration_compose(alpha, beta, section=lambda g: g, embed=lambda g: g)

    # (x, y) -> alpha(x) . beta(y) superimposes the three positions exactly
    pt = ConePoint(
        ((0, ((1, 3), 1)), (1, ((1, 2), 1)), (1, ((2, 3), -1))),
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        8,
    )
    img = f(pt)
    expect = heisenberg_map(3)(
        ConePoint(
            (((1, 2), 1), ((1, 3), 1), ((2, 3), -1)),
            (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
            8,
        )
    )
    assert img == expect

    rep = divergence_suite(f, pairing="aligned", samples=2)
    assert rep.all_passed


def test_fibration_trivial_factors():
    h = heisenberg_map(2)
    from obstructor.complexes import SimplicialComplex

    trivial_dom = SimplicialComplex.from_facets([{"o"}])
    trivial = ConeMap("trivial", trivial_dom, 2, lambda p: ExactMatrix.identity(2))
    f = fibration_compose(h, trivial, section=lambda g: g, embed=lambda g: g)
    p = ConePoint(((0, ((1, 2), 1)),), (1,), 5)
    assert f(p) == ExactMatrix.from_entries(2, {(1, 2): 5})
    g = fibration_compose(trivial, h, section=lambda g: g, embed=lambda g: g)
    p = ConePoint(((1, ((1, 2), 1)),), (1,), 5)
    assert g(p) == ExactMatrix.from_entries(2, {(1, 2): 5})


def test_split_residual_trivial_cases():
    n = 3
    u = ExactMatrix.from_entries(n, {(1, 2): 4, (2, 3): -1})
    i = ExactMatrix.identity(n)
    assert split_residual(u, i, u, i) == i
    m = 10 ** 4
    lam = ExactMatrix.from_entries(2, {(2, 1): m})
    s = split_residual(ExactMatrix.identity(2), lam, ExactMatrix.identity(2), ExactMatrix.identity(2))
    assert s.max_abs() == m


def test_growth_experiment_is_integral_and_seeded():
    r1 = split_growth_experiment(3, 100, 10, seed=3)
    r2 = split_growth_experiment(3, 100, 10, seed=3)
    assert r1.min_max_entry == r2.min_max_entry
    assert r1.min_max_entry >= 1


def test_adjoint_component_examples():
    g = ExactMatrix.identity(3)
    assert adjoint_component(g, (1, 3), (1, 3)) == 1
    assert adjoint_component(g, (1, 3), (2, 3)) == 0
    t = Fraction(7, 2)
    g = exp_nilpotent(ExactMatrix.from_entries(3, {(2, 1): t}, diagonal=0))
    assert adjoint_component(g, (1, 3), (2, 3)) == t
    d = ExactMatrix([[2, 0, 0], [0, 5, 0], [0, 0, Fraction(1, 10)]])
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert adjoint_component(d, (i, j), (i, j)) == d[i, i] / d[j, j]


def test_adjoint_vanishing_outside_generated_cone():
    # on unitriangular g, the component can be nonzero only when the
    # (target - source) coordinate difference is a nonnegative combination
    # of the position differences supporting log g
    def in_cone(delta, gens, bound=4):
        if all(x == 0 for x in delta):
            return True
        from itertools import product as iproduct

        for coeffs in iproduct(range(bound + 1), repeat=len(gens)):
            s = [0] * len(delta)
            for c, gvec in zip(coeffs, gens):
                for k in range(len(delta)):
                    s[k] += c * gvec[k]
            if tuple(s) == tuple(delta):
                return True
        return False

    def posvec(i, j, n):
        v = [0] * n
        v[i - 1] += 1
        v[j - 1] -= 1
        return tuple(v)

    rng = random.Random(9)
    n = 4
    for _ in range(10):
        support = rng.sample([(1, 2), (2, 3), (3, 4), (1, 3)], 2)
        entries = {pos: rng.randint(1, 5) for pos in support}
        g = ExactMatrix.from_entries(n, entries)
        gens = [posvec(i, j, n) for i, j in support]
        for src in ((1, 2), (2, 1), (4, 1), (1, 4), (3, 2)):
            for tgt in ((1, 2), (1, 4), (4, 1), (2, 4), (3, 1)):
                comp = adjoint_component(g, src, tgt)
                if comp != 0:
                    delta = tuple(
                        a - b for a, b in zip(posvec(*tgt, n), posvec(*src, n))
                    )
                    assert in_cone(delta, gens), (support, src, tgt, comp)


def test_lhs_component_linear_in_t():
    # g = u d exp(t E32) acting on E21 reads off t * (d3/d1) in the E31 slot
    rng = random.Random(13)
    for _ in range(20):
        u = ExactMatrix.from_entries(
            3,
            {
                (1, 2): rng.randint(-5, 5),
                (1, 3): rng.randint(-5, 5),
                (2, 3): rng.randint(-5, 5),
            },
        )
        d1, d2 = Fraction(rng.randint(1, 6)), Fraction(rng.randint(1, 6))
        d3 = 1 / (d1 * d2)
        d = ExactMatrix([[d1, 0, 0], [0, d2, 0], [0, 0, d3]])
        slope = d3 / d1
        vals = []
        for t in (0, 1, 2, 5):
            y = ExactMatrix.from_entries(3, {(3, 2): t})
            g = u @ d @ y
            vals.append(adjoint_component(g, (2, 1), (3, 1)))
        assert vals[0] == 0
        assert all(vals[k] == slope * t for k, t in zip(range(4), (0, 1, 2, 5)))


def test_exp_nilpotent():
    x = ExactMatrix.from_entries(3, {(1, 2): 2, (2, 3): 3}, diagonal=0)
    e = exp_nilpotent(x)
    assert e == ExactMatrix([[1, 2, 3], [0, 1, 3], [0, 0, 1]])
    with pytest.raises(ValueError):
        exp_nilpotent(ExactMatrix.identity(2))


def test_size_equals_size_of_inverse():
    g = ExactMatrix([[2, 3], [1, 2]])
    assert size(g) == size(g.inverse())
    assert d_stat(g) == d_stat(g.inverse())


def test_cross_and_aligned_suites_agree_on_verdicts():
    cm = heisenberg_map(3)
    cross = divergence_suite(cm, pairing="cross")
    aligned = divergence_suite(cm, pairing="aligned")
    assert cross.total == aligned.total
    assert cross.failed == aligned.failed == 0


def test_images_without_determinant_one_are_refused():
    # determinant 1 + t: both simplices go to the same matrix, so the exact
    # statistic d_stat(A^-1 B) is 1 at every radius
    dom = heisenberg_map(2).domain
    stretch = ConeMap("stretch", dom, 2, lambda p: ExactMatrix([[1 + p.t, 0], [0, 1]]))
    sigma, tau = (((1, 2), 1),), (((1, 2), -1),)
    for t in (1, 2 ** 20):
        a = stretch(ConePoint(sigma, (1,), t))
        b = stretch(ConePoint(tau, (1,), t))
        assert d_stat(a.inverse() @ b) == 1
    with pytest.raises(ValueError, match="determinant 1"):
        divergence_test(stretch, sigma, tau)
    with pytest.raises(ValueError, match="determinant 1"):
        divergence_suite(stretch)
    with pytest.raises(ValueError, match="determinant 1"):
        properness_test(stretch)


@pytest.mark.parametrize("samples", [0, -1])
def test_fewer_than_one_sample_is_refused(samples):
    h = heisenberg_map(3)
    with pytest.raises(ValueError, match="samples"):
        sample_weight_vectors(2, samples)
    with pytest.raises(ValueError, match="samples"):
        divergence_suite(h, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        properness_test(h, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        divergence_test(h, (((1, 2), 1),), (((1, 2), -1),), samples=samples)


def test_unknown_pairing_is_refused():
    with pytest.raises(ValueError, match="pairing"):
        divergence_suite(heisenberg_map(3), pairing="alinged")


# the integer-bound prefilter of divergence_suite


def _all_exact_suite(cm, prep, pairing, growth_factor, ends=(1, 2 ** 20)):
    """divergence_suite with rows, deciding every disjoint pair by _pair_verdict."""
    combos = [(i, i) for i in range(8)] if pairing == "aligned" else list(product(range(8), repeat=2))
    report = SuiteReport(cm.name, "divergence", sampling=pairing)
    for (sigma, rays_a), (tau, rays_b) in combinations(prep, 2):
        if set(sigma) & set(tau):
            continue
        ok, growth, d_first, d_last = _pair_verdict(rays_a, rays_b, combos, growth_factor)
        report.record(ok, growth, {"sigma": repr(sigma), "tau": repr(tau), "growth": round(growth, 4)})
        report.rows.append({
            "sigma": repr(sigma), "tau": repr(tau), "radii": list(ends),
            "d": [round(d_first, 4), round(d_last, 4)], "growth": round(growth, 4),
            "verdict": "PASS" if ok else "FAIL",
        })
    return report


def _fingerprint(report):
    out = report.to_json()
    del out["elapsed_s"]
    out.pop("rows", None)
    return out, repr(report.min_growth)


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map])
@pytest.mark.parametrize("pairing", ["aligned", "cross"])
@pytest.mark.parametrize("seed", [0, 3])
def test_bound_prefilter_matches_all_exact_suite(builder, pairing, seed, monkeypatch):
    cm = builder(3)
    exact_pairs = []

    def counted(*args):
        exact_pairs.append(1)
        return _pair_verdict(*args)

    monkeypatch.setattr(conemaps, "_pair_verdict", counted)
    prep = [(s, _sampled_rays(cm, s, 8, seed, (1, 2 ** 20))) for s in _simplices_sorted(cm.domain)]
    for factor in (GROWTH_FACTOR, 10 ** 7, 10 ** 13):
        reference = _all_exact_suite(cm, prep, pairing, factor)
        exact_pairs.clear()
        filtered = divergence_suite(cm, seed=seed, pairing=pairing, growth_factor=factor)
        assert _fingerprint(filtered) == _fingerprint(reference)
        if factor == GROWTH_FACTOR and builder is not superimpose_map:
            # the bounds decide pairs; superimpose's dens differ between rays
            assert len(exact_pairs) < filtered.total
        with_rows = divergence_suite(cm, seed=seed, pairing=pairing, growth_factor=factor,
                                     collect_rows=True)
        assert _fingerprint(with_rows) == _fingerprint(reference)
        assert with_rows.rows == reference.rows


def test_bound_prefilter_leaves_the_first_pair_exact():
    # heisenberg_map(2) has one disjoint pair; from radius 2 on, the bound on
    # its first statistic is twice the exact one, so a growth taken from the
    # bounds would be too low by log 2
    cm, ends = heisenberg_map(2), (2, 2 ** 20)
    prep = [(s, _sampled_rays(cm, s, 8, 0, ends)) for s in _simplices_sorted(cm.domain)]
    reference = _all_exact_suite(cm, prep, "aligned", GROWTH_FACTOR, ends)
    assert reference.total == 1
    filtered = divergence_suite(cm, radii=ends, pairing="aligned")
    assert _fingerprint(filtered) == _fingerprint(reference)


def _prep_of(m, den):
    # the _prep tuple without its determinant check: the bounds do not need det 1
    return m, tuple(zip(*m)), int_adjugate(m), den


@st.composite
def _ray_pairs(draw):
    n = draw(st.integers(2, 4))
    entries = st.integers(-(10 ** 6), 10 ** 6)
    matrix = st.tuples(*[st.tuples(*[entries] * n)] * n)
    dens = [draw(st.integers(1, 3600)) for _ in range(2)]
    # the last radius scales both images by a common factor, so that some
    # pairs pass the growth factor on the bounds alone
    scale = draw(st.sampled_from((1, 2 ** 10, 2 ** 40)))
    rays = []
    for _ in range(2):
        first, last = draw(matrix), draw(matrix)
        last = tuple(tuple(scale * x for x in row) for row in last)
        rays.append([_prep_of(first, dens[0]), _prep_of(last, dens[1])])
        # now and then the second ray gets dens of its own
        if draw(st.integers(0, 3)) == 0:
            dens = [draw(st.integers(1, 3600)) for _ in range(2)]
    return rays


@settings(max_examples=200, deadline=None)
@given(_ray_pairs(), st.sampled_from((1, 2, GROWTH_FACTOR)))
def test_combo_bounds_enclose_the_exact_statistics(rays, factor):
    ray_a, ray_b = rays
    bounds_a, bounds_b = _ray_bounds(ray_a), _ray_bounds(ray_b)
    growth = _bounded_growth([bounds_a], [bounds_b], [(0, 0)], factor)
    if (ray_a[0][3], ray_a[-1][3]) != (ray_b[0][3], ray_b[-1][3]):
        assert growth is None  # the bounds hold for equal dens only
        return
    upper, lower = _combo_bounds(bounds_a, bounds_b)
    first = _pair_stat(ray_a[0], ray_b[0])
    last = _pair_stat(ray_a[-1], ray_b[-1])
    n = len(ray_a[0][0])
    assert first[1] == ray_a[0][3] ** n and last[1] == ray_a[-1][3] ** n
    assert upper >= first[0]
    assert lower <= last[0]
    if growth is not None:
        assert _grew(first, last, factor)
        assert growth <= _log_stat(last) - _log_stat(first) + 1e-9


# oracle: the integer statistics against d_stat on the exact Fraction images


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _exact_ray(cm, simplex, weights):
    ws = [Fraction(a, WEIGHT_TOTAL) for a in weights]
    return [cm(ConePoint(simplex, ws, t)) for t in ORACLE_RADII]


def _disjoint_pairs(cm, count, rng):
    sims = sorted((tuple(sorted(s)) for s in cm.domain.simplices()), key=repr)
    pairs = [(a, b) for a in sims for b in sims if a < b and not set(a) & set(b)]
    return rng.sample(pairs, count)


def _factors(ratios):
    # the default factor, and the two integers around the smallest growth
    # ratio: all rays pass the lower one and at least one fails the upper
    low = math.floor(min(ratios))
    return (GROWTH_FACTOR, low, low + 1)


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map])
def test_divergence_test_matches_fraction_oracle(builder):
    cm = builder(3)
    rng = random.Random(f"oracle|{builder.__name__}")
    for k, (sigma, tau) in enumerate(_disjoint_pairs(cm, 6, rng)):
        rays_a = [_exact_ray(cm, sigma, w) for w in sample_weight_vectors(len(sigma), 3, k)]
        rays_b = [_exact_ray(cm, tau, w) for w in sample_weight_vectors(len(tau), 3, k + 1)]
        stats = [[d_stat(a.inverse() @ b) for a, b in zip(ra, rb)] for ra in rays_a for rb in rays_b]
        ratios = [st[-1] / st[0] for st in stats]
        verdicts = []
        for factor in _factors(ratios):
            rep = divergence_test(cm, sigma, tau, radii=ORACLE_RADII, samples=3, seed=k,
                                  growth_factor=factor)
            verdicts.append(rep.status)
            assert rep.status == ("PASS" if min(ratios) >= factor else "FAIL")
            for r, d in enumerate(rep.d_curve):
                assert abs(d - min(_log(st[r]) for st in stats)) < 1e-9
            assert abs(rep.growth - min(_log(st[-1]) - _log(st[0]) for st in stats)) < 1e-9
        assert verdicts[1:] == ["PASS", "FAIL"]


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map])
def test_properness_test_matches_fraction_oracle(builder):
    cm = builder(3)
    for seed in (0, 5):
        rays = []
        for s in cm.domain.simplices():
            s = tuple(sorted(s))
            for w in sample_weight_vectors(len(s), 3, seed):
                st = [d_stat(g) for g in _exact_ray(cm, s, w)]
                rays.append((all(x <= y for x, y in zip(st, st[1:])), st[-1] / st[0]))
        min_growth = min(_log(ratio) for _, ratio in rays)
        for factor in _factors([ratio for _, ratio in rays]):
            rep = properness_test(cm, radii=ORACLE_RADII, samples=3, seed=seed, growth_factor=factor)
            passed = sum(monotone and ratio >= factor for monotone, ratio in rays)
            assert (rep.total, rep.passed) == (len(rays), passed)
            assert abs(rep.min_growth - min_growth) < 1e-9
        assert 0 < rep.failed
