import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, combinations, product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obstructor import (
    BadSimplex,
    BadVertex,
    ConeMap,
    ConePoint,
    DimensionMismatch,
    ExactMatrix,
    adjoint_component,
    d_stat,
    default_radii,
    distance,
    divergence_suite,
    divergence_test,
    fibration_compose,
    heisenberg_map,
    obstructor_subcomplex,
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
    heisenberg_domain,
    _bounded_pass,
    _conjugates,
    _divergence_prep,
    _grew,
    _linear_terms,
    _log_stat,
    _pair_stat,
    _pair_verdict,
    _prep,
    _ray_bounds,
    _ray_stat,
    _ray_stats,
    _sampled_rays,
    _sign_patterns,
    _simplices_sorted,
    _threshold,
    sample_weight_vectors,
)
from obstructor.exact import int_adjugate, int_det_adjugate

ORACLE_RADII = (1, 16, 2 ** 20)


def test_heisenberg_basics():
    h = heisenberg_map(3)
    assert h(ConePoint((), (), 7)) == ExactMatrix.identity(3)
    p = ConePoint((((1, 2), 1),), (1,), 5)
    assert h(p) == ExactMatrix.from_entries(3, {(1, 2): 5})
    q = ConePoint((((1, 2), 1), ((1, 3), -1)), (Fraction(1, 2), Fraction(1, 2)), 4)
    assert h(q) == ExactMatrix.from_entries(3, {(1, 2): 2, (1, 3): -2})
    with pytest.raises(BadVertex):
        h(ConePoint((((2, 1), 1),), (1,), 1))
    with pytest.raises(BadVertex):
        h(ConePoint((((1, 1), 1),), (1,), 1))


def test_heisenberg_domain_is_every_sign_choice_on_the_positions():
    for n in range(2, 5):
        positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        facets = {frozenset(zip(positions, signs)) for signs in product((1, -1), repeat=len(positions))}
        x = heisenberg_domain(n)
        assert set(x.facets) == facets and len(x.facets) == len(facets)
        assert sorted(x.vertices) == sorted((p, s) for p in positions for s in (1, -1))


def test_maps_refuse_n_below_2():
    for builder in (heisenberg_map, split_map, superimpose_map):
        for n in (1, 0, -1):
            with pytest.raises(ValueError, match="need n >= 2"):
                builder(n)


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
        assert int_det_adjugate(rows)[0] == den ** 4


# heisenberg, split and superimpose build each ray from their image hook
SCALED_MAPS = [heisenberg_map(3), heisenberg_map(4), split_map(3), split_map(4), superimpose_map(3)]


def _assert_scaled_matches_exact(cm, simplex, weights, radii):
    images, = cm.scaled(simplex, [weights], radii)
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
    # no domain simplex of split_map has a degree-2 term in its image;
    # <23+,31+> has one, which must be kept
    for n in (3, 4):
        off_domain = (((2, 3), 1), ((3, 1), 1))
        terms, _ = split_map(n)._image(off_domain)
        assert any(sum(e) == 2 and any(c.values()) for e, c in terms.items())
        _assert_scaled_matches_exact(split_map(n), off_domain, (20, 40), ORACLE_RADII)


def _draw_ray(draw, cm):
    """A simplex of `cm`'s vertices, in or out of its domain, and interior weights."""
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
    return s, weights


@st.composite
def _interior_points(draw):
    cm = draw(st.sampled_from(SCALED_MAPS))
    s, weights = _draw_ray(draw, cm)
    radii = draw(st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=4))
    return cm, s, weights, radii


@settings(max_examples=60, deadline=None)
@given(_interior_points())
def test_scaled_matches_exact_path_at_random_points(point):
    _assert_scaled_matches_exact(*point)


# properness reads each hook ray's statistics from its polynomial

HOOK_MAPS = {(b.__name__, n): b(n) for b in (heisenberg_map, split_map, superimpose_map) for n in (2, 3, 4)}
OFF_DOMAIN = (((2, 3), 1), ((3, 1), 1))  # split's image has a t^2 term here


@st.composite
def _hook_rays(draw):
    cm = draw(st.sampled_from(sorted(HOOK_MAPS.items())))[1]
    s, weights = _draw_ray(draw, cm)
    not_a_power_of_2 = draw(st.integers(3, 2 ** 30).filter(lambda r: r & (r - 1)))
    radii = [0, 1, not_a_power_of_2, 2 ** 20]
    radii += draw(st.lists(st.integers(0, 2 ** 40), max_size=4))
    return cm, s, weights, draw(st.permutations(radii))


@settings(max_examples=150, deadline=None)
@given(_hook_rays())
@example((HOOK_MAPS["split_map", 3], OFF_DOMAIN, (20, 40), (0, 1, 5, 2 ** 20)))
@example((HOOK_MAPS["split_map", 4], OFF_DOMAIN, (13, 47), (2 ** 20, 3, 1, 0)))
def test_ray_stats_from_the_polynomial_match_prep_at_every_radius(ray):
    cm, s, weights, radii = ray
    images, = cm.scaled(s, [weights], radii)
    expected = [_ray_stat(_prep(cm, s, m, den)) for m, den in images]
    assert _ray_stats(cm, s, weights, radii) == expected


def test_ray_stats_see_the_t2_term_off_the_domain():
    for n in (3, 4):
        cm = HOOK_MAPS["split_map", n]
        ys, _ = cm.polynomial(OFF_DOMAIN, (20, 40))
        assert len(ys) == 2 and any(chain.from_iterable(ys[1]))
        radii = (0, 1, 7, 2 ** 20)
        images, = cm.scaled(OFF_DOMAIN, [(20, 40)], radii)
        assert _ray_stats(cm, OFF_DOMAIN, (20, 40), radii) == [
            _ray_stat(_prep(cm, OFF_DOMAIN, m, den)) for m, den in images
        ]


def test_split_hook_leaves_out_a_t2_term_that_cancels():
    # 13+ and 14- meet 32+ and 42+ at the (1, 2) entry of N_U N_L, where
    # 15*15 - 15*15 = 0: the indices meet, yet the product is zero
    cm = split_map(4)
    s, w = (((1, 3), 1), ((1, 4), -1), ((3, 2), 1), ((4, 2), 1)), (15, 15, 15, 15)
    ys, den = cm.polynomial(s, w)
    assert len(ys) == 1 and den == WEIGHT_TOTAL ** 2
    _assert_scaled_matches_exact(cm, s, w, ORACLE_RADII)


def _hookless(cm):
    # the same map without its hook: each radius goes through the exact Fraction image
    return ConeMap(cm.name, cm.domain, cm.size, cm.__call__)


def hookless_superimpose(n):
    # every shipped map but fibration_compose has a hook; this copy keeps the
    # suites' path for maps without one under test
    return _hookless(superimpose_map(n))


def _hooked(hook):
    # a map on heisenberg(2)'s domain whose rays go through `hook` alone
    return ConeMap("hooked", heisenberg_domain(2), 2, lambda p: ExactMatrix.identity(2), hook)


@pytest.mark.parametrize("hook", [
    # Y = x diag(1, -1), not nilpotent
    lambda s: ({(1,): {(1, 1): 1, (2, 2): -1}}, 1),
    # Y = x (0, 1; 1, 0) + x^2 (1, 0; 0, 0): det 1 at every x, yet Y(x)
    # has trace x^2, so the image is not unipotent
    lambda s: ({(1,): {(1, 2): 1, (2, 1): 1}, (2,): {(1, 1): 1}}, 2),
    # coefficients that are not ints would give statistics that are not ints
    lambda s: ({(1,): {(1, 2): 0.5}}, 1),
    lambda s: ({(1,): {(1, 2): Fraction(1, 3)}}, 1),
    lambda s: ({(1,): {(1, 2): True}}, 1),
    # an exponent, or a declared degree, that is not a nonnegative int
    lambda s: ({(True,): {(1, 2): 1}}, 1),
    lambda s: ({(1,): {(1, 2): 1}}, 1.0),
    lambda s: ({}, -1),
])
def test_hooks_outside_the_contract_are_refused(hook):
    # ConeMap enforces the contract for every reader; the determinant
    # checks alone pass the second hook
    with pytest.raises(ValueError, match="determinant 1"):
        properness_test(_hooked(hook), radii=(1, 2 ** 20), samples=1)
    with pytest.raises(ValueError, match="determinant 1"):
        divergence_suite(_hooked(hook), samples=1)
    with pytest.raises(ValueError, match="determinant 1"):
        divergence_test(_hooked(hook), (((1, 2), 1),), (((1, 2), -1),), samples=1)


def test_a_negative_exponent_is_refused():
    # x_0^2 x_1^-1 has degree 1, yet it is no monomial of degree 1; taken as
    # x_0^2 it gave 900 t at w = (30, 30)
    hook = lambda s: ({(2, -1): {(1, 2): 1}} if len(s) == 2 else _linear_terms(s), 1)  # noqa: E731
    cm = ConeMap("hooked", heisenberg_domain(3), 3, lambda p: ExactMatrix.identity(3), hook)
    with pytest.raises(ValueError, match="determinant 1"):
        cm.image((((1, 2), 1), ((1, 3), 1)))
    with pytest.raises(ValueError, match="determinant 1"):
        properness_test(cm, radii=(1, 2 ** 20), samples=1)
    with pytest.raises(ValueError, match="determinant 1"):
        divergence_suite(cm, samples=1)


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map])
def test_image_lays_out_the_hooks_terms_once(builder):
    # (vertices with multiplicity, flat position, c), sorted, from the hook's
    # {exponents: {(i, j): c}}: the one layout that every reader takes
    cm = builder(3)
    for s in _simplices_sorted(cm.domain):
        terms, d = cm._image(s)
        expected = sorted((tuple(chain.from_iterable([v] * a for v, a in enumerate(e))), (i - 1) * 3 + j - 1, c)
                          for e, cs in terms.items() for (i, j), c in cs.items())
        assert cm.image(s)[:2] == (expected, d)


def test_a_unipotent_hook_is_accepted():
    # Y = x N with N nilpotent: the same image as heisenberg_map(2)'s
    hook = lambda s: ({(1,): {(1, 2): 1}}, 1)  # noqa: E731
    assert properness_test(_hooked(hook), radii=(1, 2 ** 20), samples=1).all_passed


def test_a_nilpotent_image_with_a_cyclic_support_is_accepted(monkeypatch):
    # Y = x (1, 1; -1, -1): its support holds loops and a 2-cycle, yet Y^2 = 0,
    # which each ray's substitution checks
    hook = lambda s: ({(1,): {(1, 1): 1, (1, 2): 1, (2, 1): -1, (2, 2): -1}}, 1)  # noqa: E731
    assert _hooked(hook).image((((1, 2), 1),))[2] is False
    checked = _counted(monkeypatch, "unipotent_adjugate")
    assert properness_test(_hooked(hook), radii=(1, 2 ** 20), samples=1).all_passed
    # one ray is computed, as both simplices have this image: the
    # substitution's check and the statistic's adjugate
    assert len(checked) == 2
    # both simplices go to one image, so the single pair cannot diverge
    assert divergence_suite(_hooked(hook), samples=1).total == 1


def test_an_old_format_hook_is_refused_by_both_suites():
    # a hook that still gives I as a term, now a constant one: I + (I + x N)
    # is not unipotent, and its determinant is 2^n
    hook = lambda s: ({(0,): {(1, 1): 1, (2, 2): 1}, (1,): {(1, 2): 1}}, 1)  # noqa: E731
    with pytest.raises(ValueError, match="determinant 1"):
        properness_test(_hooked(hook), radii=(1, 2 ** 20), samples=1)
    with pytest.raises(ValueError, match="determinant 1"):
        divergence_suite(_hooked(hook), samples=1)


# each suite reads and checks each simplex's image once


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map])
def test_each_suite_reads_each_simplex_image_once(builder, monkeypatch):
    cm = builder(3)
    simplices = _simplices_sorted(cm.domain)
    acyclic = _counted(monkeypatch, "is_acyclic")
    for suite in (properness_test, divergence_suite):
        expected = _fingerprint(suite(cm))
        calls = []
        counted = ConeMap(cm.name, cm.domain, cm.size, cm.__call__, lambda s: calls.append(s) or cm._image(s))
        acyclic.clear()
        assert _fingerprint(suite(counted)) == expected
        assert calls == simplices
        # the support's check, and split's own BadSimplex test: per simplex, not per ray
        assert len(acyclic) == (2 if builder is split_map else 1) * len(simplices)


@pytest.mark.parametrize("n", [3, 4])
def test_split_keeps_den_total_squared_on_its_domain(n):
    # N_U N_L is zero on L(n), yet the declared degree 2 keeps den = total^2
    cm = split_map(n)
    for s in _simplices_sorted(cm.domain):
        image = cm.image(s)
        for w in sample_weight_vectors(len(s), 8, 0):
            ys, den = cm.polynomial(s, w, image)
            assert den == WEIGHT_TOTAL ** 2 and len(ys) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_superimpose_and_split_images_have_equal_terms_on_the_domain(n):
    split, naive = split_map(n), superimpose_map(n)
    for s in _simplices_sorted(split.domain):
        (split_terms, d, _), (naive_terms, e, _) = split.image(s), naive.image(s)
        assert split_terms == naive_terms and (d, e) == (2, 1)


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map])
def test_negative_radii_are_refused_for_every_map(builder):
    cm = builder(3)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        properness_test(cm, radii=(-4, 1, 2 ** 20))
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        divergence_suite(cm, radii=(-1, 2 ** 20))
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        divergence_test(cm, (((1, 2), 1),), (((1, 2), -1),), radii=(-1, 2 ** 20))
    # an empty schedule has no first or last radius to compare
    with pytest.raises(ValueError, match="radius schedule is empty"):
        properness_test(cm, radii=())
    with pytest.raises(ValueError, match="radius schedule is empty"):
        divergence_suite(cm, radii=())
    with pytest.raises(ValueError, match="radius schedule is empty"):
        divergence_test(cm, (((1, 2), 1),), (((1, 2), -1),), radii=())


def test_scaled_validates_the_simplex():
    h, m = heisenberg_map(3), split_map(3)
    with pytest.raises(BadVertex):
        h.scaled((((2, 1), 1),), [(WEIGHT_TOTAL,)], (1,))
    with pytest.raises(BadSimplex):
        m.scaled((((1, 2), 1), ((2, 1), 1)), [(30, 30)], (1,))
    for cm in (h, m):
        with pytest.raises(BadSimplex):
            cm.scaled((((1, 2), 1), ((1, 2), -1)), [(30, 30)], (1,))


@pytest.mark.parametrize("build", [
    lambda: heisenberg_map(3), lambda: split_map(3), lambda: superimpose_map(3),
    # an image that reads no vertex, and checks none of them
    lambda: _hooked(lambda s: ({(1,) + (0,) * (len(s) - 1): {(1, 2): 1}}, 1)),
], ids=["heisenberg", "split", "superimpose", "hooked"])
def test_hook_paths_refuse_the_weights_the_exact_path_refuses(build):
    # the substitution zips the image's exponents with the weights: one
    # weight too few or too many would drop a vertex, or a weight, without a
    # word; and weights that are not a cone point's would give a ray that is
    # not one
    cm = build()
    simplex = (((1, 2), 1), ((1, 3), 1))
    for weights, message in (
        ((WEIGHT_TOTAL,), "weights must match the simplex vertices"),
        ((20, 20, 20), "weights must match the simplex vertices"),
        ((30, 20), "weights must sum to 1"),
        ((70, -10), "weights must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=message):
            cm.scaled(simplex, [weights], (1,))
        with pytest.raises(ValueError, match=message):
            cm.polynomial(simplex, weights)
        # as the exact path refuses the same cone point
        with pytest.raises(ValueError, match=message):
            _hookless(cm).scaled(simplex, [weights], (1,))


ORDER_DOMAINS = {
    **{f"heisenberg_domain({n})": heisenberg_domain(n) for n in (2, 3, 4)},
    **{f"obstructor_subcomplex({n})": obstructor_subcomplex(n) for n in (2, 3, 4)},
    "fibration(heisenberg(3),split(3))": fibration_compose(
        heisenberg_map(3), split_map(3), section=lambda g: g, embed=lambda g: g).domain,
}


@pytest.mark.parametrize("name", ORDER_DOMAINS)
def test_simplices_sorted_keeps_the_order_by_size_and_vertex_reprs(name):
    domain = ORDER_DOMAINS[name]
    # the order the suites report in: by size, then by the sorted reprs of
    # the vertices, read off the frozenset closure
    ordered = sorted(domain.simplices(), key=lambda s: (len(s), sorted(map(repr, s))))
    assert _simplices_sorted(domain) == [tuple(sorted(s)) for s in ordered]


# properness reuses a verdict between rays whose den is equal and whose
# coefficients are conjugate by a diagonal sign matrix

def _reference_properness(cm, radii, seed):
    """properness_test with one _ray_stats per ray and no reuse."""
    report = SuiteReport(cm.name, "properness", sampling="rays")
    for s in _simplices_sorted(cm.domain):
        for w in sample_weight_vectors(len(s), 8, seed):
            stats = _ray_stats(cm, s, w, radii)
            monotone = all(nb * da >= na * db for (na, da), (nb, db) in zip(stats, stats[1:]))
            growth = _log_stat(stats[-1]) - _log_stat(stats[0])
            failure = {"simplex": repr(s), "monotone": monotone, "growth": round(growth, 4)}
            report.record(monotone and _grew(stats[0], stats[-1], GROWTH_FACTOR), growth, failure)
    return report


def _rays_and_computed(monkeypatch, cm, radii, seed):
    """Every ray's recorded (ok, repr(growth), failure) in order, from
    properness_test and from the reference, the reports' fingerprints, and
    how many rays properness_test computed."""
    computed = []
    monkeypatch.setattr(conemaps, "_ray_stats", lambda *args: computed.append(1) or _ray_stats(*args))
    recorded = []
    record = SuiteReport.record
    monkeypatch.setattr(SuiteReport, "record", lambda self, ok, growth, failure: (
        recorded.append((ok, repr(growth), failure)), record(self, ok, growth, failure)))
    report = properness_test(cm, radii=radii, seed=seed)
    rays = recorded[:]
    recorded.clear()
    reference = _reference_properness(cm, radii or default_radii(), seed)
    assert rays == recorded and len(rays) == report.total
    assert _fingerprint(report) == _fingerprint(reference)
    return report, len(computed)


def _sign_classes(cm, seed, samples=8):
    """Brute force: the distinct (simplex size, den, set of every d_i d_j
    image of the flat coefficients, d in {+-1}^n) over the sampled rays."""
    n = cm.size
    patterns = [[a * b for a in d for b in d] for d in product((1, -1), repeat=n)]
    classes = set()
    for s in _simplices_sorted(cm.domain):
        for w in sample_weight_vectors(len(s), samples, seed):
            ys, den = cm.polynomial(s, w)
            flat = [v for y in ys for row in y for v in row]
            images = frozenset(tuple(v * p[k % (n * n)] for k, v in enumerate(flat)) for p in patterns)
            classes.add((len(s), den, images))
    return len(classes)


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map, hookless_superimpose])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("radii", [None, (1, 16, 2 ** 20, 2 ** 40)])
def test_properness_reuse_matches_one_ray_stats_per_ray(builder, n, seed, radii, monkeypatch):
    cm = builder(n)
    report, computed = _rays_and_computed(monkeypatch, cm, radii, seed)
    if builder is hookless_superimpose:
        # no hook, so no coefficients to key on: every ray is computed
        assert computed == report.total
    else:
        assert computed == _sign_classes(cm, seed) < report.total


def test_properness_reuse_keeps_the_seed_3_failures_of_heisenberg_4(monkeypatch):
    report, computed = _rays_and_computed(monkeypatch, heisenberg_map(4), None, 3)
    assert report.failed == len(report.failures) == 8
    assert computed == 799


@pytest.mark.parametrize("builder, computed", [(heisenberg_map, 107), (split_map, 228)])
def test_properness_with_one_sample_computes_one_ray_per_sign_class(builder, computed, monkeypatch):
    # the barycenter only: one ray per simplex, up to the signs of its vertices
    calls = []
    monkeypatch.setattr(conemaps, "_ray_stats", lambda *args: calls.append(1) or _ray_stats(*args))
    cm = builder(4)
    report = properness_test(cm, samples=1)
    assert len(calls) == computed == _sign_classes(cm, 0, samples=1) < report.total


def _unit(simplex, k):
    return tuple(int(v == k) for v in range(len(simplex)))


def _lopsided_hook(simplex):
    # x on a + entry and 2x on a - entry: nilpotent, but flipping a
    # vertex's sign is not conjugation by a sign matrix
    return {_unit(simplex, k): {p: s * (1 if s == 1 else 2)} for k, (p, s) in enumerate(simplex)}, 1


def _den_only_hook(simplex):
    # sign-conjugate simplices get conjugate terms, but the declared degree,
    # and with it den, follows the first vertex's sign
    return {_unit(simplex, k): {p: s} for k, (p, s) in enumerate(simplex)}, 1 + (simplex[0][1] < 0)


def _heisenberg_3_hooked(name, hook):
    return ConeMap(name, heisenberg_domain(3), 3, lambda p: ExactMatrix.identity(3), hook)


def test_properness_reuse_stays_exact_on_a_hook_that_is_not_sign_equivariant(monkeypatch):
    cm = _heisenberg_3_hooked("lopsided", _lopsided_hook)
    for seed, classes in ((0, 142), (3, 154)):
        report, computed = _rays_and_computed(monkeypatch, cm, None, seed)
        assert computed == _sign_classes(cm, seed) == classes and report.total == 8 * 26


def test_properness_reuse_keys_on_den_too(monkeypatch):
    cm = _heisenberg_3_hooked("den-only", _den_only_hook)
    for seed in (0, 3):
        report, computed = _rays_and_computed(monkeypatch, cm, (1, 16, 2 ** 20), seed)
        assert computed == _sign_classes(cm, seed) < report.total


@st.composite
def _nilpotent_polys(draw):
    n = draw(st.sampled_from((3, 4)))
    # an acyclic support: above the diagonal of a permuted order
    order = draw(st.permutations(range(n)))
    ys = []
    for _ in range(draw(st.integers(1, 3))):
        rows = [[0] * n for _ in range(n)]
        for a, b in combinations(range(n), 2):
            rows[order[a]][order[b]] = draw(st.integers(-2 ** 40, 2 ** 40))
        ys.append(tuple(map(tuple, rows)))
    d = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    radii = draw(st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=4))
    return n, tuple(ys), draw(st.integers(1, 2 ** 20)), d, radii


@settings(max_examples=100, deadline=None)
@given(_nilpotent_polys())
def test_ray_stats_are_invariant_under_conjugation_by_a_sign_matrix(case):
    n, ys, den, d, radii = case
    conjugate = tuple(tuple(tuple(v * d[i] * d[j] for j, v in enumerate(row)) for i, row in enumerate(y))
                      for y in ys)
    cm, s, w = heisenberg_map(n), (((1, 2), 1),), (WEIGHT_TOTAL,)
    assert _ray_stats(cm, s, w, radii, (ys, den)) == _ray_stats(cm, s, w, radii, (conjugate, den))


def test_sample_weight_vectors_is_memoized_and_still_refuses():
    first = sample_weight_vectors(4, 8, 2)
    assert isinstance(first, tuple) and all(isinstance(w, tuple) for w in first)
    assert sample_weight_vectors(4, 8, 2) == first
    assert len(first) == 8 and all(sum(w) == WEIGHT_TOTAL and min(w) >= 1 for w in first)
    for _ in range(2):
        with pytest.raises(ValueError, match="samples"):
            sample_weight_vectors(4, 0, 2)
    # every interior weight is at least 1 of WEIGHT_TOTAL
    assert sample_weight_vectors(WEIGHT_TOTAL, 2) == ((1,) * WEIGHT_TOTAL,) * 2
    with pytest.raises(ValueError, match="no interior weights"):
        sample_weight_vectors(WEIGHT_TOTAL + 1)


def _failed_simplices(report):
    return [{k: v for k, v in f.items() if k != "growth"} for f in report.failures]


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map])
@pytest.mark.parametrize("factor", [GROWTH_FACTOR, 10 ** 7])
def test_hook_path_matches_generic_path(builder, factor):
    # the same map without its hook goes through exact Fraction images; the
    # dens differ, so the logs may differ in the last digits but no verdict may
    cm = builder(3)
    generic = _hookless(cm)
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


def test_pair_reports_serialize_every_vertex_label():
    rep = divergence_test(heisenberg_map(3), (((1, 2), 1), ((2, 3), 1)), (((1, 3), -1),),
                          radii=(1, 16, 2 ** 20), samples=2)
    assert rep.to_json() == {
        "sigma": [[[1, 2], 1], [[2, 3], 1]], "tau": [[[1, 3], -1]], "radii": [1, 16, 2 ** 20],
        "d": [0.0, 3.8697, 26.3385], "growth": 26.3385, "verdict": "PASS",
    }
    # a fibration's vertices are (factor, vertex of that factor)
    f = fibration_compose(heisenberg_map(2), heisenberg_map(2), section=lambda g: g, embed=lambda g: g)
    rep = divergence_test(f, ((0, ((1, 2), 1)), (1, ((1, 2), -1))), ((0, ((1, 2), -1)),),
                          radii=(1, 2 ** 20), samples=2)
    out = json.loads(json.dumps(rep.to_json()))
    assert (out["sigma"], out["tau"]) == ([[0, [[1, 2], 1]], [1, [[1, 2], -1]]], [[0, [[1, 2], -1]]])
    assert out["verdict"] == "PASS"


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


def _exact_images(cm, simplex, weights, radii):
    return [ExactMatrix([[Fraction(v, den) for v in row] for row in rows])
            for rows, den in cm.scaled(simplex, [weights], radii)[0]]


def test_superimpose_is_split_on_the_domain():
    # split's t^2 term N_U N_L needs an upper (i, k) and a lower (k, l) in
    # one simplex; the lower vertices of L(n) are the added points
    # ((k, k-1), +), and no facet holds one with a vertex of its column's sphere
    for n in range(2, 6):
        for facet in obstructor_subcomplex(n).facets:
            assert not {j for (i, j), _ in facet if i < j} & {i for (i, j), _ in facet if i > j}
    # so U L = I + t N / total, the superimposed image, on every sampled ray
    for n in (2, 3):
        split, naive = split_map(n), superimpose_map(n)
        for seed in (0, 3):
            for s in _simplices_sorted(split.domain):
                for w in sample_weight_vectors(len(s), 8, seed):
                    assert _exact_images(split, s, w, ORACLE_RADII) == _exact_images(naive, s, w, ORACLE_RADII)


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


def test_properness_accepts_a_repeated_radius():
    # equal statistics at consecutive radii are nondecreasing, so monotone
    rep = properness_test(heisenberg_map(3), radii=(1, 1, 2 ** 20))
    assert rep.passed == rep.total > 0


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
    g = ExactMatrix.from_entries(3, {(2, 1): t})  # I + t E_21
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
    with pytest.raises(ValueError, match="samples"):
        split_growth_experiment(3, 100, samples)


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


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map, hookless_superimpose])
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
        if factor == GROWTH_FACTOR and builder is not hookless_superimpose:
            # the bounds decide pairs; without the hook the dens differ between rays
            assert len(exact_pairs) < filtered.total
        with_rows = divergence_suite(cm, seed=seed, pairing=pairing, growth_factor=factor,
                                     collect_rows=True)
        assert _fingerprint(with_rows) == _fingerprint(reference)
        assert with_rows.rows == reference.rows


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map, hookless_superimpose])
@pytest.mark.parametrize("ends, factor", [
    ((1, 2 ** 900), GROWTH_FACTOR),  # min_growth about 624
    ((1, 2 ** 2000), GROWTH_FACTOR),  # min_growth past 709, where e^min_growth overflows a float
    ((2 ** 20, 1), GROWTH_FACTOR),  # every pair FAILs and min_growth is negative
    ((2 ** 20, 2 ** 20), 1),  # min_growth is 0
])
def test_bound_prefilter_matches_all_exact_suite_at_the_threshold_edges(builder, ends, factor):
    cm = builder(3)
    prep = [(s, _sampled_rays(cm, s, 8, 0, ends)) for s in _simplices_sorted(cm.domain)]
    for pairing in ("aligned", "cross"):
        reference = _all_exact_suite(cm, prep, pairing, factor, ends)
        filtered = divergence_suite(cm, radii=ends, pairing=pairing, growth_factor=factor)
        assert _fingerprint(filtered) == _fingerprint(reference)
        with_rows = divergence_suite(cm, radii=ends, pairing=pairing, growth_factor=factor,
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
    return tuple(zip(*m)), int_adjugate(m), den


@st.composite
def _ray_pairs(draw):
    n = draw(st.integers(2, 4))
    entries = st.integers(-(10 ** 6), 10 ** 6)
    matrix = st.tuples(*[st.tuples(*[entries] * n)] * n)
    # _bounded_pass reads rays that share their dens; the suite sends it no other
    dens = [draw(st.integers(1, 3600)) for _ in range(2)]
    # the last radius scales both images by a common factor, so that some
    # pairs pass the growth factor on the bounds alone
    scale = draw(st.sampled_from((1, 2 ** 10, 2 ** 40)))
    rays = []
    for _ in range(2):
        first, last = draw(matrix), draw(matrix)
        last = tuple(tuple(scale * x for x in row) for row in last)
        rays.append([_prep_of(first, dens[0]), _prep_of(last, dens[1])])
    return rays


# zero images: only den^n holds up either bound, so both den terms decide
_ZERO_RAY = [_prep_of(((0, 0), (0, 0)), 60)] * 2


@settings(max_examples=200, deadline=None)
@given(_ray_pairs(), st.sampled_from((1, 2, GROWTH_FACTOR)), st.integers(1, 2 ** 40),
       st.one_of(st.none(), st.integers(0, 2 ** 80)))
@example([_ZERO_RAY, _ZERO_RAY], 1, 1, None)
@example([_ZERO_RAY, _ZERO_RAY], 2, 1, None)
def test_combo_bounds_enclose_the_exact_statistics(rays, factor, q, num):
    ray_a, ray_b = rays
    bounds_a, bounds_b = _ray_bounds(ray_a), _ray_bounds(ray_b)
    a_max, a_adj, df, a_row, a_col, dl = bounds_a
    b_max, b_adj, _, b_row, b_col, _ = bounds_b
    upper = max(a_adj * b_max, b_adj * a_max, df)
    lower = max(abs(sum(map(mul, a_row, b_col))), abs(sum(map(mul, b_row, a_col))), dl)
    first = _pair_stat(ray_a[0], ray_b[0])
    last = _pair_stat(ray_a[-1], ray_b[-1])
    assert first[1] == df and last[1] == dl
    assert upper >= first[0]
    assert lower <= last[0]
    # the threshold num/q with the den powers folded in, as divergence_suite does
    num = factor * q if num is None else num
    decided = _bounded_pass([bounds_a], [bounds_b], [(0, 0)], num * dl, q * df)
    assert decided == (lower * q * df >= num * dl * upper)
    if decided:
        assert last[0] * q * df >= num * first[0] * dl
        if num >= factor * q:
            assert _grew(first, last, factor)


def test_bounds_decide_only_pairs_whose_rays_share_their_dens(monkeypatch):
    den_keys = []

    def checked(bounds_a, bounds_b, combos, num, q):
        den_keys.append({(b[2], b[5]) for b in chain(bounds_a, bounds_b)})
        return _bounded_pass(bounds_a, bounds_b, combos, num, q)

    monkeypatch.setattr(conemaps, "_bounded_pass", checked)
    # without its hook, superimpose's dens differ between the rays of most simplices
    report = divergence_suite(hookless_superimpose(3), pairing="aligned")
    assert 0 < len(den_keys) < report.total
    assert all(len(k) == 1 for k in den_keys)


def test_superimpose_rays_share_one_den_so_the_bounds_decide_its_pairs(monkeypatch):
    cm = superimpose_map(3)
    for s in _simplices_sorted(cm.domain):
        for w in sample_weight_vectors(len(s), 8, 0):
            assert cm.polynomial(s, w)[1] == WEIGHT_TOTAL
    exact_pairs = []
    monkeypatch.setattr(conemaps, "_pair_verdict", lambda *args: exact_pairs.append(1) or _pair_verdict(*args))
    for pairing in ("aligned", "cross"):
        exact_pairs.clear()
        report = divergence_suite(cm, pairing=pairing)
        assert report.total == 396 and len(exact_pairs) < 200


def test_a_pair_goes_exact_only_when_its_bounds_fall_short(monkeypatch):
    growths = []

    def checked(rays_a, rays_b, combos, growth_factor):
        bounds_a, bounds_b = [_ray_bounds(r) for r in rays_a], [_ray_bounds(r) for r in rays_b]
        dens = {(b[2], b[5]) for b in chain(bounds_a, bounds_b)}
        if growths and len(dens) == 1:
            (num, q), ((df, dl),) = _threshold(growth_factor, min(growths)), dens
            assert not _bounded_pass(bounds_a, bounds_b, combos, num * dl, q * df)
        verdict = _pair_verdict(rays_a, rays_b, combos, growth_factor)
        growths.append(verdict[1])
        return verdict

    monkeypatch.setattr(conemaps, "_pair_verdict", checked)
    for builder in (heisenberg_map, split_map):
        growths.clear()
        # at radius 2^10 the bounds of many pairs clear the threshold by a narrow margin
        report = divergence_suite(builder(3), radii=(1, 2 ** 10), pairing="cross")
        assert 0 < len(growths) < report.total


# divergence_suite decides each sign orbit of pairs once


def _counted(monkeypatch, name):
    calls = []
    real = getattr(conemaps, name)
    monkeypatch.setattr(conemaps, name, lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("builder, n, pairing, report, calls", [
    # without the orbit key heisenberg(4) made 58,095 and 4,012 calls
    (heisenberg_map, 4, "aligned", (58096, 58096, 0, "12.946652879324752"), (7923, 606)),
    (split_map, 3, "cross", (396, 396, 0, "13.862943611198904"), (202, 85)),
])
def test_bench_suites_keep_their_reports_and_decide_each_orbit_once(builder, n, pairing, report, calls,
                                                                   monkeypatch):
    bounded, exact = _counted(monkeypatch, "_bounded_pass"), _counted(monkeypatch, "_pair_verdict")
    r = divergence_suite(builder(n), pairing=pairing)
    assert (r.total, r.passed, r.failed, repr(r.min_growth)) == report
    assert (len(bounded), len(exact)) == calls


@pytest.mark.parametrize("radii, samples", [(None, 8), ((1, 16, 2 ** 20), 2), ((5,), 3)])
def test_divergence_test_evaluates_each_ray_pair_once_at_each_radius(radii, samples, monkeypatch):
    # the distance curve is _pair_verdict's; a loop of its own over the
    # radii made len(combos) * (len(radii) + 2) calls
    stats = _counted(monkeypatch, "_pair_stat")
    rep = divergence_test(heisenberg_map(3), (((1, 2), 1),), (((1, 3), 1), ((2, 3), -1)),
                          radii=radii, samples=samples)
    assert len(rep.d_curve) == len(rep.radii)
    assert len(stats) == samples * samples * len(rep.radii)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sign_patterns_are_each_conjugation_once(n):
    patterns = _sign_patterns(n)
    every = {tuple(a * b for a in d for b in d) for d in product((1, -1), repeat=n)}
    assert len(patterns) == len(every) == 2 ** (n - 1) and set(patterns) == every
    assert patterns[0] == (1,) * (n * n)


def _den_only_3(n):
    return _heisenberg_3_hooked("den-only", _den_only_hook)


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, _den_only_3, hookless_superimpose])
def test_conjugates_key_both_suites_on_the_first_simplex_with_each_conjugate_image(builder):
    cm = builder(3)
    simplices = _simplices_sorted(cm.domain)
    prep = _divergence_prep(cm, 8, 0, (1, 2 ** 20))
    if builder is hookless_superimpose:
        # no image to key on: each simplex is its own orbit
        assert [entry[5] for entry in prep] == [[k] for k in range(len(prep))]
        return
    # the oracle: m^T and den at both ends of every sampled ray, conjugated by each sign matrix
    rays = [(len(s), [(m_t, den) for ray in entry[2] for m_t, _, den in ray])
            for s, entry in zip(simplices, prep)]
    for (size, image), entry in zip(rays, prep):
        for d, c in zip([(1, *d) for d in product((1, -1), repeat=2)], entry[5], strict=True):
            conjugate = (size, [(tuple(tuple(v * d[i] * d[j] for j, v in enumerate(row))
                                       for i, row in enumerate(m_t)), den) for m_t, den in image])
            matches = [k for k, other in enumerate(rays) if other == conjugate]
            assert c == (matches[0] if matches else math.inf)
    # properness's key classes are divergence's orbits of simplices
    patterns = _sign_patterns(cm.size)
    keys = [(len(s), min(_conjugates(cm.image(s), cm.size, patterns))) for s in simplices]
    orbits = [min(entry[5]) for entry in prep]
    assert len(set(keys)) == len(set(orbits)) == len(set(zip(keys, orbits))) < len(simplices)


@pytest.mark.parametrize("seed", [0, 3])
def test_orbit_reuse_stays_exact_on_a_hook_that_is_not_sign_equivariant(seed, monkeypatch):
    cm = _heisenberg_3_hooked("lopsided", _lopsided_hook)
    prep = [(s, _sampled_rays(cm, s, 8, seed, (1, 2 ** 20))) for s in _simplices_sorted(cm.domain)]
    exact = _counted(monkeypatch, "_pair_verdict")
    for pairing in ("aligned", "cross"):
        reference = _all_exact_suite(cm, prep, pairing, GROWTH_FACTOR)
        exact.clear()
        with_rows = divergence_suite(cm, seed=seed, pairing=pairing, collect_rows=True)
        assert _fingerprint(with_rows) == _fingerprint(reference) and with_rows.rows == reference.rows
        # flipping a sign doubles or halves an entry, so no pair conjugates
        # to another and every pair is computed
        assert len(exact) == with_rows.total
        assert _fingerprint(divergence_suite(cm, seed=seed, pairing=pairing)) == _fingerprint(reference)


def test_orbit_reuse_stays_exact_when_den_follows_a_vertex_sign():
    # den = total or total^2 by the first vertex's sign: den sits on the
    # diagonal of each compared image
    cm = _heisenberg_3_hooked("den-only", _den_only_hook)
    prep = [(s, _sampled_rays(cm, s, 8, 0, (1, 2 ** 20))) for s in _simplices_sorted(cm.domain)]
    for pairing in ("aligned", "cross"):
        reference = _all_exact_suite(cm, prep, pairing, GROWTH_FACTOR)
        with_rows = divergence_suite(cm, pairing=pairing, collect_rows=True)
        assert _fingerprint(with_rows) == _fingerprint(reference) and with_rows.rows == reference.rows
        assert _fingerprint(divergence_suite(cm, pairing=pairing)) == _fingerprint(reference)


def test_images_of_another_size_than_the_map_are_refused():
    # every reader takes the map's size for its images' size
    cm = ConeMap("small", heisenberg_domain(3), 3, lambda p: ExactMatrix.identity(2))
    with pytest.raises(DimensionMismatch, match="2 x 2, not 3 x 3"):
        divergence_suite(cm, samples=1)
    with pytest.raises(DimensionMismatch, match="2 x 2, not 3 x 3"):
        properness_test(cm, samples=1)
    with pytest.raises(DimensionMismatch, match="2 x 2, not 3 x 3"):
        divergence_test(cm, (((1, 2), 1),), (((1, 2), -1),), samples=1)


def test_threshold_is_formed_again_when_min_growth_falls(monkeypatch):
    formed = []

    def recorded(growth_factor, growth):
        formed.append(growth)
        return _threshold(growth_factor, growth)

    monkeypatch.setattr(conemaps, "_threshold", recorded)
    # from 2^20 down to 1 every pair FAILs and later pairs lower min_growth
    report = divergence_suite(split_map(3), radii=(2 ** 20, 1), pairing="aligned")
    assert len(formed) > 1 and formed == sorted(set(formed), reverse=True)
    assert formed[-1] == report.min_growth


@pytest.mark.parametrize("factor", [1, 3, GROWTH_FACTOR])
# at the last two, 2^f rounded up to 32 bits alone falls short of e^(growth + 2e-9)
@pytest.mark.parametrize("growth", [-40.2025, -1e-12, 0.0, 1e-9, math.log(3), 6.9314718,
                                    13.17, 624.31, 709.9, 1386.4, 1393.1869808931774,
                                    1663.9716945814168])
def test_threshold_is_a_tight_exact_upper_bound(factor, growth):
    num, q = _threshold(factor, growth)
    with localcontext() as ctx:
        ctx.prec = 60
        target = Fraction((Decimal(growth) + Decimal("2e-9")).exp())
    assert Fraction(num, q) >= max(factor, target)
    assert Fraction(num, q) <= max(factor, target * (1 + Fraction(1, 10 ** 9)))
    if target < factor:
        assert (num, q) == (factor, 1)


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


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map, hookless_superimpose])
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


@pytest.mark.parametrize("builder", [heisenberg_map, split_map, superimpose_map, hookless_superimpose])
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
