from fractions import Fraction

import pytest

from obstructor import (
    Labeling,
    Witness,
    all_labelings,
    build_root_system,
    construct_witness,
    diagram_order,
    exhaustive_verify,
    verify_witness,
)
from obstructor.ordering import WitnessReport, _positive_multiple_of_node

GRID = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    + [("BC", n) for n in range(1, 9)]
)


def test_order_a_family_is_linear():
    for n in (1, 3, 6):
        rs = build_root_system(("A", n))
        assert diagram_order(rs) == tuple(range(n))


def test_order_bc1_single_node():
    rs = build_root_system(("BC", 1))
    assert diagram_order(rs) == (0,)


def test_order_c_starts_at_the_long_node():
    # the long simple root (the doubled-coordinate node) comes first, then
    # the remaining chain walks away from it
    for n in (2, 3, 5):
        rs = build_root_system(("C", n))
        assert diagram_order(rs) == tuple(range(n - 1, -1, -1))


def test_order_bc_starts_at_the_doubled_node():
    for n in (2, 4):
        rs = build_root_system(("BC", n))
        order = diagram_order(rs)
        assert order[0] == n - 1
        assert order == tuple(range(n - 1, -1, -1))


def test_order_reducible_concatenates_components():
    rs = build_root_system([("A", 2), ("C", 2)])
    assert diagram_order(rs) == (0, 1, 3, 2)


def test_witness_bc1():
    rs = build_root_system(("BC", 1))
    lab = Labeling.from_prefix(diagram_order(rs), "D")
    w = construct_witness(rs, lab)
    assert w.sigma == (-2,) and w.mu == (0,)
    assert verify_witness(rs, lab, w).ok
    # sigma = -alpha fails: going down by alpha-hat/2 from -alpha hits -2alpha
    bad = Witness(sigma=(-1,), mu=(1,))
    assert not verify_witness(rs, lab, bad).ok


def test_witness_a3_focus_two_with_u_predecessor():
    rs = build_root_system(("A", 3))
    lab = Labeling.from_prefix(diagram_order(rs), ("U", "D"))
    w = construct_witness(rs, lab)
    assert w.sigma == (0, -1, 0) and w.mu == (0, 0, 0)
    assert verify_witness(rs, lab, w).ok


def test_witness_a2_focus_two_with_d_predecessor():
    # the D-run rule gives sigma = -(a1 + a2); condition (1) then forces
    # mu = -a1 (not zero)
    rs = build_root_system(("A", 2))
    lab = Labeling.from_prefix(diagram_order(rs), ("D", "D"))
    w = construct_witness(rs, lab)
    assert w.sigma == (-1, -1) and w.mu == (-1, 0)
    assert verify_witness(rs, lab, w).ok


def test_verify_rejects_d_node_descent():
    rs = build_root_system(("A", 2))
    lab = Labeling.from_prefix(diagram_order(rs), "D")
    rep = verify_witness(rs, lab, Witness(sigma=(0, 0), mu=(1, 0)))
    assert not rep.ok
    assert any(v[0] == "down" for v in rep.violations)


def test_verify_rejects_wrong_difference():
    rs = build_root_system(("A", 2))
    lab = Labeling.from_prefix(diagram_order(rs), "D")
    rep = verify_witness(rs, lab, Witness(sigma=(1, 0), mu=(1, 0)))
    assert not rep.ok
    assert any(v[0] == "difference" for v in rep.violations)


def test_verify_rejects_u_node_ascent():
    rs = build_root_system(("A", 2))
    lab = Labeling.from_prefix(diagram_order(rs), ("U", "D"))
    # sigma = -(a1+a2) can climb by a1 to reach -a2: condition (3) violated
    rep = verify_witness(rs, lab, Witness(sigma=(-1, -1), mu=(-1, 0)))
    assert not rep.ok
    assert any(v[0] == "up" and v[1] == 0 for v in rep.violations)


def test_exhaustive_counts():
    assert exhaustive_verify(build_root_system(("BC", 1))).labelings_checked == 1
    rep = exhaustive_verify(build_root_system(("A", 2)))
    assert rep.labelings_checked == 3 and rep.witnesses_found == 3


def test_exhaustive_e8():
    rs = build_root_system(("E8", 8))
    assert len(rs.roots) + 1 == 241
    rep = exhaustive_verify(rs)
    assert rep.labelings_checked == 255
    assert rep.witnesses_found == 255
    assert rep.passed


@pytest.mark.parametrize("fam,rank", GRID)
def test_constructive_rule_agrees_with_verifier_everywhere(fam, rank):
    rs = build_root_system((fam, rank))
    for lab in all_labelings(rs):
        construct_witness(rs, lab)  # raises if its own verification fails


def test_reducible_exhaustive_and_componentwise_agree():
    rs = build_root_system([("A", 2), ("BC", 2)])
    rep = exhaustive_verify(rs, "A2+BC2")
    assert rep.passed
    assert rep.labelings_checked == 2 ** rs.rank - 1
    assert rep.witnesses_found == rep.witnesses_found_componentwise


def test_proportionality_is_exactly_rational():
    assert _positive_multiple_of_node((3, 0), (2, 0)) == Fraction(3, 2)
    assert _positive_multiple_of_node((-3, 0), (2, 0)) is None
    assert _positive_multiple_of_node((3, 1), (2, 0)) is None
    assert _positive_multiple_of_node((0, 0), (2, 0)) is None


def test_labeling_validation():
    order = (0, 1, 2)
    with pytest.raises(ValueError):
        Labeling.from_prefix(order, ("U",))  # focus must be D
    with pytest.raises(ValueError):
        Labeling(order=order, labels=((0, "D"), (2, "D")), focus=2)  # not a prefix
    lab = Labeling.from_prefix(order, ("U", "D"))
    assert lab.focus == 1
    assert lab.nodes_labeled("U") == (0,)


def test_bitset_filter_agrees_with_exact_verifier():
    # dual route: the precomputed forbidden sets used by the exhaustive
    # search must agree with the exact condition verifier for every
    # sigma-candidate of every labeling, including the rejected ones
    from obstructor.ordering import _BitIndex, _vadd

    for spec in [("A", 2), ("C", 2), ("BC", 2), ("G2", 2), [("A", 1), ("BC", 1)]]:
        rs = build_root_system(spec)
        bits = _BitIndex(rs)
        for lab in all_labelings(rs):
            ahat = rs.hat(lab.focus)
            bad = 0
            for i, l in lab.labels:
                bad |= bits.bad_down[i] if l == "D" else bits.bad_up[i]
            for k, sigma in enumerate(bits.elements):
                mu = _vadd(sigma, ahat)
                if not rs.is_element(mu):
                    continue
                fast_ok = not (bad >> k) & 1
                exact_ok = verify_witness(rs, lab, Witness(sigma, mu)).ok
                assert fast_ok == exact_ok, (spec, lab, sigma)


def _reference_verify(rs, lab, w):
    """The verifier written out plainly: every difference's support, then the exact test."""
    rep = WitnessReport(ok=True)
    ahat = rs.hat(lab.focus)
    if tuple(m - s for m, s in zip(w.mu, w.sigma)) != ahat:
        rep.violations.append(("difference", w.sigma, w.mu, ahat))
    if not (rs.is_element(w.sigma) and rs.is_element(w.mu)):
        rep.violations.append(("membership", w.sigma, w.mu))
    d_nodes = {i: rs.hat(i) for i in lab.nodes_labeled("D")}
    u_nodes = {i: rs.hat(i) for i in lab.nodes_labeled("U")}
    for phi in sorted(rs.roots | {rs.zero}):
        down = tuple(s - p for s, p in zip(w.sigma, phi))
        support = [j for j, x in enumerate(down) if x != 0]
        if len(support) != 1:
            continue
        j = support[0]
        if j in d_nodes:
            c = _positive_multiple_of_node(down, d_nodes[j])
            if c is not None:
                rep.violations.append(("down", j, phi, c))
        if j in u_nodes:
            c = _positive_multiple_of_node(tuple(-x for x in down), u_nodes[j])
            if c is not None:
                rep.violations.append(("up", j, phi, c))
    rep.ok = not rep.violations
    return rep


@pytest.mark.parametrize(
    "spec", [("A", 2), ("C", 2), ("BC", 2), ("G2", 2), ("B", 3), [("A", 1), ("BC", 1)]], ids=str
)
def test_verify_witness_matches_reference_report(spec):
    # every sigma among the roots-with-zero, including those whose
    # mu = sigma + hat(focus) falls outside them, and a wrong difference
    rs = build_root_system(spec)
    for lab in all_labelings(rs):
        ahat = rs.hat(lab.focus)
        for sigma in sorted(rs.roots | {rs.zero}):
            for mu in (tuple(s + a for s, a in zip(sigma, ahat)), sigma):
                w = Witness(sigma, mu)
                assert verify_witness(rs, lab, w) == _reference_verify(rs, lab, w), (lab, w)


def test_wrong_order_is_detected():
    # negative control: ordering the rank-two C system with the long node
    # last leaves the focus labeled {short: D} with no witness at all, and
    # the exhaustive check must say so
    import pytest as _pytest
    from obstructor import ExhaustiveCheckFailure

    rs = build_root_system(("C", 2))
    good = exhaustive_verify(rs, order=(1, 0))
    assert good.passed
    with _pytest.raises(ExhaustiveCheckFailure) as exc:
        exhaustive_verify(rs, order=(0, 1))
    assert exc.value.labeling.focus == 1
