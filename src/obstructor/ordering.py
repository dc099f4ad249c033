"""Diagram node ordering and U/D-labeling witnesses.

The nodes of a root system are the doubled representatives of the simple
roots (``hat``).  For a focus node a with every earlier node labeled "U" or
"D" (the focus itself counts as "D"), a *witness* is a pair (sigma, mu) of
elements of the roots-with-zero set such that

  (1) mu - sigma = hat(a),
  (2) sigma - phi is never a positive multiple of a D-node, and
  (3) phi - sigma is never a positive multiple of a U-node,

with phi ranging over all roots and zero.  ``diagram_order`` produces a
total order on the nodes for which a witness always exists;
``construct_witness`` builds one directly, and ``exhaustive_verify`` checks
every labeling of every prefix by brute-force search, independent of the
construction.

The order is obtained by peeling each diagram component from the back: the
last node is the unique node whose doubled representative can be subtracted
from the component's highest root (with the highest root alone in its
coefficient level); chain components without such a unique node are of type
A and are ordered linearly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .rootsystems import RootSystem, Vector, _vadd, _vneg

U = "U"
D = "D"


class WitnessConstructionError(RuntimeError):
    """The constructive rule produced no valid witness (transcription bug)."""


class ExhaustiveCheckFailure(RuntimeError):
    """Brute-force search found a labeling with no witness."""

    def __init__(self, labeling: "Labeling"):
        self.labeling = labeling
        super().__init__(f"no witness for labeling {labeling}")


@dataclass(frozen=True)
class Labeling:
    """A prefix labeling: order of node indices, labels for a prefix, focus node."""

    order: tuple[int, ...]
    labels: tuple[tuple[int, str], ...]  # (node index, "U"/"D") in order
    focus: int

    def __post_init__(self):
        labeled = [i for i, _ in self.labels]
        p = len(labeled)
        if list(self.order[:p]) != labeled:
            raise ValueError("labels must cover exactly a prefix of the order")
        if not self.labels or self.labels[-1][0] != self.focus:
            raise ValueError("focus must be the last labeled node")
        if dict(self.labels)[self.focus] != D:
            raise ValueError("focus must carry label D")
        if any(l not in (U, D) for _, l in self.labels):
            raise ValueError("labels must be U or D")

    @classmethod
    def from_prefix(cls, order, letters) -> "Labeling":
        letters = tuple(letters)
        return cls(
            order=tuple(order),
            labels=tuple(zip(order[: len(letters)], letters)),
            focus=order[len(letters) - 1],
        )

    def nodes_labeled(self, letter: str) -> tuple[int, ...]:
        return tuple(i for i, l in self.labels if l == letter)

    def __str__(self) -> str:
        body = ",".join(f"{i}:{l}" for i, l in self.labels)
        return f"[{body}|focus={self.focus}]"


@dataclass(frozen=True)
class Witness:
    sigma: Vector
    mu: Vector


@dataclass
class WitnessReport:
    ok: bool
    violations: list[tuple] = field(default_factory=list)


@dataclass
class OrderingReport:
    name: str
    rank: int
    order: tuple[int, ...]
    labelings_checked: int
    witnesses_found: int
    witnesses_found_componentwise: int
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return (
            self.labelings_checked
            == self.witnesses_found
            == self.witnesses_found_componentwise
        )

    def to_json(self) -> dict:
        return {
            "type": self.name,
            "rank": self.rank,
            "order": list(self.order),
            "labelings": self.labelings_checked,
            "witnesses": self.witnesses_found,
            "witnesses_componentwise": self.witnesses_found_componentwise,
            "elapsed_s": round(self.elapsed_s, 6),
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# subsystem helpers

def _subsystem(rs: RootSystem, nodes: frozenset[int]) -> list[Vector]:
    """Roots supported on the given node subset (the generated subsystem)."""
    out = []
    for v in rs.positive_roots:
        if all(v[j] == 0 or j in nodes for j in range(rs.rank)):
            out.append(v)
    return out


def _highest_root(rs: RootSystem, nodes: frozenset[int]) -> Vector:
    pos = _subsystem(rs, nodes)
    theta = max(pos, key=lambda v: (sum(v), v))
    for v in pos:
        if any(x > t for x, t in zip(v, theta)):
            raise AssertionError("no coefficientwise-maximal root; component not irreducible?")
    return theta


def _components(rs: RootSystem, nodes) -> list[frozenset[int]]:
    nodes = set(nodes)
    comps = []
    while nodes:
        seed = min(nodes)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in list(nodes):
                if j not in comp and rs.adjacent(i, j):
                    comp.add(j)
                    frontier.append(j)
        comps.append(frozenset(comp))
        nodes -= comp
    return sorted(comps, key=min)


def _descent_candidates(rs: RootSystem, nodes: frozenset[int]) -> list[int]:
    """Nodes a with theta - hat(a) a root-or-zero and no other node subtractable.

    Subtractability means theta - t*e_u lands in the subsystem (with zero)
    for some positive t, which holds iff theta - e_u does: when theta is not
    a multiple of alpha_u = e_u, its alpha_u-string is unbroken (Bourbaki,
    Lie Groups and Lie Algebras VI 1.3, Prop. 9; Humphreys 9.4), so it holds
    every step between theta and theta - t*e_u; otherwise theta is alpha_u
    or 2 alpha_u and theta - e_u is 0 or alpha_u.
    """
    sub = set(_subsystem(rs, nodes))
    elements = sub | {_vneg(v) for v in sub} | {rs.zero}
    theta = _highest_root(rs, nodes)
    sub_nodes = [u for u in sorted(nodes) if _vadd(theta, _vneg(rs.simple[u])) in elements]
    if len(sub_nodes) != 1:
        return []
    a = sub_nodes[0]
    if tuple(x - y for x, y in zip(theta, rs.hat(a))) in elements:
        return [a]
    return []


def _chain_order(rs: RootSystem, nodes: frozenset[int]) -> list[int]:
    """Linear order of a chain component, walking from its smallest end."""
    degs = {i: sum(1 for j in nodes if j != i and rs.adjacent(i, j)) for i in nodes}
    ends = [i for i in sorted(nodes) if degs[i] <= 1]
    if any(d > 2 for d in degs.values()):
        raise AssertionError("component is not a chain")
    start = min(ends)
    order = [start]
    seen = {start}
    while len(order) < len(nodes):
        nxt = [j for j in nodes if j not in seen and rs.adjacent(order[-1], j)]
        if len(nxt) != 1:
            raise AssertionError("chain walk failed")
        order.append(nxt[0])
        seen.add(nxt[0])
    return order


def _order_component(rs: RootSystem, nodes: frozenset[int]) -> list[int]:
    if len(nodes) == 1:
        return [next(iter(nodes))]
    cands = _descent_candidates(rs, nodes)
    if len(cands) == 1:
        c = cands[0]
        rest = nodes - {c}
        order: list[int] = []
        for comp in _components(rs, rest):
            order.extend(_order_component(rs, comp))
        order.append(c)
        return order
    return _chain_order(rs, nodes)


def diagram_order(rs: RootSystem) -> tuple[int, ...]:
    """Total order on the node indices, componentwise."""
    order: list[int] = []
    for span in rs.component_nodes:
        order.extend(_order_component(rs, frozenset(span)))
    return tuple(order)


# ---------------------------------------------------------------------------
# witnesses

def verify_witness(rs: RootSystem, lab: Labeling, w: Witness) -> WitnessReport:
    """Check conditions (1)-(3) exactly, quantifying over all roots and zero.

    A node vector is h*e_j with h in {1, 2}, so sigma - phi is a positive
    multiple of a D-node exactly when phi = sigma - d*e_j, and phi - sigma
    of a U-node when phi = sigma + d*e_j, with d >= 1; the multiple is the
    exact rational d/h.  Every root-or-zero has coordinates in [-M, M],
    M = ``rs.max_coefficient()``, so d <= 2M for sigma among them: a check
    costs O(rank * 2M) membership probes, not a scan of all O(|Phi|) roots.
    Violations are listed in increasing order of phi.
    """
    report = WitnessReport(ok=True)
    ahat = rs.hat(lab.focus)
    if tuple(m - s for m, s in zip(w.mu, w.sigma)) != ahat:
        report.ok = False
        report.violations.append(("difference", w.sigma, w.mu, ahat))
    if not (rs.is_element(w.sigma) and rs.is_element(w.mu)):
        report.ok = False
        report.violations.append(("membership", w.sigma, w.mu))
    d_nodes = {i: rs.hat(i) for i in lab.nodes_labeled(D)}
    u_nodes = {i: rs.hat(i) for i in lab.nodes_labeled(U)}
    sigma = tuple(w.sigma)
    m = rs.max_coefficient()
    found = []
    for kind, sign, nodes in (("down", -1, d_nodes), ("up", 1, u_nodes)):
        for j, node in nodes.items():
            # phi_j = sigma_j + sign*d must lie in [-M, M]
            r = -sign * sigma[j]
            for d in range(max(1, r - m), r + m + 1):
                phi = sigma[:j] + (sigma[j] + sign * d,) + sigma[j + 1 :]
                if phi in rs._element_set:
                    found.append((kind, j, phi, Fraction(d, node[j])))
    if found:
        report.ok = False
        report.violations.extend(sorted(found, key=lambda v: v[2]))
    return report


def _labeled_component(rs: RootSystem, lab: Labeling) -> frozenset[int]:
    labeled = frozenset(i for i, _ in lab.labels)
    for comp in _components(rs, labeled):
        if lab.focus in comp:
            return comp
    raise AssertionError("focus not in labeled set")


def construct_witness(rs: RootSystem, lab: Labeling) -> Witness:
    """Build a witness directly from the diagram structure.

    On the focus component of the labeled subdiagram: if the focus is the
    component's descent node, sigma is the negative of the component's
    highest root.  Otherwise the component is a chain ending at the focus
    and sigma is the negative of the sum of the maximal run of D-labeled
    nodes ending at the focus.
    """
    comp = _labeled_component(rs, lab)
    labels = dict(lab.labels)
    if lab.focus in _descent_candidates(rs, comp):
        theta = _highest_root(rs, comp)
        sigma = _vneg(theta)
    else:
        walk = [i for i in lab.order if i in comp]
        if walk[-1] != lab.focus:
            raise WitnessConstructionError("focus is not the end of its labeled chain")
        for a, b in zip(walk, walk[1:]):
            if not rs.adjacent(a, b):
                raise WitnessConstructionError("labeled component is not an order-walk chain")
        sigma = rs.zero
        for i in reversed(walk):
            if labels[i] != D:
                break
            sigma = tuple(s - a for s, a in zip(sigma, rs.simple[i]))
    mu = _vadd(sigma, rs.hat(lab.focus))
    w = Witness(sigma=sigma, mu=mu)
    if not verify_witness(rs, lab, w).ok:
        raise WitnessConstructionError(f"constructed witness fails for {lab}")
    return w


# ---------------------------------------------------------------------------
# exhaustive verification

class _BitIndex:
    """Bitmask machinery over the elements (roots and zero) of a system.

    Bit k of ``bad_down[j]`` (``bad_up[j]``) is set when element k can step
    down (up) along e_j to another element, that is, when another element on
    its line through e_j (equal to it off coordinate j) has a smaller (larger)
    j-th coordinate; of ``candidates[j]``, when element k plus hat(j) = h e_j
    is an element, that is, when its j-th coordinate plus h is at most the
    line's maximum.  Lines are unbroken: the one through 0 is {c alpha_j},
    |c| <= 1 or 2, and any other is an alpha_j root string (Bourbaki, Lie
    Groups and Lie Algebras VI 1.3, Prop. 9; Humphreys 9.4).  All three come
    from each line's minimum and maximum, in O(|elements| * rank).
    ``support[span]`` marks the elements supported on the component ``span``.
    """

    def __init__(self, rs: RootSystem):
        self.elements = rs.elements
        n = rs.rank
        self.bad_down = [0] * n
        self.bad_up = [0] * n
        self.candidates = [0] * n
        for j in range(n):
            h = rs.hat(j)[j]
            lines = [v[:j] + v[j + 1 :] for v in self.elements]
            lo: dict[Vector, int] = {}
            hi: dict[Vector, int] = {}
            for line, v in zip(lines, self.elements):
                lo[line] = min(lo.get(line, v[j]), v[j])
                hi[line] = max(hi.get(line, v[j]), v[j])
            for k, (line, v) in enumerate(zip(lines, self.elements)):
                if v[j] > lo[line]:
                    self.bad_down[j] |= 1 << k
                if v[j] < hi[line]:
                    self.bad_up[j] |= 1 << k
                if v[j] + h <= hi[line]:
                    self.candidates[j] |= 1 << k
        self.support: dict[tuple[int, ...], int] = {}
        for span in rs.component_nodes:
            outside = [j for j in range(n) if j not in span]
            self.support[span] = sum(
                1 << k
                for k, v in enumerate(self.elements)
                if all(v[j] == 0 for j in outside)
            )


def exhaustive_verify(
    rs: RootSystem,
    name: str = "",
    order: tuple[int, ...] | None = None,
) -> OrderingReport:
    """Brute-force witness search over every labeling of every order prefix.

    Independent of ``construct_witness``: for each labeling it searches
    sigma over all roots-with-zero (taking mu = sigma + hat(focus)) and
    tests conditions (2)-(3) against precomputed forbidden sets.  Every
    found witness is re-verified by ``verify_witness``.
    Also runs the same search restricted to the focus's irreducible
    component, reporting both counts.
    """
    t0 = time.perf_counter()
    if order is None:
        order = diagram_order(rs)
    bits = _BitIndex(rs)
    checked = witnessed = witnessed_comp = 0
    focus = None
    for lab in all_labelings(rs, order):
        if lab.focus != focus:
            focus = lab.focus
            cand = bits.candidates[focus]
            span = rs.component_of_node(focus)
            cand_comp = cand & bits.support[span]
        checked += 1
        bad = bad_comp = 0
        for i, l in lab.labels:
            mask = bits.bad_down[i] if l == D else bits.bad_up[i]
            bad |= mask
            if i in span:
                bad_comp |= mask
        good = cand & ~bad
        if not good:
            raise ExhaustiveCheckFailure(lab)
        k = (good & -good).bit_length() - 1
        sigma = bits.elements[k]
        w = Witness(sigma=sigma, mu=_vadd(sigma, rs.hat(focus)))
        if not verify_witness(rs, lab, w).ok:
            raise ExhaustiveCheckFailure(lab)
        witnessed += 1
        if cand_comp & ~bad_comp:
            witnessed_comp += 1
    return OrderingReport(
        name=name or repr(rs),
        rank=rs.rank,
        order=order,
        labelings_checked=checked,
        witnesses_found=witnessed,
        witnesses_found_componentwise=witnessed_comp,
        elapsed_s=time.perf_counter() - t0,
    )


def all_labelings(rs: RootSystem, order: tuple[int, ...] | None = None):
    """Iterate every labeling of every prefix of the order."""
    if order is None:
        order = diagram_order(rs)
    for p in range(1, rs.rank + 1):
        for letters in product((U, D), repeat=p - 1):
            yield Labeling.from_prefix(order, letters + (D,))
