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
from operator import ne

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
    for some positive t; node vectors have single-index support, so positive
    multiples of a node are positive multiples of a coordinate vector.
    """
    sub = set(_subsystem(rs, nodes))
    elements = sub | {_vneg(v) for v in sub} | {rs.zero}
    theta = _highest_root(rs, nodes)
    tmax = 2 * rs.max_coefficient()

    def subtractable(u: int) -> bool:
        for t in range(1, tmax + 1):
            v = list(theta)
            v[u] -= t
            if tuple(v) in elements:
                return True
        return False

    sub_nodes = [u for u in sorted(nodes) if subtractable(u)]
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
    if len(nodes) == 1:
        return [next(iter(nodes))]
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

def _positive_multiple_of_node(diff: Vector, node_vec: Vector) -> Fraction | None:
    """Exact proportionality: diff == c * node_vec with c > 0, else None."""
    pivot = next((i for i, x in enumerate(node_vec) if x != 0), None)
    if pivot is None:
        return None
    c = Fraction(diff[pivot], node_vec[pivot])
    if c <= 0:
        return None
    if all(Fraction(d) == c * n for d, n in zip(diff, node_vec)):
        return c
    return None


def verify_witness(rs: RootSystem, lab: Labeling, w: Witness) -> WitnessReport:
    """Check conditions (1)-(3) exactly, quantifying over all roots and zero.

    Node vectors are supported on a single coordinate, so a difference can
    only be a positive multiple of a node when sigma and phi differ in exactly
    one coordinate; the exact rational proportionality test runs on those.
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
    sigma = w.sigma
    for phi in rs.elements:
        if sum(map(ne, sigma, phi)) != 1:
            continue
        down = tuple(s - p for s, p in zip(sigma, phi))
        j = next(j for j, x in enumerate(down) if x)
        if j in d_nodes:
            c = _positive_multiple_of_node(down, d_nodes[j])
            if c is not None:
                report.ok = False
                report.violations.append(("down", j, phi, c))
        if j in u_nodes:
            c = _positive_multiple_of_node(_vneg(down), u_nodes[j])
            if c is not None:
                report.ok = False
                report.violations.append(("up", j, phi, c))
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
        run = []
        for i in reversed(walk):
            if labels[i] != D:
                break
            run.append(i)
        sigma = rs.zero
        for i in run:
            sigma = tuple(s - a for s, a in zip(sigma, rs.simple[i]))
    mu = _vadd(sigma, rs.hat(lab.focus))
    w = Witness(sigma=sigma, mu=mu)
    if not verify_witness(rs, lab, w).ok:
        raise WitnessConstructionError(f"constructed witness fails for {lab}")
    return w


# ---------------------------------------------------------------------------
# exhaustive verification

class _BitIndex:
    """Bitmask machinery over the elements (roots and zero) of a system."""

    def __init__(self, rs: RootSystem):
        self.elements = rs.elements
        self.index = {v: k for k, v in enumerate(self.elements)}
        n = rs.rank
        tmax = 2 * rs.max_coefficient()
        self.bad_down = [0] * n
        self.bad_up = [0] * n
        for k, v in enumerate(self.elements):
            for j in range(n):
                for t in range(1, tmax + 1):
                    down = list(v)
                    down[j] -= t
                    if tuple(down) in rs._element_set:
                        self.bad_down[j] |= 1 << k
                        break
                for t in range(1, tmax + 1):
                    up = list(v)
                    up[j] += t
                    if tuple(up) in rs._element_set:
                        self.bad_up[j] |= 1 << k
                        break

    def candidates(self, rs: RootSystem, ahat: Vector, restrict=None) -> int:
        mask = 0
        for k, v in enumerate(self.elements):
            if restrict is not None and k not in restrict:
                continue
            if _vadd(v, ahat) in rs._element_set:
                mask |= 1 << k
        return mask


def exhaustive_verify(
    rs: RootSystem,
    name: str = "",
    order: tuple[int, ...] | None = None,
    check_each: bool = True,
) -> OrderingReport:
    """Brute-force witness search over every labeling of every order prefix.

    Independent of ``construct_witness``: for each labeling it searches
    sigma over all roots-with-zero (taking mu = sigma + hat(focus)) and
    tests conditions (2)-(3) against precomputed forbidden sets.  With
    ``check_each`` every found witness is re-verified by ``verify_witness``.
    Also runs the same search restricted to the focus's irreducible
    component, reporting both counts.
    """
    t0 = time.perf_counter()
    if order is None:
        order = diagram_order(rs)
    bits = _BitIndex(rs)
    checked = witnessed = witnessed_comp = 0
    for p in range(1, rs.rank + 1):
        focus = order[p - 1]
        ahat = rs.hat(focus)
        cand = bits.candidates(rs, ahat)
        span = set(rs.component_of_node(focus))
        restrict = {
            k
            for k, v in enumerate(bits.elements)
            if all(v[j] == 0 or j in span for j in range(rs.rank))
        }
        cand_comp = bits.candidates(rs, ahat, restrict=restrict)
        for letters in product((U, D), repeat=p - 1):
            lab = Labeling.from_prefix(order, letters + (D,))
            checked += 1
            bad = 0
            for i, l in lab.labels:
                bad |= bits.bad_down[i] if l == D else bits.bad_up[i]
            good = cand & ~bad
            if good:
                k = (good & -good).bit_length() - 1
                sigma = bits.elements[k]
                w = Witness(sigma=sigma, mu=_vadd(sigma, ahat))
                if check_each and not verify_witness(rs, lab, w).ok:
                    raise ExhaustiveCheckFailure(lab)
                witnessed += 1
            else:
                raise ExhaustiveCheckFailure(lab)
            bad_comp = 0
            for i, l in lab.labels:
                if i in span:
                    bad_comp |= bits.bad_down[i] if l == D else bits.bad_up[i]
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
