"""Independent answers for the benchmark workloads, and the checks that use them.

Nothing here calls the obstructor library: every expected value is a closed
form, a textbook table or a brute-force count written from the definitions.
The ``check_*`` functions compare a program output with these values and
record the result in a ``Tally``.
"""

from __future__ import annotations

from math import prod


class Tally:
    """Operations attempted and failed, plus notes on every mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        failed = min(attempted, failed)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} operations failed")

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes

    def require(self, ok: bool, what: str) -> None:
        """A check on a whole output; a miss makes the run incorrect."""
        if not ok:
            self.notes.append(what)

    @property
    def correct(self) -> bool:
        return not self.notes


# ---------------------------------------------------------------------------
# cone maps: pair and ray counts

def heisenberg_positions(n: int) -> int:
    return n * (n - 1) // 2


def heisenberg_pairs(n: int) -> int:
    """Unordered disjoint pairs of nonempty simplices of the signed sphere.

    Per above-diagonal position the two simplices take one of 7 of the 9
    (absent, +, -) combinations (never the same sign twice); remove the
    pairs where either simplex is empty and halve.
    """
    p = heisenberg_positions(n)
    return (7 ** p - 2 * 3 ** p + 1) // 2


def split_pairs(n: int) -> int:
    """Disjoint pairs for the join of sphere-plus-point column factors.

    Column k offers 7^(k-1) disjoint sphere-face pairs and 2*3^(k-1) pairs
    of the added point with a sphere face.
    """
    ks = range(2, n + 1)
    both = prod(7 ** (k - 1) + 2 * 3 ** (k - 1) for k in ks)
    one = prod(3 ** (k - 1) + 1 for k in ks)
    return (both - 2 * one + 1) // 2


def heisenberg_rays(n: int, samples: int = 8) -> int:
    return samples * (3 ** heisenberg_positions(n) - 1)


def split_rays(n: int, samples: int = 8) -> int:
    return samples * (prod(3 ** (k - 1) + 1 for k in range(2, n + 1)) - 1)


# ---------------------------------------------------------------------------
# homology

def obstructor_betti(n: int) -> tuple[int, ...]:
    """Betti numbers of the join of S^k-plus-point factors, k = 0..n-2.

    Reduced Poincare polynomials: P_0 = 2 and P_k = 1 + t^k; a join
    multiplies them and shifts by t, so P = t^(n-2) * prod P_k.
    """
    poly = [2]
    for k in range(1, n - 1):
        factor = [1] + [0] * (k - 1) + [1]
        out = [0] * (len(poly) + k)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    betti = [0] * (n - 2) + poly
    betti[0] += 1
    return tuple(betti)


def sphere_betti(k: int) -> tuple[int, ...]:
    return (2,) if k == 0 else (1,) + (0,) * (k - 1) + (1,)


def has_cycle(arrows) -> bool:
    """Depth-first search for a directed cycle."""
    succ: dict = {}
    for i, j in arrows:
        succ.setdefault(i, []).append(j)
    state: dict = {}

    def visit(v) -> bool:
        state[v] = 1
        for w in succ.get(v, ()):
            if state.get(w) == 1 or (w not in state and visit(w)):
                return True
        state[v] = 2
        return False

    return any(v not in state and visit(v) for v in list(succ))


def arrow_f_vector(n: int) -> tuple[int, ...]:
    """f-vector of the arrow complex: acyclic nonempty sets of arrows i -> j."""
    arrows = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    counts = [0] * len(arrows)
    for mask in range(1, 1 << len(arrows)):
        chosen = [a for b, a in enumerate(arrows) if mask >> b & 1]
        if not has_cycle(chosen):
            counts[len(chosen) - 1] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def euler(values) -> int:
    return sum((-1) ** k * c for k, c in enumerate(values))


# ---------------------------------------------------------------------------
# root systems and the dimension catalog

ROOT_TYPES: tuple[tuple[str, int], ...] = (
    tuple(("A", n) for n in range(1, 9))
    + tuple(("B", n) for n in range(2, 9))
    + tuple(("C", n) for n in range(2, 9))
    + tuple(("D", n) for n in range(4, 9))
    + (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2))
    + tuple(("BC", n) for n in range(1, 9))
)

_EXCEPTIONAL_POSITIVE = {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}


def type_name(family: str, rank: int) -> str:
    return family if family in _EXCEPTIONAL_POSITIVE else f"{family}{rank}"


def positive_roots(family: str, rank: int) -> int:
    """Textbook counts (Bourbaki, Lie groups, ch. VI, planches)."""
    n = rank
    if family in _EXCEPTIONAL_POSITIVE:
        return _EXCEPTIONAL_POSITIVE[family]
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1), "BC": n * n + n}[family]


def labelings(rank: int) -> int:
    """Labelings of every prefix of a rank-r order: sum of 2^(p-1), p = 1..r."""
    return 2 ** rank - 1


def catalog_rows() -> int:
    """Rows of ``dims --all``: the catalog grids plus two flagged Sp over rings."""
    sl_z = len(range(2, 13))
    sl_real_quadratic = len(range(2, 13))
    places = sum(1 for r in range(7) for s in range(4) if 1 <= r + s and r + 2 * s <= 6)
    sl_o = places * len(range(2, 9))
    sp_z = len(range(2, 11))
    so_q = 4 * sum(len(range(2 * q, 15)) - (q == 1) for q in range(1, 7))
    return sl_z + sl_real_quadratic + sl_o + sp_z + so_q + 2


def join_degree(shape: dict) -> int:
    """Obstruction degree m of a join shape, from its factor dimensions:
    each S^k-plus-point factor adds k + 2, a plain S^d adds d + 1, less 2."""
    sphere = shape["sphere_dim"]
    return (sphere + 1 if sphere is not None else 0) + sum(k + 2 for k in shape["plus_dims"]) - 2


# ---------------------------------------------------------------------------
# checks of program outputs

def check_suite(tally: Tally, what: str, report, expected_total: int) -> None:
    """A divergence or properness report: every expected pair or ray PASS."""
    missing = abs(report.total - expected_total)
    tally.ops(expected_total, report.failed + missing, what)
    tally.require(report.passed + report.failed == report.total, f"{what}: verdicts do not add up")


def check_betti(tally: Tally, what: str, betti, expected) -> None:
    tally.ops(1, tuple(betti) != tuple(expected), f"{what}: betti {tuple(betti)} != {tuple(expected)}")


def check_arrow_complex(tally: Tally, f_vector, betti, expected_f) -> None:
    """Program f-vector against brute force; Euler characteristic against Betti."""
    ok = tuple(f_vector) == tuple(expected_f) and euler(expected_f) == euler(betti)
    tally.ops(1, not ok, f"arrow complex: f {tuple(f_vector)}, betti {tuple(betti)}")


def check_rootsys(tally: Tally, payload: dict, rc: int, family: str, rank: int) -> None:
    ok = (
        rc == 0
        and payload["family"] == type_name(family, rank)
        and payload["rank"] == rank
        and len(payload["positives"]) == positive_roots(family, rank)
    )
    tally.ops(1, not ok, f"rootsys {type_name(family, rank)}")


def check_lemma_key(tally: Tally, payload: dict, rc: int) -> None:
    """One report per type, in order, each with every labeling witnessed."""
    reports = {r["type"]: r for r in payload["reports"]}
    for family, rank in ROOT_TYPES:
        name = type_name(family, rank)
        want = labelings(rank)
        r = reports.get(name)
        if r is None or r["rank"] != rank or r["labelings"] != want:
            witnessed = 0
        else:
            witnessed = min(r["witnesses"], r["witnesses_componentwise"], want)
        tally.ops(want, want - witnessed, f"lemma-key {name}")
    tally.require(len(payload["reports"]) == len(ROOT_TYPES), "lemma-key: wrong number of reports")
    tally.require(rc == 0 and payload["pass"], "lemma-key: run did not pass")


def _dims_row_ok(row: dict) -> bool:
    group = row["group"]
    dim = row["dim_symmetric"]
    if row["m"] != join_degree(row["shape"]):
        return False
    if group.startswith("SL_") and group.endswith("(Z)"):
        n = int(group[3:-3])
        if dim != n * (n + 1) // 2 - 1:
            return False
    holds = row["m"] + 2 == dim
    if row["identity_holds"] != holds:
        return False
    if group.startswith("Sp_") and "(O[" in group and not holds:
        return bool(row.get("note"))  # flagged, not failed
    return holds


def check_dims(tally: Tally, payload: dict, rc: int) -> None:
    rows = payload["rows"]
    want = catalog_rows()
    bad = sum(not _dims_row_ok(row) for row in rows)
    tally.ops(want, bad + abs(len(rows) - want), "dims")
    tally.require(rc == 0 and payload["pass"], "dims: run did not pass")
