"""Tests of the benchmark's own checks.

    python3 -m pytest -q perfbench

Each closed form must agree with a brute-force count from the definitions at
n = 3, and each check must reject an output that is off by one.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
from oracles import Tally  # noqa: E402


# ---------------------------------------------------------------------------
# closed forms against brute force

def _heisenberg_simplices(n: int) -> list[frozenset]:
    """Nonempty partial sign assignments on the above-diagonal positions."""
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return _partial_signings(positions)


def _split_simplices(n: int) -> list[frozenset]:
    """Join of column factors: a partial signing of column k, or its point."""
    factors = []
    for k in range(2, n + 1):
        faces = [frozenset()] + _partial_signings([(i, k) for i in range(1, k)])
        factors.append(faces + [frozenset({((k, k - 1), 1)})])
    out = [frozenset()]
    for faces in factors:
        out = [a | b for a in out for b in faces]
    return [s for s in out if s]


def _partial_signings(positions) -> list[frozenset]:
    out = [frozenset()]
    for p in positions:
        out = [s | extra for s in out for extra in (frozenset(), {(p, 1)}, {(p, -1)})]
    return [s for s in out if s]


def _disjoint_pairs(simplices) -> int:
    return sum(1 for a, b in combinations(simplices, 2) if not a & b)


def test_pair_and_ray_closed_forms_match_brute_force_at_n3():
    heis = _heisenberg_simplices(3)
    split = _split_simplices(3)
    assert oracles.heisenberg_pairs(3) == _disjoint_pairs(heis) == 145
    assert oracles.split_pairs(3) == _disjoint_pairs(split) == 396
    assert oracles.heisenberg_rays(3) == 8 * len(heis)
    assert oracles.split_rays(3) == 8 * len(split)


def test_closed_forms_at_n4_are_the_quoted_sizes():
    assert oracles.heisenberg_pairs(4) == 58_096
    assert oracles.split_pairs(4) == 171_774
    assert oracles.heisenberg_rays(4) == 5_824
    assert oracles.split_rays(4) == 8_952


def test_brute_force_simplices_are_the_library_domains_at_n3():
    from obstructor import heisenberg_map, split_map

    assert set(_heisenberg_simplices(3)) == heisenberg_map(3).domain.simplices()
    assert set(_split_simplices(3)) == split_map(3).domain.simplices()


def _rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _betti(simplices) -> tuple[int, ...]:
    by_dim: dict[int, list] = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    top = max(by_dim)
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        index = {s: i for i, s in enumerate(by_dim[k - 1])}
        rows = [[0] * len(by_dim[k]) for _ in by_dim[k - 1]]
        for col, s in enumerate(by_dim[k]):
            for drop in range(len(s)):
                rows[index[s[:drop] + s[drop + 1:]]][col] = (-1) ** drop
        ranks[k] = _rank(rows)
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))


def test_join_formula_matches_brute_force_homology_at_n3():
    assert oracles.obstructor_betti(3) == _betti(_split_simplices(3))
    assert oracles.obstructor_betti(2) == (3,)
    assert oracles.obstructor_betti(4) == (1, 0, 2, 2, 2, 2)
    assert oracles.obstructor_betti(5) == (1, 0, 0, 2, 2, 2, 4, 2, 2, 2)


def test_sphere_betti_matches_brute_force():
    for k in range(4):
        sphere = [frozenset(zip(range(k + 1), signs)) for signs in product((1, -1), repeat=k + 1)]
        faces = {frozenset(c) for f in sphere for c in _subsets(f)}
        assert oracles.sphere_betti(k) == _betti(faces)


def _subsets(f):
    items = sorted(f)
    for mask in range(1, 1 << len(items)):
        yield [x for b, x in enumerate(items) if mask >> b & 1]


def test_arrow_f_vector_at_n3():
    assert oracles.arrow_f_vector(3) == (6, 12, 6)
    assert oracles.euler(oracles.arrow_f_vector(3)) == 0
    assert oracles.has_cycle([(1, 2), (2, 3), (3, 1)])
    assert not oracles.has_cycle([(1, 2), (2, 3), (1, 3)])


def _classical_positive_roots(family: str, n: int) -> int:
    """Count positive roots from their orthonormal descriptions."""
    pairs = n * (n - 1) // 2
    if family == "A":
        return (n + 1) * n // 2  # e_i - e_j, i < j, in dimension n + 1
    short = {"B": n, "C": 0, "D": 0, "BC": n}[family]  # e_i
    long_ = {"B": 0, "C": n, "D": 0, "BC": n}[family]  # 2 e_i
    return 2 * pairs + short + long_  # e_i - e_j and e_i + e_j, i < j


def test_root_and_labeling_counts_match_brute_force_at_rank3():
    for family in ("A", "B", "C", "BC"):
        assert oracles.positive_roots(family, 3) == _classical_positive_roots(family, 3)
    assert oracles.positive_roots("D", 4) == _classical_positive_roots("D", 4)
    order = (0, 1, 2)
    prefixes = [
        (order[:p], letters + ("D",))
        for p in range(1, 4)
        for letters in product("UD", repeat=p - 1)
    ]
    assert oracles.labelings(3) == len(prefixes) == 7
    assert sum(oracles.labelings(r) for _, r in oracles.ROOT_TYPES) == 2960
    assert oracles.catalog_rows() == 326


# ---------------------------------------------------------------------------
# each check rejects a wrong output

def _suite(total, failed=0):
    return SimpleNamespace(total=total, passed=total - failed, failed=failed)


def test_suite_check_rejects_a_count_off_by_one_or_a_fail():
    for report, failed in ((_suite(396), 0), (_suite(395), 1), (_suite(397), 1), (_suite(396, 1), 1)):
        t = Tally()
        oracles.check_suite(t, "pairs", report, oracles.split_pairs(3))
        assert (t.attempted, t.failed, t.correct) == (396, failed, failed == 0)


def test_homology_checks_reject_a_betti_tuple_off_by_one():
    t = Tally()
    oracles.check_betti(t, "L(4)", (1, 0, 2, 2, 2, 2), oracles.obstructor_betti(4))
    assert t.correct
    oracles.check_betti(t, "L(4)", (1, 0, 2, 2, 2, 3), oracles.obstructor_betti(4))
    assert (t.attempted, t.failed, t.correct) == (2, 1, False)


def test_arrow_check_rejects_an_f_vector_or_betti_off_by_one():
    f = oracles.arrow_f_vector(3)
    for f_vector, betti, ok in (
        (f, (1, 1, 0), True),
        ((6, 12, 7), (1, 1, 0), False),
        (f, (1, 1, 1), False),
    ):
        t = Tally()
        oracles.check_arrow_complex(t, f_vector, betti, f)
        assert t.correct is ok


def _cli(argv):
    from obstructor import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return json.loads(out.getvalue()), rc


def test_rootsys_check_accepts_the_program_and_rejects_a_wrong_count():
    payload, rc = _cli(["rootsys", "--family", "E6", "--rank", "6", "--json"])
    t = Tally()
    oracles.check_rootsys(t, payload, rc, "E6", 6)
    assert t.correct
    payload["positives"].pop()
    oracles.check_rootsys(t, payload, rc, "E6", 6)
    assert (t.attempted, t.failed) == (2, 1)


@pytest.fixture(scope="module")
def lemma_key():
    return _cli(["lemma-key", "--all", "--json"])


def test_lemma_key_check_accepts_the_program(lemma_key):
    t = Tally()
    oracles.check_lemma_key(t, *lemma_key)
    assert (t.attempted, t.failed, t.correct) == (2960, 0, True)


@pytest.mark.parametrize("field", ["labelings", "witnesses", "witnesses_componentwise"])
def test_lemma_key_check_rejects_a_count_off_by_one(lemma_key, field):
    payload, rc = json.loads(json.dumps(lemma_key[0])), lemma_key[1]
    e8 = next(r for r in payload["reports"] if r["type"] == "E8")
    e8[field] -= 1
    t = Tally()
    oracles.check_lemma_key(t, payload, rc)
    assert t.failed >= 1 and not t.correct


@pytest.fixture(scope="module")
def dims():
    return _cli(["dims", "--all", "--json"])


def test_dims_check_accepts_the_program(dims):
    t = Tally()
    oracles.check_dims(t, *dims)
    assert (t.attempted, t.failed, t.correct) == (326, 0, True)


def _perturbed(dims, group, change):
    payload = json.loads(json.dumps(dims[0]))
    row = next(r for r in payload["rows"] if r["group"] == group)
    change(payload, row)
    t = Tally()
    oracles.check_dims(t, payload, dims[1])
    return t


def test_dims_check_rejects_a_wrong_row(dims):
    def dim_off(payload, row):
        # consistent with itself, so only dim G/K = n(n+1)/2 - 1 catches it
        row["dim_symmetric"] += 1
        row["m"] += 1
        row["shape"]["plus_dims"][-1] += 1

    def unflagged(payload, row):
        row.pop("note")

    def dropped(payload, row):
        payload["rows"].remove(row)

    for group, change in (("SL_3(Z)", dim_off), ("Sp_6(O[r=2,s=0])", unflagged), ("SL_5(Z)", dropped)):
        t = _perturbed(dims, group, change)
        assert t.failed == 1 and not t.correct, group
