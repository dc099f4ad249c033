"""Exact-arithmetic maps of cones on complexes into matrix groups.

A cone point is (simplex, barycentric weights, radius); its image under a
map is an exact rational matrix.  Divergence and properness are certified
numerically but with exact arithmetic throughout: the only rounding happens
when a statistic is rendered as a float log for reports.  PASS/FAIL
decisions compare integer statistics, never floats.

The distance proxy is D(A, B) = log max(|A^-1 B|_max, |B^-1 A|_max, 1),
which is left-invariant and symmetric; divergence statements are invariant
under the equivalence of invariant metrics, so this proxy is enough to
certify growth.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .complexes import SimplicialComplex, is_acyclic, obstructor_subcomplex
from .exact import (
    DimensionMismatch,
    ExactMatrix,
    IntRows,
    int_adjugate,
    int_matmax,
    int_matmul,
    int_max_abs,
    log_abs,
)

GROWTH_FACTOR = 1024  # statistic ratio equal to a gap of 10*log 2
WEIGHT_TOTAL = 60  # sampled barycentric weights are integers over this


class BadVertex(ValueError):
    """A vertex label is not a valid position for the requested map."""


class BadSimplex(ValueError):
    """The signed position set is not a simplex of the map's domain."""


def default_radii() -> tuple[int, ...]:
    return tuple(2 ** j for j in range(21))


@dataclass(frozen=True)
class ConePoint:
    """A point of the open cone: simplex vertices, weights summing to 1, radius."""

    simplex: tuple
    weights: tuple
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "simplex", tuple(self.simplex))
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        object.__setattr__(self, "t", Fraction(self.t))
        if len(self.simplex) != len(self.weights):
            raise ValueError("weights must match the simplex vertices")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if self.simplex and sum(self.weights) != 1:
            raise ValueError("weights must sum to 1")
        if self.t < 0:
            raise ValueError("radius must be nonnegative")

    @classmethod
    def barycenter(cls, simplex, t) -> "ConePoint":
        simplex = tuple(sorted(simplex))
        m = len(simplex)
        return cls(simplex, tuple(Fraction(1, m) for _ in simplex), Fraction(t))


class ConeMap:
    """A map from the cone on a finite complex into a matrix group."""

    def __init__(self, name: str, domain: SimplicialComplex, size: int, evaluate, scaled=None):
        self.name = name
        self.domain = domain
        self.size = size
        self._evaluate = evaluate
        self._scaled = scaled

    def __call__(self, point: ConePoint) -> ExactMatrix:
        return self._evaluate(point)

    def scaled(self, simplex, int_weights, total, t) -> tuple[IntRows, int]:
        """(den * image) as an integer matrix with its denominator.

        Weights are int_weights / total; t is an integer radius.
        """
        if self._scaled is not None:
            return self._scaled(simplex, int_weights, total, t)
        ws = [Fraction(a, total) for a in int_weights]
        g = self._evaluate(ConePoint(tuple(simplex), tuple(ws), Fraction(t)))
        return g.scaled_int()

    def __repr__(self) -> str:
        return f"ConeMap({self.name}, n={self.size})"


# ---------------------------------------------------------------------------
# the concrete maps

def _check_positions(n: int, simplex, above_only: bool) -> None:
    seen = set()
    for (i, j), s in simplex:
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise BadVertex(f"({i},{j}) is not an off-diagonal position of size {n}")
        if above_only and i >= j:
            raise BadVertex(f"({i},{j}) is not above the diagonal")
        if s not in (1, -1):
            raise BadVertex(f"sign {s!r} must be +1 or -1")
        if (i, j) in seen:
            raise BadSimplex(f"position ({i},{j}) appears twice")
        seen.add((i, j))


def heisenberg_domain(n: int) -> SimplicialComplex:
    """Sphere on the above-diagonal positions, as a join of 0-spheres."""
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    facets = [
        frozenset((p, s) for p, s in zip(positions, signs))
        for signs in product((1, -1), repeat=len(positions))
    ]
    return SimplicialComplex.from_facets(facets, assume_maximal=True)


def heisenberg_map(n: int) -> ConeMap:
    """Upper unitriangular matrices with signed weighted entries."""

    def evaluate(p: ConePoint) -> ExactMatrix:
        _check_positions(n, p.simplex, above_only=True)
        entries = {pos: s * w * p.t for (pos, s), w in zip(p.simplex, p.weights)}
        return ExactMatrix.from_entries(n, entries)

    def scaled(simplex, int_weights, total, t):
        _check_positions(n, simplex, above_only=True)
        rows = [[total if i == j else 0 for j in range(n)] for i in range(n)]
        for ((i, j), s), a in zip(simplex, int_weights):
            rows[i - 1][j - 1] = s * a * t
        return tuple(tuple(r) for r in rows), total

    return ConeMap(f"heisenberg(n={n})", heisenberg_domain(n), n, evaluate, scaled)


def _split_parts(n: int, simplex, weights, t):
    _check_positions(n, simplex, above_only=False)
    if not is_acyclic([pos for pos, _ in simplex]):
        raise BadSimplex("signed positions contain an oriented cycle")
    upper = {}
    lower = {}
    for (pos, s), w in zip(simplex, weights):
        i, j = pos
        (upper if i < j else lower)[pos] = s * w * t
    return upper, lower


def split_map(n: int) -> ConeMap:
    """Separate the above- and below-diagonal assignments into unitriangular
    factors U and L and map the cone point to the product U L."""

    def evaluate(p: ConePoint) -> ExactMatrix:
        upper, lower = _split_parts(n, p.simplex, p.weights, p.t)
        return ExactMatrix.from_entries(n, upper) @ ExactMatrix.from_entries(n, lower)

    def scaled(simplex, int_weights, total, t):
        upper, lower = _split_parts(n, simplex, int_weights, t)
        u = [[total if i == j else 0 for j in range(n)] for i in range(n)]
        l = [[total if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in upper.items():
            u[i - 1][j - 1] = v
        for (i, j), v in lower.items():
            l[i - 1][j - 1] = v
        m = int_matmul(tuple(tuple(r) for r in u), tuple(tuple(r) for r in l))
        return m, total * total

    return ConeMap(f"split(n={n})", obstructor_subcomplex(n), n, evaluate, scaled)


def superimpose_map(n: int) -> ConeMap:
    """The naive map placing every signed entry in a single matrix.

    Kept as a foil: cones on disjoint simplices need not diverge under it.
    """

    def evaluate(p: ConePoint) -> ExactMatrix:
        _check_positions(n, p.simplex, above_only=False)
        entries = {pos: s * w * p.t for (pos, s), w in zip(p.simplex, p.weights)}
        return ExactMatrix.from_entries(n, entries)

    return ConeMap(f"superimpose(n={n})", obstructor_subcomplex(n), n, evaluate)


def fibration_compose(alpha: ConeMap, beta: ConeMap, section, embed) -> ConeMap:
    """Compose maps along a fibration: (x, y) -> embed(alpha(x)) * section(beta(y)).

    The domain is the join of the two domains; a join cone point splits into
    factor cone points with radii scaled by the factor weight masses.
    """
    from .complexes import join, relabel

    domain = join(
        relabel(alpha.domain, lambda v: (0, v)),
        relabel(beta.domain, lambda v: (1, v)),
    )
    probe = embed(alpha(ConePoint((), (), 0))) @ section(beta(ConePoint((), (), 0)))
    size = probe.n

    def split_point(p: ConePoint):
        parts = {0: [], 1: []}
        for v, w in zip(p.simplex, p.weights):
            tag, raw = v
            parts[tag].append((raw, w))
        points = []
        for tag in (0, 1):
            mass = sum(w for _, w in parts[tag])
            if mass == 0:
                points.append(ConePoint((), (), 0))
            else:
                simplex = tuple(v for v, _ in parts[tag])
                weights = tuple(w / mass for _, w in parts[tag])
                points.append(ConePoint(simplex, weights, p.t * mass))
        return points

    def evaluate(p: ConePoint) -> ExactMatrix:
        x, y = split_point(p)
        g = embed(alpha(x))
        h = section(beta(y))
        if g.n != h.n:
            raise DimensionMismatch(f"{g.n} vs {h.n}")
        return g @ h

    return ConeMap(f"fibration({alpha.name},{beta.name})", domain, size, evaluate)


# ---------------------------------------------------------------------------
# size functional and distances

def d_stat(g: ExactMatrix) -> Fraction:
    """max(|g|_max, |g^-1|_max, 1) -- the exact statistic under the log."""
    return max(g.max_abs(), g.inverse().max_abs(), Fraction(1))


def size(g: ExactMatrix) -> float:
    """log of the largest entry magnitude over g and its inverse, floored at 0."""
    return log_abs(d_stat(g))


def distance(a: ExactMatrix, b: ExactMatrix) -> float:
    """Left-invariant distance proxy D(A, B) = size(A^-1 B)."""
    return size(a.inverse() @ b)


# ---------------------------------------------------------------------------
# deterministic sampling

def sample_weight_vectors(m: int, samples: int = 8, seed: int = 0, total: int = WEIGHT_TOTAL):
    """Deterministic interior weight vectors (integers over `total`).

    The first vector is the barycenter; the rest are seeded random interior
    compositions.  Every entry is >= 1 so the points avoid proper faces.
    """
    if m == 0:
        return [()]
    base, rem = divmod(total, m)
    bary = tuple(base + (1 if i < rem else 0) for i in range(m))
    out = [bary]
    rng = random.Random(f"{seed}|{m}")
    while len(out) < samples:
        a = [1] * m
        for _ in range(total - m):
            a[rng.randrange(m)] += 1
        out.append(tuple(a))
    return out


def _prep(cone_map: ConeMap, simplex, weights, total, t):
    m, den = cone_map.scaled(simplex, weights, total, t)
    return m, tuple(zip(*m)), int_adjugate(m), den


def _pair_stat(prep_a, prep_b) -> tuple[int, int]:
    """(numerator statistic, denominator) of max(|A^-1B|, |B^-1A|, 1)."""
    ma, ma_t, adja, dena = prep_a
    mb, mb_t, adjb, denb = prep_b
    n = len(ma)
    den = dena ** (n - 1) * denb
    den_ba = denb ** (n - 1) * dena
    s1 = int_matmax(adja, mb_t)
    s2 = int_matmax(adjb, ma_t)
    if den == den_ba:
        return max(s1, s2, den), den
    # differing denominators: compare via a common one
    common = den * den_ba
    return max(s1 * den_ba, s2 * den, common), common


def _ray_stat(prep) -> tuple[int, int]:
    m, _, adj, den = prep
    n = len(m)
    denpow = den ** (n - 1)
    return max(int_max_abs(m) * den ** (n - 2), int_max_abs(adj), denpow), denpow


# ---------------------------------------------------------------------------
# reports

@dataclass
class PairReport:
    sigma: tuple
    tau: tuple
    radii: tuple[int, ...]
    d_curve: list[float]
    growth: float
    status: str  # PASS / FAIL / INADMISSIBLE

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json(self) -> dict:
        return {
            "sigma": [[list(p), s] for p, s in self.sigma],
            "tau": [[list(p), s] for p, s in self.tau],
            "radii": list(self.radii),
            "d": [round(d, 4) for d in self.d_curve],
            "growth": round(self.growth, 4),
            "verdict": self.status,
        }


@dataclass
class SuiteReport:
    map_name: str
    kind: str
    total: int
    passed: int
    failed: int
    min_growth: float
    elapsed_s: float
    sampling: str
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0 and self.total > 0

    def to_json(self) -> dict:
        out = {
            "map": self.map_name,
            "kind": self.kind,
            "pairs" if self.kind == "divergence" else "rays": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "min_growth": round(self.min_growth, 4),
            "elapsed_s": round(self.elapsed_s, 3),
            "sampling": self.sampling,
            "failures": self.failures[:20],
            "pass": self.all_passed,
        }
        if self.rows:
            out["rows"] = self.rows
        return out


def _simplices_sorted(domain: SimplicialComplex):
    return sorted(domain.simplices(), key=lambda s: (len(s), sorted(map(repr, s))))


def divergence_test(
    cone_map: ConeMap,
    sigma,
    tau,
    radii: tuple[int, ...] | None = None,
    samples: int = 8,
    seed: int = 0,
    growth_factor: int = GROWTH_FACTOR,
) -> PairReport:
    """Certify that the cones on two disjoint simplices move apart.

    Samples interior points of both simplices (full cross product), tracks
    the distance statistic along the radius schedule, and passes when the
    final statistic exceeds the initial one by the growth factor for every
    sampled pair of rays.
    """
    sigma = tuple(sorted(sigma))
    tau = tuple(sorted(tau))
    radii = tuple(radii) if radii is not None else default_radii()
    if not sigma or not tau or set(sigma) & set(tau):
        return PairReport(sigma, tau, radii, [], 0.0, "INADMISSIBLE")
    wa = sample_weight_vectors(len(sigma), samples, seed)
    wb = sample_weight_vectors(len(tau), samples, seed + 1)
    prep_a = [[_prep(cone_map, sigma, w, WEIGHT_TOTAL, t) for t in radii] for w in wa]
    prep_b = [[_prep(cone_map, tau, w, WEIGHT_TOTAL, t) for t in radii] for w in wb]
    d_curve = []
    stats = {}
    for k in range(len(radii)):
        best = None
        for i in range(len(wa)):
            for j in range(len(wb)):
                num, den = _pair_stat(prep_a[i][k], prep_b[j][k])
                stats[i, j, k] = (num, den)
                d = math.log(num) - math.log(den)
                best = d if best is None else min(best, d)
        d_curve.append(best)
    growth = None
    ok = True
    last = len(radii) - 1
    for i in range(len(wa)):
        for j in range(len(wb)):
            nf, df = stats[i, j, 0]
            nl, dl = stats[i, j, last]
            if nl * df < growth_factor * nf * dl:
                ok = False
            g = (math.log(nl) - math.log(dl)) - (math.log(nf) - math.log(df))
            growth = g if growth is None else min(growth, g)
    return PairReport(sigma, tau, radii, d_curve, growth, "PASS" if ok else "FAIL")


def divergence_suite(
    cone_map: ConeMap,
    radii: tuple[int, ...] = (1, 2 ** 20),
    samples: int = 8,
    seed: int = 0,
    pairing: str = "cross",
    growth_factor: int = GROWTH_FACTOR,
    collect_rows: bool = False,
) -> SuiteReport:
    """Run the divergence check over every disjoint pair of domain simplices.

    With pairing="aligned" the i-th sampled point of one simplex is paired
    with the i-th of the other (bulk mode); "cross" pairs all combinations.
    The verdict per pair compares exact integer statistics at the first and
    last radius.
    """
    t0 = time.perf_counter()
    simplices = _simplices_sorted(cone_map.domain)
    first_r, last_r = radii[0], radii[-1]
    prep = []
    for s in simplices:
        s_sorted = tuple(sorted(s))
        ws = sample_weight_vectors(len(s_sorted), samples, seed)
        prep.append(
            (
                s_sorted,
                [(_prep(cone_map, s_sorted, w, WEIGHT_TOTAL, first_r), _prep(cone_map, s_sorted, w, WEIGHT_TOTAL, last_r)) for w in ws],
            )
        )
    n_pairs = passed = failed = 0
    min_growth = None
    failures = []
    rows = []
    npts = samples
    for a in range(len(prep)):
        sa, pa = prep[a]
        set_a = set(sa)
        for b in range(a + 1, len(prep)):
            sb, pb = prep[b]
            if set_a & set(sb):
                continue
            n_pairs += 1
            if pairing == "aligned":
                combos = [(i, i) for i in range(npts)]
            else:
                combos = [(i, j) for i in range(npts) for j in range(npts)]
            ok = True
            worst = None
            d_first = d_last = None
            for i, j in combos:
                nf, df = _pair_stat(pa[i][0], pb[j][0])
                nl, dl = _pair_stat(pa[i][1], pb[j][1])
                if nl * df < growth_factor * nf * dl:
                    ok = False
                gf = math.log(nf) - math.log(df)
                gl = math.log(nl) - math.log(dl)
                g = gl - gf
                worst = g if worst is None else min(worst, g)
                d_first = gf if d_first is None else min(d_first, gf)
                d_last = gl if d_last is None else min(d_last, gl)
            if ok:
                passed += 1
            else:
                failed += 1
                if len(failures) < 20:
                    failures.append({"sigma": repr(sa), "tau": repr(sb), "growth": round(worst, 4)})
            if collect_rows:
                rows.append(
                    {
                        "sigma": repr(sa),
                        "tau": repr(sb),
                        "radii": [first_r, last_r],
                        "d": [round(d_first, 4), round(d_last, 4)],
                        "growth": round(worst, 4),
                        "verdict": "PASS" if ok else "FAIL",
                    }
                )
            min_growth = worst if min_growth is None else min(min_growth, worst)
    return SuiteReport(
        map_name=cone_map.name,
        kind="divergence",
        total=n_pairs,
        passed=passed,
        failed=failed,
        min_growth=min_growth if min_growth is not None else 0.0,
        elapsed_s=time.perf_counter() - t0,
        sampling=pairing,
        failures=failures,
        rows=rows,
    )


def properness_test(
    cone_map: ConeMap,
    radii: tuple[int, ...] | None = None,
    samples: int = 8,
    seed: int = 0,
    growth_factor: int = GROWTH_FACTOR,
) -> SuiteReport:
    """Check that sampled rays leave every bounded set, monotonically.

    For each simplex and each sampled interior point, the size statistic
    must be nondecreasing along the radius schedule and must grow by the
    margin overall.
    """
    t0 = time.perf_counter()
    radii = tuple(radii) if radii is not None else default_radii()
    simplices = _simplices_sorted(cone_map.domain)
    checked = passed = failed = 0
    min_growth = None
    failures = []
    for s in simplices:
        s_sorted = tuple(sorted(s))
        for w in sample_weight_vectors(len(s_sorted), samples, seed):
            checked += 1
            stats = [_ray_stat(_prep(cone_map, s_sorted, w, WEIGHT_TOTAL, t)) for t in radii]
            monotone = all(
                stats[k][0] * stats[k + 1][1] <= stats[k + 1][0] * stats[k][1]
                for k in range(len(stats) - 1)
            )
            nf, df = stats[0]
            nl, dl = stats[-1]
            grew = nl * df >= growth_factor * nf * dl
            g = (math.log(nl) - math.log(dl)) - (math.log(nf) - math.log(df))
            min_growth = g if min_growth is None else min(min_growth, g)
            if monotone and grew:
                passed += 1
            else:
                failed += 1
                if len(failures) < 20:
                    failures.append(
                        {"simplex": repr(s_sorted), "monotone": monotone, "growth": round(g, 4)}
                    )
    return SuiteReport(
        map_name=cone_map.name,
        kind="properness",
        total=checked,
        passed=passed,
        failed=failed,
        min_growth=min_growth if min_growth is not None else 0.0,
        elapsed_s=time.perf_counter() - t0,
        sampling="rays",
        failures=failures,
    )


# ---------------------------------------------------------------------------
# split-product growth experiment

def split_residual(u: ExactMatrix, lam: ExactMatrix, u2: ExactMatrix, lam2: ExactMatrix) -> ExactMatrix:
    """(U L)^-1 U' L', computed exactly."""
    return (u @ lam).inverse() @ (u2 @ lam2)


@dataclass
class GrowthResult:
    n: int
    magnitude: int
    samples: int
    seed: int
    min_max_entry: int
    max_max_entry: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "magnitude": self.magnitude,
            "samples": self.samples,
            "seed": self.seed,
            "min_max_entry": self.min_max_entry,
            "max_max_entry": self.max_max_entry,
        }


def split_growth_experiment(n: int, magnitude: int, samples: int, seed: int = 0) -> GrowthResult:
    """Random split products with first-subdiagonal lower parts.

    Per sample: U, U' are random integral upper unitriangular matrices; the
    lower parts live on the first subdiagonal with each slot owned by
    exactly one of them (the other holds 0) and the largest entry magnitude
    forced to be exactly `magnitude`.  Returns the min/max over samples of
    the largest absolute entry of (U L)^-1 U' L'.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(f"{seed}|{n}|{magnitude}")
    lo = hi = None
    for _ in range(samples):
        def rand_upper():
            e = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    e[(i, j)] = rng.randint(-3, 3)
            return ExactMatrix.from_entries(n, e)

        u, u2 = rand_upper(), rand_upper()
        owners = [rng.randrange(2) for _ in range(n - 1)]
        values = []
        for _ in range(n - 1):
            v = rng.randint(1, magnitude) * rng.choice((1, -1))
            values.append(v)
        k = rng.randrange(n - 1)
        values[k] = magnitude * rng.choice((1, -1))
        lam_e, lam2_e = {}, {}
        for j in range(1, n):
            (lam_e if owners[j - 1] == 0 else lam2_e)[(j + 1, j)] = values[j - 1]
        lam = ExactMatrix.from_entries(n, lam_e)
        lam2 = ExactMatrix.from_entries(n, lam2_e)
        s = split_residual(u, lam, u2, lam2)
        m = int(s.max_abs())
        lo = m if lo is None else min(lo, m)
        hi = m if hi is None else max(hi, m)
    return GrowthResult(n, magnitude, samples, seed, lo, hi)


# ---------------------------------------------------------------------------
# adjoint components

def adjoint_component(g: ExactMatrix, source: tuple[int, int], target: tuple[int, int]) -> Fraction:
    """Coefficient of the target elementary matrix in g E_source g^-1."""
    i, j = source
    k, l = target
    n = g.n
    for a, b in (source, target):
        if not (1 <= a <= n and 1 <= b <= n):
            raise BadVertex(f"position out of range for size {n}")
    if i == j or k == l:
        raise BadVertex("positions must be off-diagonal")
    ginv = g.inverse()
    return g[k, i] * ginv[j, l]


def exp_nilpotent(x: ExactMatrix) -> ExactMatrix:
    """exp of a nilpotent matrix (the series terminates; exact)."""
    n = x.n
    out = ExactMatrix.identity(n)
    term = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        term = term @ x
        if all(v == 0 for row in term.rows for v in row):
            break
        out = ExactMatrix([[o + t / math.factorial(k) for o, t in zip(orow, trow)] for orow, trow in zip(out.rows, term.rows)])
    else:
        if any(v != 0 for row in (term @ x).rows for v in row):
            raise ValueError("matrix is not nilpotent")
    return out
