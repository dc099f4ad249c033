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
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, groupby, islice, product, repeat
from operator import add, mul

from .complexes import SimplicialComplex, is_acyclic, obstructor_subcomplex, sphere_preimage
from .exact import (
    DimensionMismatch,
    ExactMatrix,
    IntRows,
    int_adjugate,
    int_matmax,
    int_matmul,
    int_max_abs,
    int_poly_max_abs,
    unipotent_adjugate,
)

GROWTH_FACTOR = 1024  # statistic ratio equal to a gap of 10*log 2
WEIGHT_TOTAL = 60  # sampled barycentric weights are integers over this


class BadVertex(ValueError):
    """A vertex label is not a valid position for the requested map."""


class BadSimplex(ValueError):
    """The signed position set is not a simplex of the map's domain."""


def default_radii() -> tuple[int, ...]:
    return tuple(2 ** j for j in range(21))


def _check_weights(simplex, weights, total) -> None:
    """Refuse weights unless they are one nonnegative weight per vertex summing to `total`."""
    if len(simplex) != len(weights):
        raise ValueError("weights must match the simplex vertices")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if simplex and sum(weights) != total:
        raise ValueError("weights must sum to 1")


def _check_radii(radii) -> None:
    """Refuse an empty schedule and a negative radius, for every map and every cone point."""
    if not radii:
        raise ValueError("the radius schedule is empty")
    if any(t < 0 for t in radii):
        raise ValueError("radius must be nonnegative")


def _rows(flat, n: int) -> tuple[IntRows, ...]:
    """Flat n*n coefficient lists as n x n integer matrices."""
    return tuple([tuple([tuple(y[i:i + n]) for i in range(0, n * n, n)]) for y in flat])


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
        _check_weights(self.simplex, self.weights, 1)
        _check_radii((self.t,))


class ConeMap:
    """A map from the cone on a finite complex into a matrix group."""

    def __init__(self, name: str, domain: SimplicialComplex, size: int, evaluate, image=None):
        self.name, self.domain, self.size = name, domain, size
        self._evaluate, self._image = evaluate, image

    def __call__(self, point: ConePoint) -> ExactMatrix:
        return self._evaluate(point)

    def image(self, simplex) -> tuple[list, int, bool] | None:
        """(terms, d, acyclic): the hook's image I + Y(x) over `simplex`, checked; None without a hook.

        The hook gives {exponent tuple of x_v = t w_v, in the simplex's vertex order: {(i, j): c}}
        and d, with den = WEIGHT_TOTAL^d; exponents and c must be ints, of degree 1 to d and on the
        matrix (else ValueError).  terms lists (vertices with multiplicity, flat position (i-1) n +
        j-1, c), sorted.  An acyclic support proves Y nilpotent on every ray; else each ray's
        substitution checks Y^n = 0.
        """
        if self._image is None:
            return None
        terms, d = self._image(simplex)
        n, index = self.size, set(range(1, self.size + 1))
        if type(d) is not int or d < 0 or any(
                len(e) != len(simplex) or not 0 < sum(e) <= d or {*map(type, (*e, *c.values()))} != {int}
                or min(e) < 0 or not index.issuperset(chain.from_iterable(c)) for e, c in terms.items()):
            raise ValueError(f"{self.name}: the image over {simplex} is not I + Y(x) with Y {n} x {n} of "
                             f"degree 1 to {d}, so it is not certified to have determinant 1")
        terms = sorted([(tuple([v for v, a in enumerate(e) for _ in range(a)]), i * n + j - n - 1, c)
                        for e, cs in terms.items() for (i, j), c in cs.items()])
        return terms, d, is_acyclic([divmod(ij, n) for _, ij, c in terms if c])

    def polynomial(self, simplex, int_weights, image=None) -> tuple[tuple[IntRows, ...], int] | None:
        """(ys, den) with den * image(t) = den I + sum_k ys[k-1] t^k, or None without a hook.

        ys[k-1] sums den c x^e / t^k over the terms of degree k of the image
        (`image`, or ConeMap.image) at x = t int_weights / WEIGHT_TOTAL, with
        trailing all-zero coefficients dropped.  Weights are refused as
        ConePoint refuses them.
        """
        image = image or self.image(simplex)
        if image is None:
            return None
        (ys, den), = self._substitute(simplex, [int_weights], image)
        return _rows(ys, self.size), den

    def _substitute(self, simplex, weight_vectors, image):
        """Yield polynomial's (ys, den) at each weight vector, each coefficient a flat n*n list."""
        terms, d, acyclic = image
        n, den = self.size, WEIGHT_TOTAL ** d
        for w in weight_vectors:
            _check_weights(simplex, w, WEIGHT_TOTAL)
            ys = [[0] * (n * n) for _ in range(d)]
            for vertices, ij, c in terms:  # den c x^e / t^k = c total^(d-k) w^e, at k = len(vertices)
                k = len(vertices)
                ys[k - 1][ij] += c * WEIGHT_TOTAL ** (d - k) * math.prod(map(w.__getitem__, vertices))
            while ys and not any(ys[-1]):
                ys.pop()
            if not acyclic and unipotent_adjugate(n, _rows(ys, n), den) is None:
                raise ValueError(f"{self.name}: the image's Y(t) over {simplex} is not nilpotent, so "
                                 "den*I + Y(t) is not certified to have determinant 1")
            yield ys, den

    def scaled(self, simplex, weight_vectors, radii, image=None) -> list[list[tuple[IntRows, int]]]:
        """Per weight vector (over WEIGHT_TOTAL), (den * image, den) of its ray at each radius.

        A hook's image (`image`, or ConeMap.image) is read once and each
        ray's polynomial evaluated at each radius; without a hook each
        radius is evaluated exactly.
        """
        image = image or self.image(simplex)
        if image is None:
            return [[self._evaluate(ConePoint(simplex, [Fraction(a, WEIGHT_TOTAL) for a in w], t)).scaled_int()
                     for t in radii] for w in weight_vectors]
        n = self.size
        out = []
        for ys, den in self._substitute(simplex, weight_vectors, image):
            head = [den if i % (n + 1) == 0 else 0 for i in range(n * n)]  # den I, flat
            ray = []
            for t in radii:
                flat = head
                for k, c in enumerate(ys, 1):
                    flat = map(add, flat, map(mul, c, repeat(t ** k)))
                flat = tuple(flat)
                ray.append((tuple(flat[i:i + n] for i in range(0, n * n, n)), den))
            out.append(ray)
        return out

    def __repr__(self) -> str:
        return f"ConeMap({self.name}, n={self.size})"


# ---------------------------------------------------------------------------
# the concrete maps

def _signed_entries(n: int, simplex, weights, t, above_only: bool) -> dict:
    """{position: sign * weight * t} over the signed vertices, each one checked."""
    entries = {}
    for ((i, j), s), w in zip(simplex, weights):
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise BadVertex(f"({i},{j}) is not an off-diagonal position of size {n}")
        if above_only and i >= j:
            raise BadVertex(f"({i},{j}) is not above the diagonal")
        if s not in (1, -1):
            raise BadVertex(f"sign {s!r} must be +1 or -1")
        if (i, j) in entries:
            raise BadSimplex(f"position ({i},{j}) appears twice")
        entries[i, j] = s * w * t
    return entries


def heisenberg_domain(n: int) -> SimplicialComplex:
    """Sphere on the above-diagonal positions: the signed double of their one simplex."""
    if n < 2:
        raise ValueError("need n >= 2")
    return sphere_preimage((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _linear_terms(simplex) -> dict:
    """{exponent tuple of x_v: {position of v: sign of v}} over the simplex's vertices v."""
    return {tuple([int(q == p) for q, _ in simplex]): {p: s} for p, s in simplex}


def _entry_map(name: str, n: int, domain: SimplicialComplex, above_only: bool) -> ConeMap:
    """I plus every signed weighted entry in one matrix, on `domain`."""

    def evaluate(p: ConePoint) -> ExactMatrix:
        return ExactMatrix.from_entries(n, _signed_entries(n, p.simplex, p.weights, p.t, above_only))

    def image(simplex):
        _signed_entries(n, simplex, repeat(1), 1, above_only)  # checks every vertex
        return _linear_terms(simplex), 1  # Y(x) = sum_v s_v x_v E_p(v)

    return ConeMap(name, domain, n, evaluate, image)


def heisenberg_map(n: int) -> ConeMap:
    """Upper unitriangular matrices with signed weighted entries: the
    construction of superimpose_map on the above-diagonal sphere."""
    return _entry_map(f"heisenberg(n={n})", n, heisenberg_domain(n), above_only=True)


def _split_parts(n: int, simplex, weights, t):
    entries = _signed_entries(n, simplex, weights, t, above_only=False)
    if not is_acyclic(entries):
        raise BadSimplex("signed positions contain an oriented cycle")
    upper = {(i, j): v for (i, j), v in entries.items() if i < j}
    return upper, {p: v for p, v in entries.items() if p not in upper}


def split_map(n: int) -> ConeMap:
    """Separate the above- and below-diagonal assignments into unitriangular
    factors U and L and map the cone point to the product U L."""

    def evaluate(p: ConePoint) -> ExactMatrix:
        upper, lower = _split_parts(n, p.simplex, p.weights, p.t)
        return ExactMatrix.from_entries(n, upper) @ ExactMatrix.from_entries(n, lower)

    def image(simplex):
        # (I + N_U(x))(I + N_L(x)) = I + N_U + N_L + N_U N_L, of declared
        # degree 2, so den is total^2 on every simplex.  N_U N_L has a term
        # x_u x_v for each upper u at (i, k) and lower v at (k, l), never on
        # L(n): its lower vertices are the added points ((k, k-1), +), and a
        # simplex takes column k's sphere or its point, never both
        upper, lower = _split_parts(n, simplex, repeat(1), 1)
        terms = _linear_terms(simplex)
        terms.update({tuple([(q == (i, k)) + (q == (j, l)) for q, _ in simplex]): {(i, l): s * r}
                      for (i, k), s in upper.items() for (j, l), r in lower.items() if j == k})
        return terms, 2

    return ConeMap(f"split(n={n})", obstructor_subcomplex(n), n, evaluate, image)


def superimpose_map(n: int) -> ConeMap:
    """The naive map placing every signed entry in a single matrix: the
    construction of heisenberg_map on the domain of split_map.

    On that domain it is split_map: no simplex of L(n) has split's N_U N_L
    terms, so both images are I + N(x).  They differ only off the domain,
    where its bounded pairs of drifting sequences live: its cones on
    <12+,23+,13+> and <13-,32+> hold such pairs, and <13-,32+> is not a
    simplex of L(3): 13- lies on the column-3 sphere and 32+ is that
    column's added point.
    """
    return _entry_map(f"superimpose(n={n})", n, obstructor_subcomplex(n), above_only=False)


def fibration_compose(alpha: ConeMap, beta: ConeMap, section, embed) -> ConeMap:
    """Compose maps along a fibration: (x, y) -> embed(alpha(x)) * section(beta(y)).

    The domain is the join of the two domains; a join cone point splits into
    factor cone points with radii scaled by the factor weight masses.
    """
    from .complexes import join, relabel

    domain = join(relabel(alpha.domain, lambda v: (0, v)), relabel(beta.domain, lambda v: (1, v)))
    size = (embed(alpha(ConePoint((), (), 0))) @ section(beta(ConePoint((), (), 0)))).n

    def evaluate(p: ConePoint) -> ExactMatrix:
        parts = {0: [], 1: []}
        for (tag, raw), w in zip(p.simplex, p.weights):
            parts[tag].append((raw, w))
        x, y = (ConePoint([v for v, _ in part], [w / m for _, w in part], p.t * m)
                if (m := sum(w for _, w in part)) else ConePoint((), (), 0) for part in parts.values())
        return embed(alpha(x)) @ section(beta(y))  # DimensionMismatch if their sizes differ

    return ConeMap(f"fibration({alpha.name},{beta.name})", domain, size, evaluate)


# ---------------------------------------------------------------------------
# size functional and distances

def d_stat(g: ExactMatrix) -> Fraction:
    """max(|g|_max, |g^-1|_max, 1) -- the exact statistic under the log."""
    return max(g.max_abs(), g.inverse().max_abs(), Fraction(1))


def size(g: ExactMatrix) -> float:
    """log of the largest entry magnitude over g and its inverse, floored at 0."""
    return _log_stat(d_stat(g).as_integer_ratio())


def distance(a: ExactMatrix, b: ExactMatrix) -> float:
    """Left-invariant distance proxy D(A, B) = size(A^-1 B)."""
    return size(a.inverse() @ b)


# ---------------------------------------------------------------------------
# deterministic sampling

@cache
def sample_weight_vectors(m: int, samples: int = 8, seed: int = 0):
    """Deterministic interior weight vectors (integers over WEIGHT_TOTAL), as a tuple.

    The first vector is the barycenter; the rest are seeded random interior
    compositions.  Every entry is >= 1 so the points avoid proper faces.
    The result depends only on the arguments and is computed once for each.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if m > WEIGHT_TOTAL:
        raise ValueError(f"no interior weights over {WEIGHT_TOTAL} on {m} vertices")
    if m == 0:
        return ((),)
    base, rem = divmod(WEIGHT_TOTAL, m)
    bary = tuple(base + (1 if i < rem else 0) for i in range(m))
    out = [bary]
    rng = random.Random(f"{seed}|{m}")
    while len(out) < samples:
        a = [1] * m
        for _ in range(WEIGHT_TOTAL - m):
            a[rng.randrange(m)] += 1
        out.append(tuple(a))
    return tuple(out)


def _prep(cone_map: ConeMap, simplex, m: IntRows, den: int):
    """(m transposed, adj m, den) for the image m/den, which must be size x size with det 1."""
    if len(m) != cone_map.size:
        raise DimensionMismatch(f"{cone_map.name}: the image over {simplex} is {len(m)} x {len(m)}, "
                                f"not {cone_map.size} x {cone_map.size}")
    m_t = tuple(zip(*m))
    adj = int_adjugate(m)
    # the statistics take adj(m)/den^(n-1) for (m/den)^-1, true only at det 1;
    # row 0 of adj(m) times column 0 of m is det(m), which must be den^n
    if sum(map(mul, adj[0], m_t[0])) != den ** len(m):
        raise ValueError(f"{cone_map.name}: the image over {simplex} does not have determinant 1")
    return m_t, adj, den


def _rays(cone_map: ConeMap, simplex, weight_vectors, radii, image=None) -> list[list[tuple]]:
    """_prep at every radius of each ray of `simplex`, at weights in `weight_vectors` / WEIGHT_TOTAL."""
    return [[_prep(cone_map, simplex, m, den) for m, den in ray]
            for ray in cone_map.scaled(simplex, weight_vectors, radii, image)]


def _sampled_rays(cone_map: ConeMap, simplex, samples: int, seed: int, radii, image=None) -> list[list]:
    """_rays at the sampled weight vectors of `simplex`."""
    return _rays(cone_map, simplex, sample_weight_vectors(len(simplex), samples, seed), radii, image)


def _pair_stat(prep_a, prep_b) -> tuple[int, int]:
    """(numerator statistic, denominator) of max(|A^-1B|, |B^-1A|, 1)."""
    ma_t, adja, dena = prep_a
    mb_t, adjb, denb = prep_b
    n = len(ma_t)
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
    m_t, adj, den = prep
    n = len(m_t)
    denpow = den ** (n - 1)
    return max(int_max_abs(m_t) * den ** (n - 2), int_max_abs(adj), denpow), denpow


def _ray_stats(cone_map: ConeMap, simplex, weights, radii, poly=None) -> list[tuple[int, int]]:
    """_ray_stat of one sampled ray at each radius.

    A map without an `image` hook takes its _rays, a _prep per radius.  With one,
    its polynomial den I + Y(t) is read once (or given): a nilpotent Y gives det
    1 at every t and the adjugate as a polynomial too, and each radius evaluates
    only the entries of den^(n-2) m(t) and adj(t) that can attain the maximum.
    """
    poly = poly or cone_map.polynomial(simplex, weights)
    if poly is None:
        return list(map(_ray_stat, _rays(cone_map, simplex, [weights], radii)[0]))
    ys, den = poly
    n = cone_map.size
    adj = unipotent_adjugate(n, ys, den)
    denpow = den ** (n - 1)
    m = [[denpow if i % (n + 1) == 0 else 0 for i in range(n * n)]]  # den^(n-1) I, flat
    m += [tuple(map(mul, chain.from_iterable(y), repeat(den ** (n - 2)))) for y in ys]
    return [(b, denpow) for b in int_poly_max_abs(chain(zip(*m), zip(*adj)), denpow, radii)]


def _log_stat(stat: tuple[int, int]) -> float:
    num, den = stat
    return math.log(num) - math.log(den)


def _grew(first: tuple[int, int], last: tuple[int, int], factor: int) -> bool:
    """Exactly: is the statistic `last` at least `factor` times `first`?"""
    (nf, df), (nl, dl) = first, last
    return nl * df >= factor * nf * dl


def _pair_verdict(rays_a, rays_b, combos, growth_factor: int) -> tuple:
    """(ok, growth, d_1, ..., d_R) over the ray pairs (i, j) in `combos`, at every radius they hold.

    A pair passes when its statistic grows by the growth factor from the
    first radius to the last.  growth and d_r are minima over the pairs of
    the log gain and of the log statistic at the r-th radius.
    """
    ok = True
    growth, d_curve = math.inf, [math.inf] * len(rays_a[0])
    for i, j in combos:
        stats = list(map(_pair_stat, rays_a[i], rays_b[j]))
        ok = _grew(stats[0], stats[-1], growth_factor) and ok
        logs = list(map(_log_stat, stats))
        growth = min(growth, logs[-1] - logs[0])
        d_curve = list(map(min, d_curve, logs))
    return ok, growth, *d_curve


def _ray_bounds(ray) -> tuple:
    """The integers of one sampled ray that _bounded_pass reads.

    At the first radius: max |m|, n max |adj m| and den^n.  At the last
    radius: row 0 of adj m, column n-1 of m and den^n.
    """
    (m_t, adj, den), (m_t_last, adj_last, den_last) = ray[0], ray[-1]
    n = len(m_t)
    return int_max_abs(m_t), n * int_max_abs(adj), den ** n, adj_last[0], m_t_last[-1], den_last ** n


def _threshold(growth_factor: int, growth: float) -> tuple[int, int]:
    """(num, q), an integer ratio no smaller than max(growth_factor, e^(growth + 2e-9)).

    e^(growth + 2e-9) is taken as 2^r 2^f, with 2^f in [1, 2) rounded up to
    32 bits plus one unit, which covers the float error of r + f; no float
    of the size of e^growth is formed, so no growth overflows.
    """
    e = (growth + 2e-9) / math.log(2)
    r = math.floor(e)
    t = max(growth_factor, Fraction(math.ceil(2.0 ** (e - r) * 2 ** 32) + 1, 2 ** 32) * Fraction(2) ** r)
    return t.numerator, t.denominator


def _bounded_pass(bounds_a, bounds_b, combos, num: int, q: int) -> bool:
    """Do the bounds prove lower * q >= num * upper for every combo (i, j)?

    `bounds_a` and `bounds_b` are _ray_bounds of rays sharing one den^n at
    each end.  Of _pair_stat's numerators, |adj A B| <= n |adj A| |B| gives
    upper >= the first; the (0, n-1) entries of adj A B and adj B A, or
    den^n, give lower <= the last.
    """
    for i, j in combos:
        a_max, a_adj, df, a_row, a_col, dl = bounds_a[i]
        b_max, b_adj, _, b_row, b_col, _ = bounds_b[j]
        bar = num * max(a_adj * b_max, b_adj * a_max, df)
        # the second entry and den^n are read only when the first falls short
        if (abs(sum(map(mul, a_row, b_col))) * q < bar and abs(sum(map(mul, b_row, a_col))) * q < bar
                and dl * q < bar):
            return False
    return True


# ---------------------------------------------------------------------------
# reports

def _lists(label):
    """A vertex label with every tuple in it made a list, for JSON."""
    return list(map(_lists, label)) if isinstance(label, tuple) else label


@dataclass
class PairReport:
    sigma: tuple
    tau: tuple
    radii: tuple[int, ...]
    d_curve: list[float]
    growth: float
    status: str  # PASS / FAIL / INADMISSIBLE

    def to_json(self) -> dict:
        return {
            "sigma": _lists(self.sigma),
            "tau": _lists(self.tau),
            "radii": list(self.radii),
            "d": [round(d, 4) for d in self.d_curve],
            "growth": round(self.growth, 4),
            "verdict": self.status,
        }


@dataclass
class SuiteReport:
    map_name: str
    kind: str
    total: int = 0
    passed: int = 0
    failed: int = 0
    min_growth: float = 0.0
    elapsed_s: float = 0.0
    sampling: str = ""
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0 and self.total > 0

    def record(self, ok: bool, growth: float, failure: dict) -> None:
        """Tally one checked pair or ray; the first 20 failures are kept."""
        self.min_growth = growth if self.total == 0 else min(self.min_growth, growth)
        self.total += 1
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(failure)

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
            "failures": self.failures,
            "pass": self.all_passed,
        }
        if self.rows:
            out["rows"] = self.rows
        return out


def _simplices_sorted(domain: SimplicialComplex):
    """Every simplex as a sorted vertex tuple, by size, then by its sorted vertex reprs."""
    verts, reprs = domain.vertices, [repr(v) for v in domain.vertices]
    return [tuple(sorted(map(verts.__getitem__, s))) for layer in domain.faces()
            for s in sorted(layer, key=lambda s: sorted(map(reprs.__getitem__, s)))]


def _sign_patterns(n: int) -> list[tuple[int, ...]]:
    """d_i d_j flat over the n x n positions, for each d in {+-1}^n with d_1 = +1.

    Conjugation by the diagonal sign matrix d multiplies each entry by its
    d_i d_j; d and -d conjugate alike, so d_1 = +1 takes each one once.
    """
    return [tuple(a * b for a in d for b in d) for d in product((1, -1), repeat=n) if d[0] == 1]


def _conjugates(image, n: int, patterns) -> list[tuple]:
    """The key of a checked image conjugated by each sign pattern, in the patterns' order.

    A key is the declared degree, the laid-out terms' vertices and flat
    positions (over n x n, as the patterns are), then their coefficients
    times the pattern's signs d_i d_j.
    When one image's key under the pattern of D = diag(d) is another's
    under the identity, which _sign_patterns puts first, the images are
    conjugate by D and have one den.
    """
    terms, d, _ = image
    head = d, tuple([term[:2] for term in terms])
    return [(*head, tuple([c * p[ij] for _, ij, c in terms])) for p in patterns]


def _divergence_prep(cone_map: ConeMap, samples: int, seed: int, ends) -> list[list]:
    """Per simplex in suite order: vertex bit mask, repr, sampled rays, their
    _ray_bounds, den key (None unless every ray shares its dens) and ids.

    A simplex's image is read once.  Its ids[k] is the index of the first
    simplex of its size whose image is its own conjugated by the k-th sign
    pattern (_conjugates), math.inf where none is; a simplex of a map
    without a hook has its own index alone.
    """
    n = cone_map.size
    patterns = _sign_patterns(n)
    bits = {v: 1 << k for k, v in enumerate(cone_map.domain.vertices)}
    prep = []
    for _, layer in groupby(_simplices_sorted(cone_map.domain), len):
        start, first = len(prep), {}
        for s in layer:
            image = cone_map.image(s)
            rays = _sampled_rays(cone_map, s, samples, seed, ends, image)
            bounds = [_ray_bounds(r) for r in rays]
            dens = {(b[2], b[5]) for b in bounds}
            conjugates = image and _conjugates(image, n, patterns)
            if conjugates:
                first.setdefault(conjugates[0], len(prep))
            mask, key = sum(map(bits.__getitem__, s)), dens.pop() if len(dens) == 1 else None
            prep.append([mask, repr(s), rays, bounds, key, conjugates])
        for k, entry in enumerate(prep[start:], start):
            entry[5] = [first.get(c, math.inf) for c in entry[5]] if entry[5] else [k]
    return prep


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

    Samples interior points of both simplices (full cross product) and
    evaluates each pair of rays at every radius (_pair_verdict): d_curve is
    the least log statistic over the pairs at each radius.  It passes when,
    for every pair, the last statistic is at least the growth factor times
    the first.  Images must have determinant 1 (ValueError otherwise).
    """
    sigma = tuple(sorted(sigma))
    tau = tuple(sorted(tau))
    radii = tuple(radii) if radii is not None else default_radii()
    _check_radii(radii)
    if not sigma or not tau or set(sigma) & set(tau):
        return PairReport(sigma, tau, radii, [], 0.0, "INADMISSIBLE")
    rays_a = _sampled_rays(cone_map, sigma, samples, seed, radii)
    rays_b = _sampled_rays(cone_map, tau, samples, seed + 1, radii)
    combos = list(product(range(len(rays_a)), range(len(rays_b))))
    ok, growth, *d_curve = _pair_verdict(rays_a, rays_b, combos, growth_factor)
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
    last radius.  After the first pair, and without rows, a pair whose rays
    all share one den at each end is first tried on integer bounds of those
    statistics (_bounded_pass) against a threshold no smaller than
    max(growth_factor, e^(min_growth + 2e-9)).  Clearing it proves the PASS
    and a growth that cannot lower min_growth, so the report is the one the
    exact statistic gives for every pair.

    Each sign orbit of pairs is decided once.  For D = diag(d) in
    _sign_patterns, adj(D A D) D B D = D adj(A) B D, so every integer the
    suite reads of a pair is, up to entry signs, that of the pair
    conjugated by D.  A pair's orbit key is the least id_sigma[D] *
    len(prep) + id_tau[D] over D (_divergence_prep; math.inf is never
    least), and equal keys say that one D conjugates both simplices'
    images, d and terms (_conjugates), onto the other pair's, and so their
    rays at the same weights.  A pair whose key was seen takes that orbit's
    verdict under its own simplices and row: the exact one, or a PASS with
    growth inf if the orbit cleared the bounds, which proved a growth above
    the min_growth of that time.  A map without a hook gets no copies.

    On heisenberg, split and superimpose maps the t-linear part of A^-1 B
    is t c (N_tau - N_sigma), nonzero for disjoint nonempty sigma and tau,
    so every fixed-weight pair diverges; a PASS adds only the growth by the
    factor between the first and last radius.  Expansion can fail only for
    sequences whose weights drift toward a face, which are not sampled.
    Images must have determinant 1 (ValueError otherwise).
    """
    if pairing not in ("aligned", "cross"):
        raise ValueError(f"pairing must be 'aligned' or 'cross', not {pairing!r}")
    _check_radii(radii)
    t0 = time.perf_counter()
    ends = (radii[0], radii[-1])
    prep = _divergence_prep(cone_map, samples, seed, ends)
    aligned = [(i, i) for i in range(samples)]
    combos = aligned if pairing == "aligned" else list(product(range(samples), repeat=2))
    report = SuiteReport(cone_map.name, "divergence", sampling=pairing)
    threshold = None
    cleared = object()  # the verdict of an orbit that cleared _bounded_pass
    verdicts = {}  # pair orbit key -> cleared, or (ok, growth, d_first, d_last)
    for i, (mask_a, repr_a, rays_a, bounds_a, key_a, ids_a) in enumerate(prep):
        scaled_a = [c * len(prep) for c in ids_a]  # a key is id_sigma * len(prep) + id_tau
        for mask_b, repr_b, rays_b, bounds_b, key_b, ids_b in islice(prep, i + 1, None):
            if mask_a & mask_b:
                continue
            orbit = min(map(add, scaled_a, ids_b))
            verdict = verdicts.get(orbit)
            if verdict is None and report.total and not collect_rows and key_a is not None and key_a == key_b:
                # the exact statistic would leave the report as it is, to the
                # last bit; the growth inf never reaches min_growth
                (num, q), (df, dl) = threshold, key_a
                if _bounded_pass(bounds_a, bounds_b, combos, num * dl, q * df):
                    verdict = verdicts[orbit] = cleared
            if verdict is cleared:
                report.record(True, math.inf, {})
                continue
            if verdict is None:
                verdict = verdicts[orbit] = _pair_verdict(rays_a, rays_b, combos, growth_factor)
            ok, growth, d_first, d_last = verdict
            if not report.total or growth < report.min_growth:
                threshold = _threshold(growth_factor, growth)
            report.record(ok, growth, {"sigma": repr_a, "tau": repr_b, "growth": round(growth, 4)})
            if collect_rows:
                row = PairReport(repr_a, repr_b, ends, [d_first, d_last], growth, "PASS" if ok else "FAIL")
                report.rows.append(row.to_json())
    report.elapsed_s = time.perf_counter() - t0
    return report


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
    margin overall.  On heisenberg, split and superimpose maps the t-linear
    part of the image is t c N_sigma(w), nonzero on every nonempty simplex
    at interior weights, so every fixed-weight ray leaves every bounded set;
    a PASS adds only the monotone check and the growth by the factor.

    The monotone check depends on the sampling seed: at seeds 3, 4 and 8,
    eight facet rays of heisenberg_map(4) and of split_map(4) FAIL as
    non-monotone although each grows by more than e^35 over the schedule.
    Images must have determinant 1, and a hook's image is read and checked
    once per simplex (ConeMap.image; ValueError otherwise).

    A hook map's ray takes the verdict of an earlier ray with an equal key:
    the least of its image's _conjugates, and the weights.  Equal keys give
    Y'(x) = D Y(x) D at the same x, D a diagonal sign matrix, and the same
    den, so den^(n-2) (den I + Y(t)) and adj = sum_k (-1)^k den^(n-1-k)
    Y(t)^k differ only in entry signs, and every per-radius integer of the
    statistic is equal.  Only computed rays are substituted.
    """
    t0 = time.perf_counter()
    radii = tuple(radii) if radii is not None else default_radii()
    _check_radii(radii)
    report = SuiteReport(cone_map.name, "properness", sampling="rays")
    n = cone_map.size
    patterns = _sign_patterns(n)
    for _, layer in groupby(_simplices_sorted(cone_map.domain), len):
        seen = {}  # (key, w) -> (ok, growth, monotone) over this simplex size
        for s in layer:
            label, image = repr(s), cone_map.image(s)
            key = image and min(_conjugates(image, n, patterns))
            for w in sample_weight_vectors(len(s), samples, seed):
                verdict = seen.get((key, w))
                if verdict is None:
                    stats = _ray_stats(cone_map, s, w, radii, image and cone_map.polynomial(s, w, image))
                    monotone = all(map(_grew, stats, stats[1:], repeat(1)))
                    growth = _log_stat(stats[-1]) - _log_stat(stats[0])
                    verdict = monotone and _grew(stats[0], stats[-1], growth_factor), growth, monotone
                    if image:
                        seen[key, w] = verdict
                ok, growth, monotone = verdict
                report.record(ok, growth, {"simplex": label, "monotone": monotone, "growth": round(growth, 4)})
    report.elapsed_s = time.perf_counter() - t0
    return report


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
        return asdict(self)


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
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(f"{seed}|{n}|{magnitude}")
    entries = []
    for _ in range(samples):
        u, u2 = (ExactMatrix.from_entries(n, {(i, j): rng.randint(-3, 3) for i in range(1, n + 1)
                                              for j in range(i + 1, n + 1)}) for _ in range(2))
        owners = [rng.randrange(2) for _ in range(n - 1)]
        values = [rng.randint(1, magnitude) * rng.choice((1, -1)) for _ in range(n - 1)]
        k = rng.randrange(n - 1)
        values[k] = magnitude * rng.choice((1, -1))
        lam_e, lam2_e = {}, {}
        for j in range(1, n):
            (lam_e if owners[j - 1] == 0 else lam2_e)[(j + 1, j)] = values[j - 1]
        s = split_residual(u, ExactMatrix.from_entries(n, lam_e), u2, ExactMatrix.from_entries(n, lam2_e))
        entries.append(int(s.max_abs()))
    return GrowthResult(n, magnitude, samples, seed, min(entries), max(entries))


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
