"""Group catalog: root data, obstructor shapes, and dimension identities.

Each cataloged family records the dimension of its symmetric space and the
join shape of its obstructor complex; ``identity_check`` confirms that the
shape's obstruction degree plus two equals the dimension, exactly.

Number-field input is abstracted to the place counts (r, s); no ring
arithmetic happens here.  The anisotropic-kernel dimension for quadratic
forms is supplied by the caller.

Two cases carry no algorithm, only arithmetic, and are documented rather
than implemented as operations: a cocompact lattice realizes the full
sphere at infinity directly (the identity is immediate), and for a group
with infinite center of rank z the dimension bookkeeping is
dim G/K = z + dim (G/Z)/C, so the degree over the quotient shifts by z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ObstructorShape
from .rootsystems import RootSystem, build_root_system

KINDS = ("sl_z", "sl_o", "sp_z", "sp_o", "so_q")


class MissingAnisotropicDimension(ValueError):
    """SO(Q) needs the compact-kernel manifold dimension as input."""


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    n: int = 0
    places: tuple[int, int] | None = None  # (real, complex-conjugate pairs)
    witt: int | None = None                # q for SO(Q)
    ambient: int | None = None             # dim of the quadratic space
    dim_xm: int | None = None              # anisotropic-kernel manifold dim

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.places is not None and (not isinstance(self.places, tuple) or len(self.places) != 2):
            raise ValueError(f"places must be a tuple (r, s), got {self.places!r}")
        given = {"n": self.n, "witt": self.witt, "ambient": self.ambient, "dim_xm": self.dim_xm}
        given.update(zip(("r", "s"), self.places or ()))
        for name, value in given.items():
            if value is not None and type(value) is not int:  # bool is an int subclass, and no count
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.kind in ("sl_z", "sl_o") and self.n < 2:
            raise ValueError("need n >= 2")
        if self.kind in ("sp_z", "sp_o") and self.n < 1:
            raise ValueError("need n >= 1")
        if self.kind in ("sl_z", "sp_z") and self.places is not None:
            raise ValueError("Z has one real place; give no place counts")
        if self.kind in ("sl_o", "sp_o"):
            if self.places is None or sum(self.places) < 1 or min(self.places) < 0:
                raise ValueError("need place counts with r + s >= 1")
        if self.kind == "so_q":
            if self.witt is None or self.ambient is None:
                raise ValueError("need witt index and ambient dimension")
            if self.witt < 1 or self.ambient < 2 * self.witt:
                raise ValueError("need q >= 1 and n >= 2q")
            if (self.witt, self.ambient) == (1, 2):
                raise ValueError("a single hyperbolic plane carries no root data")

    def label(self) -> str:
        if self.kind == "so_q":
            return f"SO(Q)[n={self.ambient},q={self.witt},dim_XM={self.dim_xm}]"
        group = f"SL_{self.n}" if self.kind.startswith("sl") else f"Sp_{2 * self.n}"
        if self.places is None:
            return f"{group}(Z)"
        r, s = self.places
        return f"{group}(O[r={r},s={s}])"


@dataclass
class DimensionReport:
    spec: GroupSpec
    dim_symmetric: int
    obstructor: ObstructorShape
    m: int
    identity_holds: bool
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "group": self.spec.label(),
            "dim_symmetric": self.dim_symmetric,
            "shape": {
                "sphere_dim": self.obstructor.sphere_dim,
                "plus_dims": list(self.obstructor.plus_dims),
            },
            "m": self.m,
            "identity_holds": self.identity_holds,
        }
        if self.note:
            out["note"] = self.note
        return out


def _require_xm(spec: GroupSpec) -> int:
    if spec.dim_xm is None:
        raise MissingAnisotropicDimension(spec.label())
    return spec.dim_xm


def dim_symmetric(spec: GroupSpec) -> int:
    """Dimension of the symmetric space, via the standard decompositions.

    Z is the ring with one real place, so the _z kinds read (r, s) = (1, 0).
    """
    n = spec.n
    if spec.kind == "so_q":
        q, nn = spec.witt, spec.ambient
        return q * (q - 1) + q * (nn - 2 * q) + _require_xm(spec) + q
    r, s = spec.places or (1, 0)
    if spec.kind in ("sl_z", "sl_o"):
        return r * (n * (n + 1) // 2 - 1) + s * (n * n - 1)
    return r * (n * n + n) + s * (2 * n * n + n)


def obstructor_shape(spec: GroupSpec) -> ObstructorShape:
    """The cataloged join shape for the group."""
    n = spec.n
    if spec.kind in ("sl_z", "sl_o"):
        r, s = spec.places or (1, 0)
        d, u = r + 2 * s, r + s - 1
        return ObstructorShape(None, tuple(p * d + u - 1 for p in range(1, n)))
    if spec.kind == "sp_z":
        return ObstructorShape(None, tuple(range(n - 1)) + ((n + 2) * (n - 1) // 2,))
    if spec.kind == "sp_o":
        # transcribed as displayed; identity_check flags the discrepancy
        r, s = spec.places
        d = r + 2 * s
        return ObstructorShape(
            (n - 1) * d - 1 if (n - 1) * d >= 1 else None,
            tuple(p * d - 1 for p in range(1, n)) + (n * (n + 1) * d // 2 - 1,),
        )
    q, nn = spec.witt, spec.ambient
    xm = _require_xm(spec)
    sphere = xm - 1 if xm >= 1 else None
    last = q * (q - 1) // 2 + q * (nn - 2 * q) - 1
    if last < 0:
        raise ValueError("degenerate quadratic form data")
    return ObstructorShape(sphere, tuple(range(q - 1)) + (last,))


def sl_split_pair_shape(n: int) -> ObstructorShape:
    """Alternative shape for SL_n over a real quadratic ring: a plain
    (n-2)-sphere of diagonal pairs joined with odd-dimensional factors."""
    return ObstructorShape(n - 2, tuple(range(1, 2 * n - 2, 2)))


def root_data(spec: GroupSpec) -> tuple[RootSystem, int, int]:
    """(root system with multiplicities, dim X_M, rational rank) for cross-checks."""
    n = spec.n
    if spec.kind != "so_q":
        r, s = spec.places or (1, 0)
        if spec.kind in ("sl_z", "sl_o"):
            return _weighted(("A", n - 1), r + 2 * s), (n - 1) * (r + s - 1), n - 1
        return _weighted(("C", n) if n > 1 else ("A", 1), r + 2 * s), n * (r + s - 1), n
    q, nn = spec.witt, spec.ambient
    if nn == 2 * q:
        if q == 2:
            rs = build_root_system([("A", 1), ("A", 1)])
        elif q == 3:
            rs = build_root_system(("A", 3))
        else:
            rs = build_root_system(("D", q))
        return rs, _require_xm(spec), q
    # B_1 is A_1, whose one positive root is short
    b = ("B", q) if q > 1 else ("A", 1)
    return _weighted(b, nn - 2 * q, lambda v: _is_short_b(v, q)), _require_xm(spec), q


def _weighted(family_rank, mult: int, where=lambda v: True) -> RootSystem:
    """The system with multiplicity ``mult`` on each positive root ``where``
    accepts and 1 elsewhere; a second one is built only to attach ``mult`` > 1."""
    rs = build_root_system(family_rank)
    if mult > 1:
        rs = build_root_system(
            family_rank, multiplicities={v: mult for v in rs.positive_roots if where(v)}
        )
    return rs


def _is_short_b(v, q: int) -> bool:
    """Short positive roots of B_q in simple-root coordinates: the tails
    (0,..,0,1,..,1) ending at the last node with all coefficients <= 1."""
    return v[q - 1] == 1 and all(x in (0, 1) for x in v)


def shape_from_root_data(rs: RootSystem, dim_xm: int) -> ObstructorShape:
    """Generic shape: one sphere-plus-point factor per column subsystem."""
    plus = tuple(rs.column_dimension(i) - 1 for i in range(rs.rank))
    if any(k < 0 for k in plus):
        raise ValueError("a column subsystem is empty")
    return ObstructorShape(dim_xm - 1 if dim_xm >= 1 else None, plus)


def lemma_count(shape: ObstructorShape) -> int:
    """Sum of (factor dimension + 1) over all join factors."""
    total = sum(k + 1 for k in shape.plus_dims)
    if shape.sphere_dim is not None:
        total += shape.sphere_dim + 1
    return total


def identity_check(spec: GroupSpec) -> DimensionReport:
    """Compare the shape's m + 2 with the symmetric-space dimension."""
    dim = dim_symmetric(spec)
    shape = obstructor_shape(spec)
    m = shape.m
    holds = m + 2 == dim
    note = ""
    if spec.kind == "sp_o" and not holds:
        note = (
            "transcribed display disagrees with the root-data dimension; "
            "flagged, not asserted"
        )
    return DimensionReport(spec, dim, shape, m, holds, note)


# ---------------------------------------------------------------------------
# acceptance grids

def catalog_grid() -> list[GroupSpec]:
    """Every spec exercised by the dimension-identity acceptance check."""
    out: list[GroupSpec] = []
    for n in range(2, 13):
        out.append(GroupSpec("sl_z", n=n))
    for n in range(2, 13):
        out.append(GroupSpec("sl_o", n=n, places=(2, 0)))  # real quadratic ring
    for r in range(0, 7):
        for s in range(0, 4):
            if r + s < 1 or r + 2 * s > 6:
                continue
            for n in range(2, 9):
                out.append(GroupSpec("sl_o", n=n, places=(r, s)))
    for n in range(2, 11):
        out.append(GroupSpec("sp_z", n=n))
    for q in range(1, 7):
        for nn in range(2 * q, 15):
            if (q, nn) == (1, 2):
                continue
            for xm in range(0, 4):
                out.append(GroupSpec("so_q", witt=q, ambient=nn, dim_xm=xm))
    return out
