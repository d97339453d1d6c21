"""Real unit-sphere geometry: points, rotations, realizations, lengths.

Two length scales are used throughout.  ``delta`` is the raw inner product
of two unit vectors, ranging over [-1, 1]; the spherical distance
``sph_dist`` is ``(1 - delta) / 2``, ranging from 0 (coincident) to 1
(antipodal).  Edge length assignments store the latter, in the open
interval (0, 1), so adjacent vertices can never coincide nor be antipodal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import SphflexError
from .graphs import Edge, Graph, normalized_edge

ON_SPHERE_TOL = 1e-12
ALGEBRA_TOL = 1e-12
COMPAT_TOL = 1e-9
ORIENT_DET_TOL = 1e-8

Vec = np.ndarray


def unit_point(x: float, y: float, z: float, tol: float = ON_SPHERE_TOL) -> Vec:
    p = np.array([x, y, z], dtype=float)
    if abs(p @ p - 1.0) > tol:
        raise SphflexError(f"point {p} is off the unit sphere by {abs(p @ p - 1.0):.3e}")
    return p


def normalize(v: Sequence[float]) -> Vec:
    a = np.asarray(v, dtype=float)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise SphflexError("cannot normalize the zero vector")
    return a / n


def delta(t: Vec, u: Vec) -> float:
    """Inner product of two unit points, in [-1, 1]."""
    return float(np.dot(t, u))


def sph_dist(t: Vec, u: Vec) -> float:
    """Spherical distance (1 - <t,u>)/2, in [0, 1]."""
    return 0.5 * (1.0 - float(np.dot(t, u)))


def random_unit_point(rng: np.random.Generator) -> Vec:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rotation:
    """Proper rotation of R^3, validated orthogonal with determinant +1."""

    matrix: Vec

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise SphflexError("rotation matrix must be 3x3")
        check_rotations(m)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    def apply(self, p: Vec) -> Vec:
        return self.matrix @ p

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(self.matrix @ other.matrix)


def check_rotations(m: Vec) -> None:
    """Raise unless every matrix of a (..., 3, 3) stack is orthogonal with
    determinant +1, within ``ALGEBRA_TOL``."""
    if np.abs(m @ np.swapaxes(m, -1, -2) - np.eye(3)).max() > ALGEBRA_TOL:
        raise SphflexError("matrix is not orthogonal")
    if np.abs(np.linalg.det(m) - 1.0).max() > ALGEBRA_TOL:
        raise SphflexError("matrix determinant is not +1")


def rotation_about_axis(axis: Sequence[float], angle: float) -> Rotation:
    """Rodrigues rotation by ``angle`` about a unit ``axis``."""
    return Rotation(rotations_about_axis(axis, [angle])[0])


def rotations_about_axis(axis: Sequence[float], angles: Sequence[float]) -> Vec:
    """Rodrigues matrices of the rotations by each of ``angles`` about a
    unit ``axis``, stacked to shape (len(angles), 3, 3) and checked in one
    pass."""
    u = normalize(axis)
    k = np.array(
        [[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]]
    )
    t = np.asarray(angles, dtype=float)[:, None, None]
    m = np.eye(3) + np.sin(t) * k + (1.0 - np.cos(t)) * (k @ k)
    check_rotations(m)
    return m


def random_rotation(rng: np.random.Generator) -> Rotation:
    axis = random_unit_point(rng)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return rotation_about_axis(axis, angle)


# ---------------------------------------------------------------------------
# realizations and length assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalRealization:
    """Map vertex -> point on the unit sphere."""

    placement: dict[int, Vec] = field(repr=False)

    def __post_init__(self):
        clean = {}
        for v, p in self.placement.items():
            a = np.asarray(p, dtype=float)
            if abs(a @ a - 1.0) > ON_SPHERE_TOL:
                raise SphflexError(
                    f"vertex {v} placed off the sphere by {abs(a @ a - 1.0):.3e}"
                )
            clean[int(v)] = a
        object.__setattr__(self, "placement", clean)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.placement))

    def point(self, v: int) -> Vec:
        return self.placement[v]

    def restrict(self, keep: Iterable[int]) -> "SphericalRealization":
        kept = set(keep)
        return SphericalRealization({v: p for v, p in self.placement.items() if v in kept})

    def as_array(self, order: Optional[Sequence[int]] = None) -> Vec:
        order = self.vertices if order is None else order
        return np.concatenate([self.placement[v] for v in order])

    @classmethod
    def from_array(cls, order: Sequence[int], coords: Vec) -> "SphericalRealization":
        pts = np.asarray(coords, dtype=float).reshape(len(order), 3)
        return cls({v: pts[i] for i, v in enumerate(order)})


@dataclass(frozen=True)
class LengthAssignment:
    """Spherical edge lengths, each strictly inside (0, 1)."""

    lengths: dict[Edge, float] = field(repr=False)

    def __post_init__(self):
        clean = {}
        for e, lam in self.lengths.items():
            e = normalized_edge(*e)
            lam = float(lam)
            if not 0.0 < lam < 1.0:
                raise SphflexError(f"length {lam} for edge {e} outside (0, 1)")
            clean[e] = lam
        object.__setattr__(self, "lengths", clean)

    @classmethod
    def from_deltas(cls, deltas: Mapping[tuple[int, int], float]) -> "LengthAssignment":
        return cls({e: 0.5 * (1.0 - d) for e, d in deltas.items()})

    @classmethod
    def induced(cls, g: Graph, rho: SphericalRealization) -> "LengthAssignment":
        return cls({e: sph_dist(rho.point(e[0]), rho.point(e[1])) for e in g.edges})

    def length(self, a: int, b: int) -> float:
        return self.lengths[normalized_edge(a, b)]

    def delta_of(self, a: int, b: int) -> float:
        """delta = 1 - 2*lambda for the given edge."""
        return 1.0 - 2.0 * self.length(a, b)

    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.lengths))

    def restrict(self, edges: Iterable[Edge]) -> "LengthAssignment":
        wanted = {normalized_edge(*e) for e in edges}
        return LengthAssignment({e: l for e, l in self.lengths.items() if e in wanted})


def apply_rotation(r: Rotation, rho: SphericalRealization) -> SphericalRealization:
    return SphericalRealization({v: r.apply(p) for v, p in rho.placement.items()})


def edge_residuals(g: Graph, rho: SphericalRealization, lam: LengthAssignment) -> dict[Edge, float]:
    return {
        e: sph_dist(rho.point(e[0]), rho.point(e[1])) - lam.length(*e) for e in g.edges
    }


def max_edge_residual(g: Graph, rho: SphericalRealization, lam: LengthAssignment) -> float:
    res = edge_residuals(g, rho, lam)
    return max(abs(r) for r in res.values()) if res else 0.0


def is_compatible(
    g: Graph, rho: SphericalRealization, lam: LengthAssignment, tol: float = COMPAT_TOL
) -> bool:
    """True iff every edge length is met within ``tol``."""
    return max_edge_residual(g, rho, lam) <= tol


# ---------------------------------------------------------------------------
# essential distinctness
# ---------------------------------------------------------------------------


def gram_matrix(rho: SphericalRealization, order: Optional[Sequence[int]] = None) -> Vec:
    order = rho.vertices if order is None else order
    pts = np.stack([rho.point(v) for v in order])
    return pts @ pts.T


def gram_distance(r1: SphericalRealization, r2: SphericalRealization) -> float:
    order = r1.vertices
    if order != r2.vertices:
        raise SphflexError("realizations have different vertex sets")
    return float(np.abs(gram_matrix(r1, order) - gram_matrix(r2, order)).max())


@dataclass(frozen=True)
class Distinctness:
    """Verdict of an essential-distinctness comparison.

    Truthy iff the two realizations are NOT related by a rotation.  The
    Gram distance is reported so near-threshold verdicts can be audited;
    ``degenerate`` flags configurations that span at most a plane, where
    the Gram comparison alone is exact (any orthogonal match can be
    upgraded to a rotation).
    """

    distinct: bool
    gram_dist: float
    orientation_used: bool
    degenerate: bool

    def __bool__(self) -> bool:
        return self.distinct


def essentially_distinct(
    r1: SphericalRealization, r2: SphericalRealization, tol: float = COMPAT_TOL
) -> Distinctness:
    """Decide whether two realizations differ by more than a rotation.

    Equal Gram matrices mean the realizations are related by an orthogonal
    map; equal orientation upgrades it to a rotation.  Gram-equal but
    orientation-flipped pairs (mirror images) count as distinct.
    """
    gd = gram_distance(r1, r2)
    if gd > tol:
        return Distinctness(True, gd, False, False)
    order = r1.vertices
    for triple in combinations(order, 3):
        d1 = float(np.linalg.det(np.stack([r1.point(v) for v in triple])))
        if abs(d1) > ORIENT_DET_TOL:
            d2 = float(np.linalg.det(np.stack([r2.point(v) for v in triple])))
            flipped = (d1 > 0) != (d2 > 0)
            return Distinctness(flipped, gd, True, False)
    # rank <= 2: a reflection fixing the common plane turns any orthogonal
    # match into a rotation, so Gram equality already means not distinct
    return Distinctness(False, gd, False, True)


def degenerate_pairs(
    rho: SphericalRealization, tol: float = 1e-9
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Pairs of vertices that coincide respectively are antipodal."""
    coincident, antipodal = [], []
    order = rho.vertices
    for a, b in combinations(order, 2):
        d = delta(rho.point(a), rho.point(b))
        if d >= 1.0 - tol:
            coincident.append((a, b))
        elif d <= -1.0 + tol:
            antipodal.append((a, b))
    return coincident, antipodal


# ---------------------------------------------------------------------------
# batched forms
# ---------------------------------------------------------------------------


def row_dots(a: Vec, b: Vec) -> Vec:
    """Inner products of matching rows of two (..., 3) arrays.

    Evaluated as a stack of (1x3)(3x1) products, which round like
    ``a[i] @ b[i]`` does (an ``einsum`` or ``(a * b).sum(-1)`` does not), so
    the batched values equal the per-pair ones exactly.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def stack_points(rhos: Sequence[SphericalRealization], order: Sequence[int]) -> Vec:
    """Points of every realization in ``order``, shape (len(rhos), len(order), 3)."""
    flat = np.concatenate([rho.placement[v] for rho in rhos for v in order])
    return flat.reshape(len(rhos), len(order), 3)


def degenerate_pairs_of_all(
    rhos: Sequence[SphericalRealization], tol: float = 1e-9
) -> list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """``degenerate_pairs`` of every realization, from batched Gram entries.

    Realizations are grouped by vertex set; the upper-triangle Gram entries
    of a group are computed in one array op, in the order of
    ``combinations``, and compared with the same thresholds.
    """
    out: list = [([], []) for _ in rhos]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, rho in enumerate(rhos):
        groups.setdefault(rho.vertices, []).append(i)
    for order, ids in groups.items():
        if len(order) < 2:
            continue
        iu, ju = np.triu_indices(len(order), 1)
        pts = stack_points([rhos[i] for i in ids], order)
        d = row_dots(pts[:, iu], pts[:, ju])
        coincident = d >= 1.0 - tol
        antipodal = ~coincident & (d <= -1.0 + tol)
        for side, hits in enumerate((coincident, antipodal)):
            for k, p in zip(*np.nonzero(hits)):
                out[ids[k]][side].append((order[iu[p]], order[ju[p]]))
    return out
