"""Real unit-sphere geometry: points, rotations, realizations, lengths.

Two length scales are used throughout.  ``delta`` is the raw inner product
of two unit vectors, ranging over [-1, 1]; the spherical distance
``sph_dist`` is ``(1 - delta) / 2``, ranging from 0 (coincident) to 1
(antipodal).  Edge length assignments store the latter, in the open
interval (0, 1), so adjacent vertices can never coincide nor be antipodal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import SphflexError
from .graphs import Edge, Graph, normalized_edge

ON_SPHERE_TOL = 1e-12
ALGEBRA_TOL = 1e-12
COMPAT_TOL = 1e-9
ORIENT_DET_TOL = 1e-8
# vertex pairs with inner products within this of 1 coincide, within it of
# -1 are antipodal
DEGENERATE_TOL = 1e-9

Vec = np.ndarray


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

    def apply(self, p: Vec) -> Vec:
        return self.matrix @ p


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


@dataclass(frozen=True, eq=False)
class SphericalRealization:
    """Map vertex -> point on the unit sphere.

    The points are the rows of one read-only array copied from the
    caller's, so changing the caller's arrays later leaves the realization
    as it was checked.  Realizations compare by identity.
    """

    placement: dict[int, Vec] = field(repr=False)

    def __post_init__(self):
        labels = [int(v) for v in self.placement]
        rows = [np.asarray(p, dtype=float) for p in self.placement.values()]
        pts = np.array(rows) if rows else np.empty((0, 3))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise SphflexError("every point needs three coordinates")
        check_on_sphere(pts, labels)
        pts.flags.writeable = False
        object.__setattr__(self, "placement", dict(zip(labels, pts)))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.placement))

    def point(self, v: int) -> Vec:
        return self.placement[v]

    def as_array(self, order: Optional[Sequence[int]] = None) -> Vec:
        order = self.vertices if order is None else order
        return np.concatenate([self.placement[v] for v in order])


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


def max_edge_residual(g: Graph, rho: SphericalRealization, lam: LengthAssignment) -> float:
    """Largest |sph_dist - length| over the edges of g, 0 without edges."""
    return max(
        (abs(sph_dist(rho.point(a), rho.point(b)) - lam.length(a, b)) for a, b in g.edges),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# essential distinctness
# ---------------------------------------------------------------------------


def essentially_distinct(r1: SphericalRealization, r2: SphericalRealization) -> bool:
    """Whether two realizations differ by more than a rotation.

    Equal Gram matrices mean the realizations are related by an orthogonal
    map; equal orientation upgrades it to a rotation.  Gram-equal but
    orientation-flipped pairs (mirror images) count as distinct.  The rule
    is that of ``distinct_from``, applied to a stack of one, so different
    vertex sets and an ambiguous orientation raise ``SphflexError``.
    """
    if r1.vertices != r2.vertices:
        raise SphflexError("realizations have different vertex sets")
    p1, p2 = (r.as_array().reshape(-1, 3) for r in (r1, r2))
    return bool(distinct_from(p1, p2[None])[0][0])


@lru_cache(maxsize=None)
def _triples(n: int) -> Vec:
    """Index triples of ``combinations(range(n), 3)``, shape (T, 3)."""
    return np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)


def distinct_from(ref: Vec, pts: Vec) -> tuple[Vec, Vec, bool]:
    """Essential distinctness of one realization from each of a stack.

    ``ref`` has shape (|V|, 3) and ``pts`` (S, |V|, 3), rows in one vertex
    order.  A sample is distinct when its Gram matrix differs from the
    reference's by more than ``COMPAT_TOL``; a Gram-equal sample is
    distinct when its orientation is flipped.  Orientation is read on the
    triple of vertices with the largest |det| in the reference, and a Gram-equal
    sample whose determinant on that triple lies within ``ORIENT_DET_TOL``
    of 0 (bound included) raises ``SphflexError`` rather than guess a sign.
    Returns the verdicts, the Gram distances and whether the reference
    spans space, which it does unless no triple's |det| exceeds
    ``ORIENT_DET_TOL`` (then Gram equality alone means not distinct).
    """
    gram_dist = np.abs(pts @ np.swapaxes(pts, 1, 2) - ref @ ref.T).max(axis=(1, 2))
    distinct = gram_dist > COMPAT_TOL
    triples = _triples(len(ref))
    dets = np.linalg.det(ref[triples])
    if not dets.size or np.abs(dets).max() <= ORIENT_DET_TOL:
        # rank <= 2: a reflection fixing the common plane turns any
        # orthogonal match into a rotation
        return distinct, gram_dist, False
    best = int(np.argmax(np.abs(dets)))
    close = np.flatnonzero(~distinct)
    if close.size:
        other = np.linalg.det(pts[close][:, triples[best]])
        if np.any(np.abs(other) <= ORIENT_DET_TOL):
            raise SphflexError(
                "Gram-equal realizations with an orientation within "
                f"{ORIENT_DET_TOL:g} of zero on the best-conditioned triple"
            )
        distinct[close] = (other > 0) != (dets[best] > 0)
    return distinct, gram_dist, True


def degenerate_pairs(
    rho: SphericalRealization,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Pairs of vertices that coincide respectively are antipodal, within ``DEGENERATE_TOL``."""
    coincident, antipodal = [], []
    order = rho.vertices
    for a, b in combinations(order, 2):
        d = delta(rho.point(a), rho.point(b))
        if d >= 1.0 - DEGENERATE_TOL:
            coincident.append((a, b))
        elif d <= -1.0 + DEGENERATE_TOL:
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


def degenerate_pair_masks(pts: Vec) -> tuple[Vec, Vec]:
    """Coincident and antipodal vertex pairs of every realization of a stack.

    ``pts`` has shape (S, |V|, 3).  Both masks have shape (S, P), one
    column per vertex pair in the order of ``combinations(range(|V|), 2)``;
    the inner products equal those of ``degenerate_pairs`` exactly and are
    compared with the same thresholds, ``DEGENERATE_TOL``.
    """
    iu, ju = np.triu_indices(pts.shape[1], 1)
    d = row_dots(pts[:, iu], pts[:, ju])
    coincident = d >= 1.0 - DEGENERATE_TOL
    return coincident, ~coincident & (d <= -1.0 + DEGENERATE_TOL)


def check_on_sphere(pts: Vec, labels: Sequence[int]) -> None:
    """Raise for the first point off the unit sphere by more than
    ``ON_SPHERE_TOL``; a point with a NaN coordinate is off it too.

    ``pts`` is any (..., 3) stack, read in row-major order, and
    ``labels[k % len(labels)]`` names its k-th point.
    """
    # a coordinate beyond about 1e154 overflows its square to inf, which
    # is off the sphere; the check reports it rather than warn
    with np.errstate(over="ignore"):
        err = np.abs(row_dots(pts, pts) - 1.0).ravel()
    bad = np.flatnonzero(~(err <= ON_SPHERE_TOL))
    if bad.size:
        k = bad[0]
        raise SphflexError(
            f"vertex {labels[k % len(labels)]} placed off the sphere by {err[k]:.3e}"
        )


def realizations_of_stack(order: Sequence[int], pts: Vec) -> list[SphericalRealization]:
    """One realization per (|V|, 3) slab of a stack already checked on the
    sphere, its points views of the stack's rows."""
    out = []
    for slab in pts:
        rho = object.__new__(SphericalRealization)
        object.__setattr__(rho, "placement", dict(zip(order, slab)))
        out.append(rho)
    return out
