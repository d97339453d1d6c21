"""The rhomboid lemmas of the quadrilateral classification.

``quads.classify`` reads a quadrilateral's type from its four edge values.
The functions here go further on one realization: which of the four
rhomboid rows of the multiplicity table it sits on, and whether its
diagonals' great circles are orthogonal (never for a rhomboid motion,
always for a lozenge).  The package builds no motion whose K(3,3) type
table is case 0 of the admissible cases, so no command evaluates them; the
tests check them on synthetic rhomboids and lozenges.
"""

from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from sphflex.errors import SphflexError
from sphflex.quads import RHOMBOID, QuadLengths, classify
from sphflex.spherical import Vec, normalize

# the slack of the lemmas
RHOMBOID_TOL = 1e-9
DIAGONAL_TOL = 1e-8
PARALLEL_TOL = 1e-7

# flipping the vertex at a cycle position negates its two incident edges,
# indexed into (d12, d23, d34, d14)
_FLIP_EDGES = {1: (0, 3), 2: (0, 1), 3: (1, 2), 4: (2, 3)}


def quad_lengths_from_points(points: Sequence[Vec]) -> QuadLengths:
    r1, r2, r3, r4 = points
    return QuadLengths(float(r1 @ r2), float(r2 @ r3), float(r3 @ r4), float(r1 @ r4))


def antipodal_normalize(q: QuadLengths) -> tuple[QuadLengths, frozenset[int]]:
    """Flip vertices to maximize the count of positive edge values.

    Returns the normalized lengths and the cycle positions flipped.  Ties
    are broken toward the lexicographically largest value tuple and then
    the smallest flip set, so the result is deterministic.
    """
    best = None
    for k in range(5):
        for flips in combinations((1, 2, 3, 4), k):
            vals = list(q.values())
            for v in flips:
                for idx in _FLIP_EDGES[v]:
                    vals[idx] = -vals[idx]
            score = (sum(1 for x in vals if x > 0), tuple(vals))
            if best is None or score > best[0]:
                best = (score, flips, vals)
    _, flips, vals = best
    return QuadLengths(*vals), frozenset(flips)


def _pi_rotation_swaps(u: Vec, a: Vec, b: Vec, tol: float) -> bool:
    """Does the half-turn about u map a to b?"""
    image = 2.0 * float(u @ a) * u - a
    return bool(np.abs(image - b).max() <= tol)


def _reflection_swaps(n: Vec, a: Vec, b: Vec, tol: float) -> bool:
    """Does the reflection with plane normal n map a to b?"""
    image = a - 2.0 * float(n @ a) * n
    return bool(np.abs(image - b).max() <= tol)


def _parallel_unit(a: Vec, b: Vec) -> Optional[Vec]:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < PARALLEL_TOL or nb < PARALLEL_TOL:
        return None
    ua, ub = a / na, b / nb
    if np.abs(np.cross(ua, ub)).max() <= PARALLEL_TOL:
        return ua
    return None


# vertex flips act on the component index: flipping an odd vertex swaps the
# rotation component of one sign class with the rotation component of the
# other (1<->3, 2<->4); flipping an even vertex swaps 1<->2 and 3<->4
_ODD_FLIP = {1: 3, 3: 1, 2: 4, 4: 2}
_EVEN_FLIP = {1: 2, 2: 1, 3: 4, 4: 3}


def rhomboid_component(points: Sequence[Vec]) -> int:
    """Which of the four rhomboid table rows a realization sits on.

    The quadrilateral is first flip-normalized so opposite edges agree with
    sign +1; on the normalized points the pair-swapping symmetry
    (1 <-> 3, 2 <-> 4) is either a half-turn (component 1) or a reflection
    (component 4), and the recorded flips map the component index back.
    """
    tol = RHOMBOID_TOL
    pts = [np.asarray(p, dtype=float) for p in points]
    q = quad_lengths_from_points(pts)
    qt = classify(q, tol)
    if qt.tag != RHOMBOID:
        raise SphflexError(f"realization classifies as {qt.tag}, not rhomboid")

    _, flips = antipodal_normalize(q)
    for v in flips:
        pts[v - 1] = -pts[v - 1]
    norm_q = quad_lengths_from_points(pts)
    if abs(norm_q.d12 - norm_q.d34) > tol or abs(norm_q.d14 - norm_q.d23) > tol:
        raise SphflexError("flip normalization failed to align opposite edges")

    r1, r2, r3, r4 = pts
    component = None
    axis = _parallel_unit(r1 + r3, r2 + r4)
    if axis is not None and _pi_rotation_swaps(axis, r1, r3, tol) and _pi_rotation_swaps(
        axis, r2, r4, tol
    ):
        component = 1
    if component is None:
        normal = _parallel_unit(r1 - r3, r2 - r4)
        if normal is not None and _reflection_swaps(normal, r1, r3, tol) and _reflection_swaps(
            normal, r2, r4, tol
        ):
            component = 4
    if component is None:
        raise SphflexError("no pair-swapping involution found within tolerance")

    for v in flips:
        component = (_ODD_FLIP if v in (1, 3) else _EVEN_FLIP)[component]
    return component


def diagonal_axis(a: Vec, b: Vec) -> Vec:
    """Unit normal of the great circle through two non-antipodal points."""
    cr = np.cross(a, b)
    return normalize(cr)


def diagonals_not_orthogonal_check(points: Sequence[Vec]) -> bool:
    """True iff the two diagonals' great circles are NOT orthogonal.

    Rhomboid motions keep this invariant at every sample; lozenge motions
    violate it everywhere (their diagonals stay orthogonal).
    """
    r1, r2, r3, r4 = (np.asarray(p, dtype=float) for p in points)
    n13 = diagonal_axis(r1, r3)
    n24 = diagonal_axis(r2, r4)
    return abs(float(n13 @ n24)) > DIAGONAL_TOL
