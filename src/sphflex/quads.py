"""Classification of spherical quadrilateral motions from edge patterns.

A quadrilateral is a 4-cycle with odd vertices in positions 1, 3 and even
vertices in positions 2, 4; its edges carry the values ``delta = <p, q>``
of the realizations.  Five motion classes are distinguished by sign-exact
relations between the four values:

* odd deltoid   -- d12 = a*d23 and d34 = a*d14 for a sign a
* even deltoid  -- d12 = a*d14 and d23 = a*d34
* rhomboid      -- d12 = a*d34 and d14 = a*d23 (opposite edges)
* lozenge       -- all four equal up to signs with an even number of
                   minus signs; takes precedence over the others
* general       -- none of the relations hold

Swapping a vertex with its antipode negates the two incident values, so
sign patterns are only meaningful up to those flips; the parity of minus
signs among four equal magnitudes is the flip invariant separating the
lozenge from the unclassified all-equal pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .cuts import MU_TABLE, MuRow
from .errors import SphflexError
from .spherical import Vec, normalize

GENERAL = "general"
ODD_DELTOID = "odd_deltoid"
EVEN_DELTOID = "even_deltoid"
RHOMBOID = "rhomboid"
LOZENGE = "lozenge"

# the slack of the two rhomboid lemmas, which no command sets
RHOMBOID_TOL = 1e-9
DIAGONAL_TOL = 1e-8
PARALLEL_TOL = 1e-7

_TAG_LETTER = {
    GENERAL: "g",
    ODD_DELTOID: "o",
    EVEN_DELTOID: "e",
    RHOMBOID: "r",
    LOZENGE: "l",
}

# flipping the vertex at a cycle position negates its two incident edges,
# indexed into (d12, d23, d34, d14)
_FLIP_EDGES = {1: (0, 3), 2: (0, 1), 3: (1, 2), 4: (2, 3)}


@dataclass(frozen=True)
class QuadLengths:
    """Edge values (d12, d23, d34, d14) around the 4-cycle, each in (-1, 1).

    Zero is allowed; it encodes orthogonal placements.
    """

    d12: float
    d23: float
    d34: float
    d14: float

    def __post_init__(self):
        for name, v in self.as_dict().items():
            if not -1.0 < v < 1.0:
                raise SphflexError(f"{name}={v} outside (-1, 1)")

    def values(self) -> tuple[float, float, float, float]:
        return (self.d12, self.d23, self.d34, self.d14)

    def as_dict(self) -> dict[str, float]:
        return {"d12": self.d12, "d23": self.d23, "d34": self.d34, "d14": self.d14}

    @classmethod
    def from_points(cls, points: Sequence[Vec]) -> "QuadLengths":
        r1, r2, r3, r4 = points
        return cls(
            float(r1 @ r2), float(r2 @ r3), float(r3 @ r4), float(r1 @ r4)
        )


@dataclass(frozen=True)
class QuadType:
    """Classification result: a tag plus the matched sign profile.

    Deltoids and rhomboids carry ``(alpha,)``; lozenges the full triple
    ``(alpha, beta, gamma)``; the general type an empty profile.  A sign of
    0 marks a profile entry left ambiguous by zero edge values.
    """

    tag: str
    sign_profile: tuple[int, ...]

    @property
    def letter(self) -> str:
        return _TAG_LETTER[self.tag]

    def mu_rows(self) -> dict[tuple[str, object], MuRow]:
        """Multiplicity-table rows compatible with this tag.

        Length data alone cannot pick a deltoid subcase or a rhomboid or
        lozenge component, so all rows of the tag are returned.
        """
        return {k: v for k, v in MU_TABLE.items() if k[0] == self.letter}


def _deltoid_profile(x1: float, y1: float, x2: float, y2: float, tol: float) -> Optional[int]:
    """Sign a with x1 = a*y1 and x2 = a*y2 within tol, preferring +1; zero
    pairs leave the sign ambiguous (returned as 0)."""
    best = None
    for a in (1, -1):
        if abs(x1 - a * y1) <= tol and abs(x2 - a * y2) <= tol:
            best = a if best is None else 0
    return best


def _lozenge_profile(q: QuadLengths, tol: float) -> Optional[tuple[int, int, int]]:
    d12, d23, d34, d14 = q.values()
    if abs(d12) <= tol:
        return None
    for alpha, beta, gamma in ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)):
        if (
            abs(d12 - alpha * d23) <= tol
            and abs(d12 - beta * d34) <= tol
            and abs(d12 - gamma * d14) <= tol
        ):
            return (alpha, beta, gamma)
    return None


def classify(q: QuadLengths, tol: float = 1e-9) -> QuadType:
    """Classify a quadrilateral from its four edge values.

    The lozenge pattern wins over the other relations.  If two of the
    mutually exclusive deltoid/rhomboid patterns match within ``tol``, the
    input sits in a tolerance gray zone and the call raises
    ``SphflexError`` instead of guessing (exact double matches
    would force all magnitudes equal, which the lozenge branch or the
    odd-parity fall-through to general already covers).  ``tol`` must be
    finite and positive: a NaN or negative one matches nothing and would
    skip that refusal.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise SphflexError(f"tol must be finite and positive, got {tol}")
    loz = _lozenge_profile(q, tol)
    if loz is not None:
        return QuadType(LOZENGE, loz)

    d12, d23, d34, d14 = q.values()
    matches: list[QuadType] = []
    a = _deltoid_profile(d12, d23, d34, d14, tol)
    if a is not None:
        matches.append(QuadType(ODD_DELTOID, (a,)))
    a = _deltoid_profile(d12, d14, d23, d34, tol)
    if a is not None:
        matches.append(QuadType(EVEN_DELTOID, (a,)))
    a = _deltoid_profile(d12, d34, d14, d23, tol)
    if a is not None:
        matches.append(QuadType(RHOMBOID, (a,)))

    if not matches:
        return QuadType(GENERAL, ())
    if len(matches) > 1:
        raise SphflexError(
            "patterns "
            + ", ".join(m.tag for m in matches)
            + f" all match within tol={tol}; refusing to guess"
        )
    return matches[0]


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


# ---------------------------------------------------------------------------
# realization-level rhomboid analysis
# ---------------------------------------------------------------------------


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
    q = QuadLengths.from_points(pts)
    qt = classify(q, tol)
    if qt.tag != RHOMBOID:
        raise SphflexError(f"realization classifies as {qt.tag}, not rhomboid")

    _, flips = antipodal_normalize(q)
    for v in flips:
        pts[v - 1] = -pts[v - 1]
    norm_q = QuadLengths.from_points(pts)
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
