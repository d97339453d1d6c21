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
from typing import Optional

from .cuts import MU_TABLE, MuRow
from .errors import SphflexError

GENERAL = "general"
ODD_DELTOID = "odd_deltoid"
EVEN_DELTOID = "even_deltoid"
RHOMBOID = "rhomboid"
LOZENGE = "lozenge"

_TAG_LETTER = {
    GENERAL: "g",
    ODD_DELTOID: "o",
    EVEN_DELTOID: "e",
    RHOMBOID: "r",
    LOZENGE: "l",
}


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
        for name, v in zip(("d12", "d23", "d34", "d14"), self.values()):
            if not -1.0 < v < 1.0:
                raise SphflexError(f"{name}={v} outside (-1, 1)")

    def values(self) -> tuple[float, float, float, float]:
        return (self.d12, self.d23, self.d34, self.d14)


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
