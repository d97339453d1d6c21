"""Explicit one-parameter motions on the sphere.

Four generators are provided:

* the pole motion realizing any no-alternating-path coloring (vertices
  meeting both colors go to the poles, the blue side spins about the axis),
* the Dixon 1 motion of K(3,3) along two orthogonal great circles,
* the Dixon 2 motion of K(4,4) symmetric under the three half-turns about
  the coordinate axes (K(3,3) by dropping a vertex pair),
* the constant-diagonal-angle motion of K(3,3), via the radical
  parametrization available at the parameter pair (a, e) = (3/5, 3/4) on
  the relation curve a^3 e^2 + a^3 - a e^2 = 0.

Each generator returns a ``MotionTrajectory`` whose construction checks
compatibility of every sample and the existence of two essentially
distinct samples, which is the numerical witness of flexibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .coloring import EdgeColoring, is_nap, nap_pole_partition
from .errors import (
    DegenerateAxisError,
    DegenerateRealizationError,
    DegenerateTrajectoryError,
    DomainViolationError,
    InsufficientSamplesError,
    NegativeDiscriminantError,
    NoRealSolutionError,
    NotNapError,
    OutOfRangeError,
    PoleError,
    SphflexError,
    ZeroDivisorError,
)
from .graphs import Graph, induced_subgraph, k33, k44
from .spherical import (
    COMPAT_TOL,
    LengthAssignment,
    SphericalRealization,
    Vec,
    degenerate_pairs_of_all,
    essentially_distinct,
    rotations_about_axis,
    row_dots,
    stack_points,
)

KIND_POLAR = "polar_nap"
KIND_DIXON1 = "dixon1"
KIND_DIXON2 = "dixon2"
KIND_CDA = "const_diag_angle"
KIND_TRACED = "traced"
KIND_UNCLASSIFIED = "unclassified"

NORTH = np.array([1.0, 0.0, 0.0])
SOUTH = np.array([-1.0, 0.0, 0.0])

# half-turns about the coordinate axes; together with the identity they
# form the symmetry group of the Dixon 2 construction
HALF_TURN_X = np.diag([1.0, -1.0, -1.0])
HALF_TURN_Y = np.diag([-1.0, 1.0, -1.0])
HALF_TURN_Z = np.diag([-1.0, -1.0, 1.0])


@dataclass(frozen=True)
class TrajectorySample:
    parameter: float
    realization: SphericalRealization
    coincident_pairs: tuple[tuple[int, int], ...]
    antipodal_pairs: tuple[tuple[int, int], ...]

    @property
    def injective(self) -> bool:
        return not self.coincident_pairs

    @property
    def proper(self) -> bool:
        return not self.coincident_pairs and not self.antipodal_pairs


@dataclass(frozen=True)
class MotionTrajectory:
    """Sampled one-parameter family of compatible realizations.

    Construction validates that every sample meets the length assignment
    within ``tol`` and that at least two samples are essentially distinct.
    """

    graph: Graph
    lengths: LengthAssignment
    samples: tuple[TrajectorySample, ...]
    kind: str
    tol: float = field(default=COMPAT_TOL, compare=False)

    def __post_init__(self):
        if len(self.samples) < 2:
            raise DegenerateTrajectoryError("need at least two samples")
        worst = self.worst_edge_residuals()
        bad = np.flatnonzero(worst > self.tol)
        if bad.size:
            s, r = self.samples[bad[0]], float(worst[bad[0]])
            raise DegenerateTrajectoryError(
                f"sample at parameter {s.parameter} has edge residual {r:.3e}"
            )
        first = self.samples[0].realization
        if not any(
            essentially_distinct(first, s.realization) for s in self.samples[1:]
        ):
            raise DegenerateTrajectoryError("no two samples are essentially distinct")

    def realizations(self) -> list[SphericalRealization]:
        return [s.realization for s in self.samples]

    def parameters(self) -> list[float]:
        return [s.parameter for s in self.samples]

    def max_residual(self) -> float:
        return float(self.worst_edge_residuals().max())

    def worst_edge_residuals(self) -> Vec:
        """Largest |edge residual| of each sample, all samples in one array op.

        Equal, bit for bit, to ``max_edge_residual`` of each sample.
        """
        edges = self.graph.edges
        if not edges:
            return np.zeros(len(self.samples))
        order = self.graph.vertices
        idx = {v: i for i, v in enumerate(order)}
        a = [idx[u] for u, _ in edges]
        b = [idx[w] for _, w in edges]
        lam = np.array([self.lengths.length(*e) for e in edges])
        pts = stack_points(self.realizations(), order)
        res = 0.5 * (1.0 - row_dots(pts[:, a], pts[:, b])) - lam
        return np.abs(res).max(axis=1)

    def restrict(self, keep: Iterable[int], kind: Optional[str] = None) -> "MotionTrajectory":
        """Trajectory of the induced subgraph on ``keep``."""
        kept = set(keep)
        sub = induced_subgraph(self.graph, kept)
        lengths = self.lengths.restrict(sub.edges)
        samples = _make_samples(
            [(s.parameter, s.realization.restrict(kept)) for s in self.samples]
        )
        return MotionTrajectory(sub, lengths, samples, kind or self.kind, self.tol)


def _make_samples(
    realizations: Sequence[tuple[float, SphericalRealization]]
) -> tuple[TrajectorySample, ...]:
    pairs = degenerate_pairs_of_all([rho for _, rho in realizations])
    return tuple(
        TrajectorySample(t, rho, tuple(coincident), tuple(antipodal))
        for (t, rho), (coincident, antipodal) in zip(realizations, pairs)
    )


def make_trajectory(
    graph: Graph,
    lengths: LengthAssignment,
    realizations: Sequence[tuple[float, SphericalRealization]],
    kind: str,
    tol: float = COMPAT_TOL,
) -> MotionTrajectory:
    return MotionTrajectory(graph, lengths, _make_samples(realizations), kind, tol)


# ---------------------------------------------------------------------------
# pole motion from a NAP-coloring
# ---------------------------------------------------------------------------


def polar_nap_motion(
    g: Graph,
    coloring: EdgeColoring,
    angles: Sequence[float],
    seed: int = 0,
    pole_assignment: Optional[dict[int, int]] = None,
) -> MotionTrajectory:
    """Motion obtained by spinning the blue part about the polar axis.

    Vertices incident to both colors go to the poles (+1 north, -1 south
    per ``pole_assignment``; default all north).  The red side is fixed at
    seeded generic positions, the blue side is rotated by each angle.  The
    pole vertices form an independent set, so non-adjacent vertices may
    collide; per-sample injectivity flags record when they do.
    """
    if not is_nap(coloring):
        raise NotNapError("pole motion needs a NAP-coloring")
    if len(angles) == 0:
        raise DegenerateTrajectoryError("need at least one angle")
    part = nap_pole_partition(coloring)
    rng = np.random.default_rng(seed)
    placement: dict[int, Vec] = {}
    for v in sorted(part.poles):
        sign = 1 if pole_assignment is None else pole_assignment.get(v, 1)
        placement[v] = NORTH if sign >= 0 else SOUTH
    for v in sorted(part.red_side | part.blue_side):
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        # keep generic positions away from the poles so edge lengths stay
        # inside (0, 1)
        while abs(vec[0]) > 0.98:
            vec = rng.normal(size=3)
            vec /= np.linalg.norm(vec)
        placement[v] = vec

    base = SphericalRealization(placement)
    lengths = LengthAssignment.induced(g, base)

    thetas = [float(theta) for theta in angles]
    blue = [v for v in placement if v in part.blue_side]
    rots = rotations_about_axis(NORTH, thetas)
    # a stack of (3x3)(3x1) products rounds like each ``rot.apply(p)``
    spun = (rots[:, None] @ np.stack([placement[v] for v in blue])[None, :, :, None])[..., 0]
    frames = []
    for theta, moved_blue in zip(thetas, spun):
        moved = dict(placement)
        moved.update(zip(blue, moved_blue))
        frames.append((theta, SphericalRealization(moved)))
    return make_trajectory(g, lengths, frames, KIND_POLAR)


# ---------------------------------------------------------------------------
# Dixon 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dixon1Params:
    """Slope constants per vertex: odd vertex i sits at latitude c_i * s on
    the great circle {y = 0}, even vertex j at latitude d_j / s on {x = 0}."""

    c: dict[int, float]
    d: dict[int, float]

    def __post_init__(self):
        if set(self.c) != {1, 3, 5} or set(self.d) != {2, 4, 6}:
            raise DomainViolationError("c maps odd vertices 1,3,5 and d even 2,4,6")
        prods = [ci * dj for ci in self.c.values() for dj in self.d.values()]
        if any(abs(p) >= 1.0 or p == 0.0 for p in prods):
            raise DomainViolationError("products c_i*d_j must lie in (-1,1) minus 0")


def dixon1_motion(params: Dixon1Params, s_values: Sequence[float]) -> MotionTrajectory:
    """Odd vertices on {y=0}, even vertices on {x=0}, coupled through s.

    With sin(theta_i) = c_i*s and sin(phi_j) = d_j/s the inner product of
    an odd/even pair is c_i*d_j, independent of s, so the induced lengths
    are constant along the family.
    """
    g = k33()
    deltas = {
        (i, j): params.c[i] * params.d[j] for i in (1, 3, 5) for j in (2, 4, 6)
    }
    lengths = LengthAssignment.from_deltas(deltas)
    frames = []
    for s in s_values:
        s = float(s)
        if s == 0.0:
            raise DomainViolationError("s = 0 is outside the parametrization")
        placement = {}
        for i in (1, 3, 5):
            sin_t = params.c[i] * s
            if abs(sin_t) > 1.0:
                raise DomainViolationError(f"|c_{i} * s| > 1 at s={s}")
            placement[i] = np.array([math.sqrt(1.0 - sin_t**2), 0.0, sin_t])
        for j in (2, 4, 6):
            sin_p = params.d[j] / s
            if abs(sin_p) > 1.0:
                raise DomainViolationError(f"|d_{j} / s| > 1 at s={s}")
            placement[j] = np.array([0.0, math.sqrt(1.0 - sin_p**2), sin_p])
        frames.append((s, SphericalRealization(placement)))
    return make_trajectory(g, lengths, frames, KIND_DIXON1)


# ---------------------------------------------------------------------------
# Dixon 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dixon2Params:
    """Coordinatewise products alpha = p1*q1, beta = p2*q2, gamma = p3*q3
    kept constant along the motion."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if 0.0 in (self.alpha, self.beta, self.gamma):
            raise DegenerateAxisError("zero product would park a vertex on an axis")


def _solve_dixon2_point(
    params: Dixon2Params, p1: float, branch: str
) -> tuple[Vec, Vec]:
    """Find p = (p1, p2, p3) and q = (a/p1, b/p2, c/p3), both unit."""
    a2, b2, c2 = params.alpha**2, params.beta**2, params.gamma**2
    if abs(p1) >= 1.0 or p1 == 0.0:
        raise NoRealSolutionError(f"p1={p1} outside (0,1)")
    r2 = 1.0 - p1 * p1
    base = a2 / (p1 * p1) - 1.0

    def residual(u: float) -> float:
        return base + b2 / u + c2 / (r2 - u)

    # the residual is convex on (0, r2) with poles at both ends; its
    # minimum locates the two roots when a real solution exists
    u_star = abs(params.beta) * r2 / (abs(params.beta) + abs(params.gamma))
    if residual(u_star) > 0.0:
        raise NoRealSolutionError(
            f"no real companion point for p1={p1} at these products"
        )
    lo, hi = (1e-300, u_star) if branch == "low" else (u_star, r2 * (1 - 1e-16))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (residual(mid) > 0.0) == (branch == "low"):
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    p = np.array([p1, math.sqrt(u), math.sqrt(max(r2 - u, 0.0))])
    if np.any(p == 0.0):
        raise DegenerateAxisError("solution touches a coordinate plane")
    q = np.array([params.alpha, params.beta, params.gamma]) / p
    q /= np.linalg.norm(q)  # absorb roundoff; residual check follows
    return p, q


def dixon2_motion(
    params: Dixon2Params, p1_values: Sequence[float], branch: str = "low"
) -> MotionTrajectory:
    """K(4,4) trajectory symmetric under the three coordinate half-turns.

    Odd vertices 1,3,5,7 are the orbit of p under the half-turn group,
    even vertices 2,4,6,8 the orbit of q.  Every odd/even inner product is
    one of the four sums +-alpha +- beta +- gamma with an even number of
    signs flipped, hence constant along the family.  Drop vertices 7 and 8
    (``trajectory.restrict(range(1, 7))``) for the K(3,3) motion.
    """
    g = k44()
    frames = []
    lengths = None
    for p1 in p1_values:
        p, q = _solve_dixon2_point(params, float(p1), branch)
        odd = {1: p, 3: HALF_TURN_X @ p, 5: HALF_TURN_Y @ p, 7: HALF_TURN_Z @ p}
        even = {2: q, 4: HALF_TURN_X @ q, 6: HALF_TURN_Y @ q, 8: HALF_TURN_Z @ q}
        rho = SphericalRealization({**odd, **even})
        if lengths is None:
            lengths = LengthAssignment.induced(g, rho)
        frames.append((float(p1), rho))
    if lengths is None:
        raise DegenerateTrajectoryError("no parameter values supplied")
    return make_trajectory(g, lengths, frames, KIND_DIXON2)


def dixon2_involutions() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three half-turns (tau, sigma, rho) with tau o sigma o rho = id."""
    return HALF_TURN_X, HALF_TURN_Z, HALF_TURN_Y


# ---------------------------------------------------------------------------
# constant-diagonal-angle motion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CdaParams:
    """Edge value a of the quadrilateral and diagonal-pole value e.

    The pair must satisfy a^3 e^2 + a^3 - a e^2 = 0 with a nonzero and
    e != +-a (equivalently a^2 = e^2 / (e^2 + 1)).
    """

    a: float
    e: float

    def __post_init__(self):
        if self.a == 0.0:
            raise OutOfRangeError("a must be nonzero")
        if abs(self.e) >= 1.0 or abs(self.a) >= 1.0:
            raise OutOfRangeError("a and e must lie in (-1, 1)")
        res = self.a**3 * self.e**2 + self.a**3 - self.a * self.e**2
        if abs(res) > 1e-12:
            raise OutOfRangeError(f"relation residual {res:.3e} exceeds 1e-12")
        if abs(abs(self.e) - abs(self.a)) <= 1e-12:
            raise OutOfRangeError("e = +-a is excluded")

    def relation_residual_exact(self) -> Fraction:
        """a^3 e^2 + a^3 - a e^2 in exact rational arithmetic.

        The float fields are read as the small-denominator rationals they
        round, so the reference pair (3/5, 3/4) evaluates to exactly zero.
        """
        a = Fraction(self.a).limit_denominator(10**9)
        e = Fraction(self.e).limit_denominator(10**9)
        return a**3 * e**2 + a**3 - a * e**2


def cda_params_from_e(e: float) -> CdaParams:
    """Solve the relation curve for a given e (positive branch of a)."""
    if not -1.0 < e < 1.0 or e == 0.0:
        raise OutOfRangeError("e must lie in (-1, 1) and be nonzero")
    a = e / math.sqrt(e * e + 1.0)
    return CdaParams(a, e)


_CDA_A = 0.6
_CDA_E = 0.75


def _require_reference_cda(params: CdaParams):
    if abs(params.a - _CDA_A) > 1e-12 or abs(params.e - _CDA_E) > 1e-12:
        raise OutOfRangeError(
            "the radical parametrization is available at (a, e) = (3/5, 3/4) "
            "only; reach other relation-curve points by numeric tracing"
        )


def cda_point(
    params: CdaParams, t: float, y2_sign: int = 1, z5_sign: int = 1
) -> SphericalRealization:
    """One realization of the constant-diagonal-angle motion at parameter t.

    Vertex 1 is pinned at (1,0,0) and vertex 6 at (0,1,0); vertices 5 and 6
    are the poles of the diagonals of the quadrilateral 1-2-3-4.  The two
    sign arguments select the branches of the nested radicals; all four
    consistent choices parametrize arcs of the same configuration curve.
    """
    _require_reference_cda(params)
    t = float(t)
    if t in (-1.0, 0.0, 1.0):
        raise PoleError(f"t={t} is a pole of the parametrization")
    y2_rad = (t + 7.0) * (7.0 * t + 1.0)
    if y2_rad < 0.0:
        raise NegativeDiscriminantError(f"y2 radicand {y2_rad:.3e} < 0 at t={t}")
    y2 = y2_sign * math.sqrt(y2_rad) / (5.0 * t + 5.0)
    z5_rad = (
        25.0 * t**4 * y2**2
        - 50.0 * t**2 * y2**2
        + 25.0 * y2**2
        - 72.0 * t**3
        - 72.0 * t
    )
    if z5_rad < 0.0:
        raise NegativeDiscriminantError(f"z5 radicand {z5_rad:.3e} < 0 at t={t}")
    z5 = (-5.0 * y2 * t**2 + 5.0 * y2 + z5_sign * math.sqrt(z5_rad)) / (
        8.0 * (t**2 + 1.0)
    )
    if z5 == 0.0:
        raise ZeroDivisorError(f"z5 vanishes at t={t}")
    x3 = 2.0 * t / (t**2 + 1.0)
    z3 = (t**2 - 1.0) / (t**2 + 1.0)
    z2 = 0.6 * (t - 1.0) / (t + 1.0)
    z4 = -0.6 * (t + 1.0) / (t - 1.0)
    x5 = t * (16.0 * z5**2 + 9.0) / (8.0 * z5 * (t**2 - 1.0))
    y4 = y2 + 8.0 * (t**2 + 1.0) * z5 / (5.0 * (t**2 - 1.0))
    return SphericalRealization(
        {
            1: np.array([1.0, 0.0, 0.0]),
            2: np.array([0.6, y2, z2]),
            3: np.array([x3, 0.0, z3]),
            4: np.array([0.6, y4, z4]),
            5: np.array([x5, 0.75, z5]),
            6: np.array([0.0, 1.0, 0.0]),
        }
    )


def cda_lengths(params: CdaParams) -> LengthAssignment:
    """The K(3,3) length pattern of the constant-diagonal-angle motion.

    Three quadrilateral edges carry a, the fourth -a; vertex 5 is
    orthogonal to 2 and 4, vertex 6 to 1 and 3; the 5-6 edge carries e.
    """
    a, e = params.a, params.e
    deltas = {
        (1, 2): a, (1, 4): a, (2, 3): a, (3, 4): -a,
        (2, 5): 0.0, (4, 5): 0.0, (1, 6): 0.0, (3, 6): 0.0,
        (5, 6): e,
    }
    return LengthAssignment.from_deltas(deltas)


def cda_motion(
    params: CdaParams,
    t_values: Sequence[float],
    y2_sign: int = 1,
    z5_sign: int = 1,
) -> MotionTrajectory:
    """Constant-diagonal-angle trajectory at the reference parameters.

    Branch signs must be held fixed along a connected t-interval; crossing
    a radicand zero raises rather than silently switching branches.
    """
    _require_reference_cda(params)
    lengths = cda_lengths(params)
    frames = [
        (float(t), cda_point(params, t, y2_sign, z5_sign)) for t in t_values
    ]
    return make_trajectory(k33(), lengths, frames, KIND_CDA)


def cda_feasible_intervals(
    t_lo: float,
    t_hi: float,
    samples: int = 4001,
    y2_sign: int = 1,
    z5_sign: int = 1,
) -> list[tuple[float, float]]:
    """Numerically scan [t_lo, t_hi] for real-branch feasibility.

    Returns maximal subintervals (between scanned grid points) on which the
    parametrization produced a valid realization for the given branch.
    """
    params = CdaParams(_CDA_A, _CDA_E)
    grid = np.linspace(t_lo, t_hi, samples)
    good = np.zeros(len(grid), dtype=bool)
    for i, t in enumerate(grid):
        try:
            cda_point(params, float(t), y2_sign, z5_sign)
            good[i] = True
        except SphflexError:
            good[i] = False
    intervals = []
    start = None
    for i, ok in enumerate(good):
        if ok and start is None:
            start = grid[i]
        elif not ok and start is not None:
            intervals.append((float(start), float(grid[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(start), float(grid[-1])))
    return intervals


# ---------------------------------------------------------------------------
# motion-kind detection
# ---------------------------------------------------------------------------


def _coplanar_normal(points: Sequence[Vec], tol: float) -> Optional[Vec]:
    """Unit normal of a common plane through the origin, if one exists."""
    m = np.stack(points)
    _, svals, vt = np.linalg.svd(m)
    if svals[-1] > tol:
        return None
    return vt[-1]


def _is_dixon1_sample(rho: SphericalRealization, tol: float) -> bool:
    n_odd = _coplanar_normal([rho.point(v) for v in (1, 3, 5)], tol)
    n_even = _coplanar_normal([rho.point(v) for v in (2, 4, 6)], tol)
    if n_odd is None or n_even is None:
        return False
    return abs(float(n_odd @ n_even)) <= tol


def _axis_candidates(a: Vec, b: Vec, tol: float) -> list[Vec]:
    out = []
    for sign in (1.0, -1.0):
        v = a + sign * b
        n = np.linalg.norm(v)
        if n > tol:
            out.append(v / n)
    return out


def _is_dixon2_sample(rho: SphericalRealization, tol: float) -> bool:
    """Look for three mutually orthogonal half-turn axes pairing the odd
    and even vertices (allowing antipodal partners)."""
    odd_pairs = list(combinations((1, 3, 5), 2))
    even_pairs = list(combinations((2, 4, 6), 2))

    def pair_axes(u: int, v: int) -> list[Vec]:
        return _axis_candidates(rho.point(u), rho.point(v), 1e-7)

    for even_perm in (
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    ):
        for choices in _product_axes(odd_pairs, even_pairs, even_perm, pair_axes, tol):
            axes = choices
            ok = True
            for i in range(3):
                for j in range(i + 1, 3):
                    if abs(float(axes[i] @ axes[j])) > tol:
                        ok = False
            if ok:
                return True
    return False


def _product_axes(odd_pairs, even_pairs, even_perm, pair_axes, tol):
    """Axis triples where the k-th odd pair shares an axis with the
    permuted k-th even pair."""
    per_slot = []
    for k in range(3):
        o = odd_pairs[k]
        e = even_pairs[even_perm[k]]
        slot = []
        for ax_o in pair_axes(*o):
            for ax_e in pair_axes(*e):
                if min(
                    np.abs(ax_o - ax_e).max(), np.abs(ax_o + ax_e).max()
                ) <= tol:
                    slot.append(ax_o)
        if not slot:
            return
        per_slot.append(slot)
    for a0 in per_slot[0]:
        for a1 in per_slot[1]:
            for a2 in per_slot[2]:
                yield (a0, a1, a2)


def _cda_pattern(lengths: LengthAssignment, tol: float) -> bool:
    """Zero pattern of the constant-diagonal-angle lengths, up to relabeling.

    Looks for an odd vertex orthogonal to two even vertices, an even vertex
    orthogonal to the other two odd vertices, a nonzero value between the
    two, and the remaining quadrilateral with all values of one magnitude
    carrying an odd number of minus signs (the flip-invariant parity that
    separates the pattern from a lozenge).
    """
    for o_star in (1, 3, 5):
        for e_star in (2, 4, 6):
            evens = [j for j in (2, 4, 6) if j != e_star]
            odds = [i for i in (1, 3, 5) if i != o_star]
            zero_edges = [(o_star, j) for j in evens] + [(i, e_star) for i in odds]
            if any(abs(lengths.delta_of(*e)) > tol for e in zero_edges):
                continue
            if abs(lengths.delta_of(o_star, e_star)) <= tol:
                continue
            quad_vals = [
                lengths.delta_of(odds[0], evens[0]),
                lengths.delta_of(evens[0], odds[1]),
                lengths.delta_of(odds[1], evens[1]),
                lengths.delta_of(odds[0], evens[1]),
            ]
            mags = [abs(v) for v in quad_vals]
            if max(mags) - min(mags) > tol or min(mags) <= tol:
                continue
            negatives = sum(1 for v in quad_vals if v < 0)
            if negatives % 2 == 1:
                return True
    return False


def detect_k33_motion_kind(traj: MotionTrajectory, tol: float = 1e-8) -> str:
    """Classify a K(3,3) trajectory as dixon1, dixon2 or const_diag_angle.

    Requires at least three pairwise essentially distinct samples and no
    coincident or antipodal vertices anywhere.  Returns ``unclassified``
    when no signature matches; it never guesses.
    """
    if set(traj.graph.vertices) != {1, 2, 3, 4, 5, 6} or traj.graph.num_edges != 9:
        raise DegenerateRealizationError("detector expects the standard K(3,3)")
    rhos = traj.realizations()
    distinct = [rhos[0]]
    for rho in rhos[1:]:
        if all(essentially_distinct(rho, d) for d in distinct):
            distinct.append(rho)
        if len(distinct) >= 3:
            break
    if len(distinct) < 3:
        raise InsufficientSamplesError("need three essentially distinct samples")
    for s in traj.samples:
        if not s.proper:
            raise DegenerateRealizationError(
                f"sample at {s.parameter} has coincident or antipodal vertices"
            )

    if all(_is_dixon1_sample(rho, tol) for rho in rhos):
        return KIND_DIXON1
    if all(_is_dixon2_sample(rho, tol) for rho in rhos):
        return KIND_DIXON2
    if _cda_pattern(traj.lengths, tol):
        return KIND_CDA
    return KIND_UNCLASSIFIED
