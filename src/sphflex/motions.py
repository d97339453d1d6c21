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
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Iterable, Optional, Sequence

import numpy as np

from .coloring import EdgeColoring, is_nap, nap_pole_partition
from .errors import SphflexError
from .graphs import Graph, induced_subgraph, k33, k44
from .spherical import (
    COMPAT_TOL,
    ON_SPHERE_TOL,
    LengthAssignment,
    SphericalRealization,
    Vec,
    check_on_sphere,
    degenerate_pair_masks,
    distinct_from,
    random_unit_point,
    realizations_of_stack,
    rotations_about_axis,
    row_dots,
)

KIND_POLAR = "polar_nap"
KIND_DIXON1 = "dixon1"
KIND_DIXON2 = "dixon2"
KIND_CDA = "const_diag_angle"
KIND_TRACED = "traced"
KIND_UNCLASSIFIED = "unclassified"

# how far a sample may miss a Dixon signature or the constant-diagonal-angle
# length pattern and still have it
DETECT_TOL = 1e-8

NORTH = np.array([1.0, 0.0, 0.0])
SOUTH = np.array([-1.0, 0.0, 0.0])

# half-turns about the coordinate axes; together with the identity they
# form the symmetry group of the Dixon 2 construction
HALF_TURN_X = np.diag([1.0, -1.0, -1.0])
HALF_TURN_Y = np.diag([-1.0, 1.0, -1.0])
HALF_TURN_Z = np.diag([-1.0, -1.0, 1.0])


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    realization: SphericalRealization


@dataclass(frozen=True, eq=False)
class MotionTrajectory:
    """Sampled one-parameter family of compatible realizations.

    ``points`` holds every sample as one read-only (S, |V|, 3) array, the
    vertices in ``graph.vertices`` order, and ``parameters`` the S parameter
    values.  Construction validates the stack in one pass: every point lies
    on the unit sphere, every sample meets the length assignment within
    ``COMPAT_TOL`` and at least two samples are essentially distinct; a NaN
    point or residual fails these checks.  ``samples`` (each holds its
    realization only) and ``realizations()`` are views of the stack, built
    on each access and not kept: iterate over them once rather than index
    them in a loop.  ``sample_flags()`` marks the injective and proper ones.
    """

    graph: Graph
    lengths: LengthAssignment
    points: Vec
    parameters: Vec
    kind: str

    def __post_init__(self):
        order = self.graph.vertices
        pts = np.array(self.points, dtype=float)
        params = np.array(self.parameters, dtype=float)
        if pts.shape[1:] != (len(order), 3) or params.shape != pts.shape[:1]:
            raise SphflexError(
                f"{params.shape} parameters and points of shape {pts.shape} "
                f"do not fit a stack of samples of {len(order)} vertices"
            )
        pts.flags.writeable = False
        params.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "parameters", params)
        check_on_sphere(pts, order)
        if len(pts) < 2:
            raise SphflexError("need at least two samples")
        if not np.isfinite(params).all():
            raise SphflexError("sample parameters must be finite")
        worst = self.worst_edge_residuals()
        bad = np.flatnonzero(~(worst <= COMPAT_TOL))
        if bad.size:
            k = bad[0]
            raise SphflexError(
                f"sample at parameter {float(params[k])} has edge residual {worst[k]:.3e}"
            )
        if not distinct_from(pts[0], pts[1:]).any():
            raise SphflexError("no two samples are essentially distinct")

    @cached_property
    def _degenerate_masks(self) -> tuple[Vec, Vec]:
        return degenerate_pair_masks(self.points)

    @property
    def samples(self) -> tuple[TrajectorySample, ...]:
        return tuple(map(TrajectorySample, self.realizations()))

    def realizations(self) -> list[SphericalRealization]:
        return realizations_of_stack(self.graph.vertices, self.points)

    def sample_flags(self) -> tuple[Vec, Vec]:
        """Whether each sample is injective (no coincident pair) and proper
        (injective with no antipodal pair), as two bool arrays."""
        coincident, antipodal = self._degenerate_masks
        injective = ~coincident.any(axis=1)
        return injective, injective & ~antipodal.any(axis=1)

    def max_residual(self) -> float:
        return float(self.worst_edge_residuals().max())

    def worst_edge_residuals(self) -> Vec:
        """Largest |edge residual| of each sample, equal bit for bit to
        ``max_edge_residual`` of each sample."""
        return self._worst_edge_residuals

    @cached_property
    def _worst_edge_residuals(self) -> Vec:
        edges = self.graph.edges
        if not edges:
            return np.zeros(len(self.points))
        a, b = zip(*self.graph.ends)
        lam = np.array([self.lengths.length(*e) for e in edges])
        res = 0.5 * (1.0 - row_dots(self.points[:, a], self.points[:, b])) - lam
        worst = np.abs(res).max(axis=1)
        worst.flags.writeable = False
        return worst

    def restrict(self, keep: Iterable[int]) -> "MotionTrajectory":
        """Trajectory of the induced subgraph on ``keep``."""
        sub = induced_subgraph(self.graph, keep)
        cols = [self.graph.position[v] for v in sub.vertices]
        return MotionTrajectory(
            sub,
            self.lengths.restrict(sub.edges),
            self.points[:, cols],
            self.parameters,
            self.kind,
        )


def make_trajectory(
    graph: Graph,
    lengths: LengthAssignment,
    realizations: Sequence[tuple[float, SphericalRealization]],
    kind: str,
) -> MotionTrajectory:
    """Trajectory from (parameter, realization) pairs, each realization
    placing exactly the graph's vertices."""
    order = graph.vertices
    for t, rho in realizations:
        if rho.vertices != order:
            raise SphflexError(
                f"sample at parameter {t} places vertices {list(rho.vertices)}, "
                f"not the graph's {list(order)}"
            )
    pts = np.array([[rho.point(v) for v in order] for _, rho in realizations])
    return MotionTrajectory(
        graph,
        lengths,
        pts.reshape(len(realizations), len(order), 3),
        [t for t, _ in realizations],
        kind,
    )


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
        raise SphflexError("pole motion needs a NAP-coloring")
    if len(angles) == 0:
        raise SphflexError("need at least one angle")
    part = nap_pole_partition(coloring)
    rng = np.random.default_rng(seed)
    placement: dict[int, Vec] = {}
    for v in sorted(part.poles):
        sign = 1 if pole_assignment is None else pole_assignment.get(v, 1)
        placement[v] = NORTH if sign >= 0 else SOUTH
    for v in sorted(part.red_side | part.blue_side):
        vec = random_unit_point(rng)
        # keep generic positions away from the poles so edge lengths stay
        # inside (0, 1)
        while abs(vec[0]) > 0.98:
            vec = random_unit_point(rng)
        placement[v] = vec

    lengths = LengthAssignment.induced(g, SphericalRealization(placement))
    thetas = [float(theta) for theta in angles]
    base = np.array([placement[v] for v in g.vertices])
    blue = [g.position[v] for v in sorted(part.blue_side)]
    rots = rotations_about_axis(NORTH, thetas)
    pts = np.repeat(base[None], len(thetas), axis=0)
    # a stack of (3x3)(3x1) products rounds like each ``rot.apply(p)``
    pts[:, blue] = (rots[:, None] @ base[blue][None, :, :, None])[..., 0]
    return MotionTrajectory(g, lengths, pts, thetas, KIND_POLAR)


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
            raise SphflexError("c maps odd vertices 1,3,5 and d even 2,4,6")
        prods = [ci * dj for ci in self.c.values() for dj in self.d.values()]
        if not all(0.0 < abs(p) < 1.0 for p in prods):  # NaN fails too
            raise SphflexError("products c_i*d_j must lie in (-1,1) minus 0")


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
    s_list = [float(s) for s in s_values]
    s = np.array(s_list).reshape(-1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_t = np.array([params.c[i] for i in (1, 3, 5)]) * s
        sin_p = np.array([params.d[j] for j in (2, 4, 6)]) / s
    bad_t, bad_p = ~(np.abs(sin_t) <= 1.0), ~(np.abs(sin_p) <= 1.0)  # NaN is bad too
    bad = np.flatnonzero((s[:, 0] == 0.0) | bad_t.any(axis=1) | bad_p.any(axis=1))
    if bad.size:
        k = bad[0]
        if s_list[k] == 0.0:
            raise SphflexError("s = 0 is outside the parametrization")
        for i, off in zip((1, 3, 5), bad_t[k]):
            if off:
                raise SphflexError(f"|c_{i} * s| > 1 at s={s_list[k]}")
        j = (2, 4, 6)[int(np.argmax(bad_p[k]))]
        raise SphflexError(f"|d_{j} / s| > 1 at s={s_list[k]}")
    pts = np.zeros((len(s_list), 6, 3))
    # float_power is C pow, which rounds x**2 as Python floats do
    pts[:, 0::2, 0] = np.sqrt(1.0 - np.float_power(sin_t, 2))
    pts[:, 0::2, 2] = sin_t
    pts[:, 1::2, 1] = np.sqrt(1.0 - np.float_power(sin_p, 2))
    pts[:, 1::2, 2] = sin_p
    return MotionTrajectory(g, lengths, pts, s_list, KIND_DIXON1)


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
        # each is a product of coordinates of two unit vectors; NaN fails too
        for name in ("alpha", "beta", "gamma"):
            x = getattr(self, name)
            if x == 0.0:
                raise SphflexError(f"{name} = 0 would park a vertex on an axis")
            if not abs(x) < 1.0:
                raise SphflexError(f"{name} = {x} must lie in (-1, 1) minus 0")


def _solve_dixon2_points(params: Dixon2Params, p1_list: Sequence[float]) -> tuple[Vec, Vec]:
    """For every p1 find p = (p1, p2, p3) and q = (a/p1, b/p2, c/p3), both
    unit, as two (S, 3) arrays, with p2^2 the smaller of the two roots.

    The bisection halvings, at most 200, run as array ops over all p1 at
    once; elementwise float64 arithmetic rounds as the scalar code does, so
    each row equals the one-p1-at-a-time solution bit for bit.  They stop
    early once a halving leaves every bracket unchanged: the brackets are
    then a fixed point that the remaining halvings would not move.  A NaN
    bracket never compares equal, so a stack with a NaN row runs all 200;
    such a row is then rejected like any p1 outside (0, 1).
    """
    a2, b2, c2 = params.alpha**2, params.beta**2, params.gamma**2
    p1 = np.array(p1_list)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r2 = 1.0 - p1 * p1
        base = a2 / (p1 * p1) - 1.0

        def residual(u: Vec) -> Vec:
            return base + b2 / u + c2 / (r2 - u)

        # the residual is convex on (0, r2) with poles at both ends; its
        # minimum locates the two roots when a real solution exists
        u_star = abs(params.beta) * r2 / (abs(params.beta) + abs(params.gamma))
        no_root = residual(u_star) > 0.0
        # the smaller root: the residual falls from +inf at 0 to u_star
        lo, hi = np.full_like(p1, 1e-300), u_star
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            up = residual(mid) > 0.0
            new_lo, new_hi = np.where(up, mid, lo), np.where(up, hi, mid)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        u = 0.5 * (lo + hi)
        p = np.stack([p1, np.sqrt(u), np.sqrt(np.maximum(r2 - u, 0.0))], axis=1)
        q = np.array([params.alpha, params.beta, params.gamma]) / p
    outside = ~(np.abs(p1) < 1.0) | (p1 == 0.0)  # NaN is outside too
    touches = (p == 0.0).any(axis=1)
    bad = np.flatnonzero(outside | no_root | touches)
    if bad.size:
        k = bad[0]
        if outside[k]:
            raise SphflexError(f"p1={p1_list[k]} outside (0,1)")
        if no_root[k]:
            raise SphflexError(f"no real companion point for p1={p1_list[k]} at these products")
        raise SphflexError("solution touches a coordinate plane")
    q /= np.sqrt(row_dots(q, q))[:, None]  # absorb roundoff; residual check follows
    return p, q


# the identity and the half-turns about x, y and z as coordinate signs: a
# half-turn about a coordinate axis flips two signs, exactly
_DIXON2_SIGNS = np.array([np.diag(m) for m in (np.eye(3), HALF_TURN_X, HALF_TURN_Y, HALF_TURN_Z)])


def dixon2_motion(params: Dixon2Params, p1_values: Sequence[float]) -> MotionTrajectory:
    """K(4,4) trajectory symmetric under the three coordinate half-turns.

    Odd vertices 1,3,5,7 are the orbit of p under the half-turn group,
    even vertices 2,4,6,8 the orbit of q.  Every odd/even inner product is
    one of the four sums +-alpha +- beta +- gamma with an even number of
    signs flipped, hence constant along the family.  Drop vertices 7 and 8
    (``trajectory.restrict(range(1, 7))``) for the K(3,3) motion.
    """
    g = k44()
    p1_list = [float(p1) for p1 in p1_values]
    if not p1_list:
        raise SphflexError("no parameter values supplied")
    p, q = _solve_dixon2_points(params, p1_list)
    pts = np.empty((len(p1_list), 8, 3))
    pts[:, 0::2] = p[:, None] * _DIXON2_SIGNS
    pts[:, 1::2] = q[:, None] * _DIXON2_SIGNS
    lengths = LengthAssignment.induced(g, SphericalRealization(dict(zip(g.vertices, pts[0]))))
    return MotionTrajectory(g, lengths, pts, p1_list, KIND_DIXON2)


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
            raise SphflexError("a must be nonzero")
        if abs(self.e) >= 1.0 or abs(self.a) >= 1.0:
            raise SphflexError("a and e must lie in (-1, 1)")
        res = self.a**3 * self.e**2 + self.a**3 - self.a * self.e**2
        if abs(res) > 1e-12:
            raise SphflexError(f"relation residual {res:.3e} exceeds 1e-12")
        if abs(abs(self.e) - abs(self.a)) <= 1e-12:
            raise SphflexError("e = +-a is excluded")


def cda_params_from_e(e: float) -> CdaParams:
    """Solve the relation curve for a given e (positive branch of a)."""
    if not -1.0 < e < 1.0 or e == 0.0:
        raise SphflexError("e must lie in (-1, 1) and be nonzero")
    a = e / math.sqrt(e * e + 1.0)
    return CdaParams(a, e)


_CDA_A = 0.6
_CDA_E = 0.75


def _require_reference_cda(params: CdaParams):
    if abs(params.a - _CDA_A) > 1e-12 or abs(params.e - _CDA_E) > 1e-12:
        raise SphflexError("the radical parametrization is available at (a, e) = (3/5, 3/4) only")


def _cda_rows(
    t_values: Sequence[float], y2_sign: int, z5_sign: int
) -> tuple[Vec, Vec, Optional[SphflexError]]:
    """Points of vertices 1..6 of the constant-diagonal-angle motion at
    every t, as an (S, 6, 3) array; which t give a realization; and the
    error of the first t that does not, or None.

    Vertex 1 is pinned at (1,0,0) and vertex 6 at (0,1,0); vertices 5 and
    6 are the poles of the diagonals of the quadrilateral 1-2-3-4.  The two
    signs select the branches of the nested radicals; all four consistent
    choices parametrize arcs of the same configuration curve.

    Every power is ``np.float_power``, C pow as Python's float ``**`` is,
    so each row equals the closed form evaluated at one t bit for bit.  At
    large |t| the z5 radicand cancels catastrophically, and a t whose
    points round off the sphere is refused with a message that says so.
    """
    t = np.array(t_values, dtype=float)
    with np.errstate(all="ignore"):
        y2_rad = (t + 7.0) * (7.0 * t + 1.0)
        y2 = y2_sign * np.sqrt(y2_rad) / (5.0 * t + 5.0)
        t2, y2_2 = np.float_power(t, 2), np.float_power(y2, 2)
        z5_rad = (
            25.0 * np.float_power(t, 4) * y2_2
            - 50.0 * t2 * y2_2
            + 25.0 * y2_2
            - 72.0 * np.float_power(t, 3)
            - 72.0 * t
        )
        z5 = (-5.0 * y2 * t2 + 5.0 * y2 + z5_sign * np.sqrt(z5_rad)) / (8.0 * (t2 + 1.0))
        rows = np.zeros((len(t), 6, 3))
        rows[:, 0, 0] = 1.0
        rows[:, 1, 0] = 0.6
        rows[:, 1, 1] = y2
        rows[:, 1, 2] = 0.6 * (t - 1.0) / (t + 1.0)
        rows[:, 2, 0] = 2.0 * t / (t2 + 1.0)
        rows[:, 2, 2] = (t2 - 1.0) / (t2 + 1.0)
        rows[:, 3, 0] = 0.6
        rows[:, 3, 1] = y2 + 8.0 * (t2 + 1.0) * z5 / (5.0 * (t2 - 1.0))
        rows[:, 3, 2] = -0.6 * (t + 1.0) / (t - 1.0)
        rows[:, 4, 0] = t * (16.0 * np.float_power(z5, 2) + 9.0) / (8.0 * z5 * (t2 - 1.0))
        rows[:, 4, 1] = 0.75
        rows[:, 4, 2] = z5
        rows[:, 5, 1] = 1.0
        off = np.abs(row_dots(rows, rows) - 1.0).max(axis=1)
    # a t fails the first of these that holds for it
    fails = [
        ~np.isfinite(t),
        (t == -1.0) | (t == 0.0) | (t == 1.0),
        y2_rad < 0.0,
        ~np.isfinite(z5_rad),  # also where y2_rad overflowed: y2 is then inf or NaN
        z5_rad < 0.0,
        z5 == 0.0,
        ~(off <= ON_SPHERE_TOL),
    ]
    valid = ~np.logical_or.reduce(fails)
    if valid.all():
        return rows, valid, None
    k = int(np.argmin(valid))
    tk = float(t[k])
    message = (
        f"t={tk} is not finite",
        f"t={tk} is a pole of the parametrization",
        f"y2 radicand {y2_rad[k]:.3e} < 0 at t={tk}",
        f"the radicands overflow at t={tk}",
        f"z5 radicand {z5_rad[k]:.3e} < 0 at t={tk}",
        f"z5 vanishes at t={tk}",
        f"the closed form leaves the sphere by {off[k]:.3e} at t={tk}",
    )[next(i for i, fail in enumerate(fails) if fail[k])]
    return rows, valid, SphflexError(message)


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
    ts = [float(t) for t in t_values]
    pts, _, error = _cda_rows(ts, y2_sign, z5_sign)
    if error is not None:
        raise error
    return MotionTrajectory(k33(), lengths, pts, ts, KIND_CDA)


# ---------------------------------------------------------------------------
# motion-kind detection
# ---------------------------------------------------------------------------


def _dixon1_samples(pts: Vec, tol: float) -> Vec:
    """Per sample: odd vertices on one great circle, even vertices on
    another, the two circles orthogonal; from batched SVDs of the (S, 3, 3)
    stacks of odd and of even points."""
    _, s_odd, vt_odd = np.linalg.svd(pts[:, 0::2])
    _, s_even, vt_even = np.linalg.svd(pts[:, 1::2])
    return (
        (s_odd[:, -1] <= tol)
        & (s_even[:, -1] <= tol)
        & (np.abs(row_dots(vt_odd[:, -1], vt_even[:, -1])) <= tol)
    )


# vertex index pairs (1,3), (1,5), (3,5) and (2,4), (2,6), (4,6) of K(3,3)
_ODD_PAIRS = ((0, 2), (0, 4), (2, 4))
_EVEN_PAIRS = ((1, 3), (1, 5), (3, 5))


def _pair_axes(pts: Vec, pairs: Sequence[tuple[int, int]]) -> tuple[Vec, Vec]:
    """Half-turn axis candidates (a + b)/|a + b| and (a - b)/|a - b| of each
    vertex pair, shape (S, 3, 2, 3), and whether each norm exceeds 1e-7."""
    a = pts[:, [i for i, _ in pairs]]
    b = pts[:, [j for _, j in pairs]]
    v = np.stack([a + b, a - b], axis=2)
    norm = np.sqrt(row_dots(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        return v / norm[..., None], norm > 1e-7


# the 48 ways to match odd pairs 0, 1, 2 to distinct even pairs _MATCH[:, k]
# and pick an axis sign _SIGN[:, k] for each: one row per way
_MATCH = np.repeat(list(permutations(range(3))), 8, axis=0)
_SIGN = np.tile(list(product((0, 1), repeat=3)), (6, 1))


def _max3(v: Vec) -> Vec:
    """``v.max(axis=-1)`` of a (..., 3) array, elementwise, which is exact
    and propagates NaN as the reduction does."""
    return np.maximum(np.maximum(v[..., 0], v[..., 1]), v[..., 2])


def _dixon2_samples(pts: Vec, tol: float) -> Vec:
    """Per sample: three mutually orthogonal half-turn axes, each shared by
    an odd pair and an even pair (allowing antipodal partners)."""
    odd_axes, odd_ok = _pair_axes(pts, _ODD_PAIRS)
    even_axes, even_ok = _pair_axes(pts, _EVEN_PAIRS)
    o, e = odd_axes[:, :, :, None, None], even_axes[:, None, None]
    with np.errstate(invalid="ignore"):
        close = np.minimum(_max3(np.abs(o - e)), _max3(np.abs(o + e))) <= tol
        orth = np.abs(row_dots(o, odd_axes[:, None, None])) <= tol
    # shares[:, k, so, m]: the sign-so axis of odd pair k is one of even pair m
    shares = odd_ok[..., None] & (close & even_ok[:, None, None]).any(axis=-1)
    s0, s1, s2 = _SIGN.T
    return (
        shares[:, range(3), _SIGN, _MATCH].all(axis=-1)
        & orth[:, 0, s0, 1, s1]
        & orth[:, 0, s0, 2, s2]
        & orth[:, 1, s1, 2, s2]
    ).any(axis=-1)


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


def _three_distinct(pts: Vec) -> bool:
    """Whether a greedy scan in sample order picks three pairwise
    essentially distinct samples."""
    from_first = distinct_from(pts[0], pts)
    later = np.flatnonzero(from_first)
    if not later.size:
        return False
    j = later[0]
    return bool((from_first[j + 1 :] & distinct_from(pts[j], pts[j + 1 :])).any())


def detect_k33_motion_kind(traj: MotionTrajectory) -> str:
    """Classify a K(3,3) trajectory as dixon1, dixon2 or const_diag_angle.

    Requires at least three pairwise essentially distinct samples and no
    coincident or antipodal vertices anywhere.  Returns ``unclassified``
    when no signature matches; it never guesses.  Each signature is tested
    on the first sample, and only if that one has it on the whole stack of
    samples at once, each within ``DETECT_TOL``.
    """
    if set(traj.graph.vertices) != {1, 2, 3, 4, 5, 6} or traj.graph.num_edges != 9:
        raise SphflexError("detector expects the standard K(3,3)")
    pts = traj.points
    if not _three_distinct(pts):
        raise SphflexError("need three essentially distinct samples")
    improper = np.flatnonzero(~traj.sample_flags()[1])
    if improper.size:
        raise SphflexError(
            f"sample at {float(traj.parameters[improper[0]])} has coincident or antipodal vertices"
        )

    for kind, has_signature in ((KIND_DIXON1, _dixon1_samples), (KIND_DIXON2, _dixon2_samples)):
        if has_signature(pts[:1], DETECT_TOL)[0] and has_signature(pts, DETECT_TOL).all():
            return kind
    if _cda_pattern(traj.lengths, DETECT_TOL):
        return KIND_CDA
    return KIND_UNCLASSIFIED
