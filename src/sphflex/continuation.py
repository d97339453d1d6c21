"""Numeric tracing of configuration curves with rotation gauge fixing.

A realization of a graph with |V| vertices is flattened to 3|V|
coordinates.  The residual stacks one unit-sphere equation per vertex, one
length equation per edge and three gauge equations (two pinning the anchor
vertex to (1,0,0), one confining the meridian vertex to the plane z = 0),
which kill the three rotational degrees of freedom.  On a flexible
framework the Jacobian then has corank exactly 1 at a regular curve point,
and the curve is followed with a tangent predictor and a Gauss-Newton
corrector.  Every Newton solve here, polishing the seed and tracing,
assembles its equations through one gauged ``ConstraintSystem``, which gathers point
rows with ``take`` and scatters Jacobian blocks with ``put``.  The step is
written for few numpy calls: the slow forms of the corrector and the
certificate are kept as an oracle in ``tests/stepping.py``, and the tests
require a trace through them to equal one through this module bit for bit.

Along the curve the Jacobian is bordered by a pseudo-arclength row, which
gives it full column rank at a regular point; those systems, the corrector
steps and the tangent of each accepted point, are solved through their
normal equations.  Solves without that row are rank-deficient by
construction and take ``lstsq``'s minimum-norm step.  Only the seed, which
has no previous tangent, reads its corank and tangent off a full SVD.  At
every later point corank 1 is certified from the bordered normal matrix
(a Cholesky factorization of it, shifted, and the residual of the
tangent), and the singular values of the Jacobian are computed only when
that check cannot decide; the corank is the SVD rule's either way.

Degrees of forgetful projections come from exact fibers: the forgotten
vertices of every sample are placed by circle intersection from placed
neighbors and checked against the remaining edges, with no Newton solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional

import numpy as np

from .errors import (
    InsufficientSamplesError,
    RankDeficientError,
    SeedNotOnCurveError,
    SphflexError,
    StepFailureError,
    UnderConstrainedError,
)
from .graphs import Graph
from .motions import HALF_TURN_Z, KIND_TRACED, MotionTrajectory
from .spherical import (
    ON_SPHERE_TOL,
    LengthAssignment,
    SphericalRealization,
    Vec,
    row_dots,
)

CORANK_REL_TOL = 1e-7


@dataclass(frozen=True)
class GaugeFix:
    """Anchor vertex pinned to (1,0,0); meridian vertex held in {z = 0}."""

    anchor: int
    meridian: int

    def __post_init__(self):
        if self.anchor == self.meridian:
            raise SphflexError("anchor and meridian must differ")


def default_gauge(g: Graph) -> GaugeFix:
    anchor = g.vertices[0]
    return GaugeFix(anchor, g.neighbors(anchor)[0])


@dataclass(frozen=True)
class TraceConfig:
    step_size: float = 0.02
    max_steps: int = 5000
    newton_tol: float = 1e-12
    max_newton_iters: int = 30
    min_step: float = 1e-7

    def __post_init__(self):
        # a NaN passes every comparison below, and min_step <= 0 lets the
        # step halving reach a zero-length step
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0):
                raise SphflexError(
                    f"trace configuration {field.name} must be finite and positive, "
                    f"got {value}"
                )
        if self.step_size > math.pi:
            # half a great circle; a predictor step far beyond it overflows
            raise SphflexError(
                f"trace configuration step_size must be at most pi, got {self.step_size}"
            )
        if self.min_step > self.step_size:
            # the step halving would not try a single step
            raise SphflexError(
                f"trace configuration min_step {self.min_step} exceeds step_size "
                f"{self.step_size}"
            )
        if self.newton_tol < 1e-13:
            raise SphflexError("newton_tol below 1e-13 is not resolvable")
        if self.newton_tol > ON_SPHERE_TOL:
            # Newton stops once the sphere rows are within newton_tol, and
            # trajectories hold every point to ON_SPHERE_TOL
            raise SphflexError(
                f"newton_tol above {ON_SPHERE_TOL:g} leaves traced points off the "
                "unit sphere"
            )


def _rotation_taking(a: Vec, b: Vec) -> np.ndarray:
    """Rotation matrix sending unit vector a to unit vector b.

    Accurate to roundoff over 1/(1 + a . b), so callers keep a . b well
    away from -1.
    """
    v = np.cross(a, b)
    c = float(a @ b)
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + k + k @ k / (1.0 + c)


def re_gauge(rho: SphericalRealization, gauge: GaugeFix) -> SphericalRealization:
    """Rotate a realization into the gauge slice.

    The anchor goes to (1,0,0); the meridian vertex is spun about the x
    axis onto {z = 0, y > 0}.
    """
    anchor = rho.point(gauge.anchor)
    x_axis = np.array([1.0, 0.0, 0.0])
    if anchor[0] < -0.99:
        # near (-1,0,0) a direct rotation is off orthogonal by 1e-12 at
        # 1 + anchor[0] = 1e-4; a half-turn about z first keeps it accurate
        r1 = _rotation_taking(HALF_TURN_Z @ anchor, x_axis) @ HALF_TURN_Z
    else:
        r1 = _rotation_taking(anchor, x_axis)
    pts = {v: r1 @ p for v, p in rho.placement.items()}
    m = pts[gauge.meridian]
    phi = np.arctan2(m[2], m[1])
    c, s = np.cos(phi), np.sin(phi)
    r2 = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    return SphericalRealization({v: r2 @ p for v, p in pts.items()})


class ConstraintSystem:
    """The equations of one Newton solve, assembled with array ops.

    All rows but the gauge and arclength rows are pair rows
    ``s (o - p_a . p_b) - t``.  In order: one sphere row per vertex (the
    vertex paired with itself, s = -1, o = 0, t = 1, i.e. ``p . p - 1``);
    one row per edge (s = 1/2, o = 1, t the edge length); then the three
    gauge rows, and the pseudo-arclength row ``(x - base) . tangent - h``
    when a call passes ``arc = (base, tangent, h)``.

    Index arrays and lengths are built once.  The residual and Jacobian
    buffers are preallocated, the constant gauge entries set once, and
    ``residual``/``jacobian`` return views of them that the next call
    overwrites.
    """

    def __init__(self, g: Graph, lam: LengthAssignment, gauge: GaugeFix):
        self.order = g.vertices
        n = len(self.order)
        rows = [(i, i, -1.0, 0.0, 1.0) for i in range(n)]
        rows += [(i, j, 0.5, 1.0, lam.length(*e)) for (i, j), e in zip(g.ends, g.edges)]
        left, right, scale, offset, target = zip(*rows)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._scale = np.array(scale)
        self._offset = np.array(offset)
        self._target = np.array(target)
        self._num_pair_rows = len(rows)
        self.num_rows = len(rows) + 3

        # Jacobian blocks: the sphere row of vertex i holds 2 p_i at i; a
        # pair row holds -s p_b at a and -s p_a at b
        verts, pair = np.arange(n), np.arange(n, len(rows))
        a, b, coef = self._left[n:], self._right[n:], -self._scale[n:]
        block_row = np.concatenate([verts, pair, pair])
        block_col = np.concatenate([verts, a, b])
        self._block_src = np.concatenate([verts, b, a])
        self._block_coef = np.concatenate([np.full(n, 2.0), coef, coef])[:, None]
        width = 3 * n
        starts = block_row * width + 3 * block_col
        self._block_flat = (starts[:, None] + np.arange(3)).ravel()
        self._res = np.empty(self.num_rows + 1)
        self._jac = np.zeros((self.num_rows + 1, width))
        self._jac_flat = self._jac.reshape(-1)
        ia, im = g.position[gauge.anchor], g.position[gauge.meridian]
        self._gauge_cols = np.array([3 * ia + 1, 3 * ia + 2, 3 * im + 2])
        self._jac[len(rows) + np.arange(3), self._gauge_cols] = 1.0

    def residual(
        self, coords: Vec, arc: Optional[tuple[Vec, Vec, float]] = None
    ) -> Vec:
        pts = coords.reshape(-1, 3)
        k = self.num_rows
        r = self._res
        dots = row_dots(pts.take(self._left, axis=0), pts.take(self._right, axis=0))
        r[: self._num_pair_rows] = self._scale * (self._offset - dots) - self._target
        r[k - 3 : k] = coords.take(self._gauge_cols)
        if arc is None:
            return r[:k]
        base, tangent, h = arc
        r[k] = float((coords - base) @ tangent) - h
        return r

    def jacobian(
        self, coords: Vec, arc: Optional[tuple[Vec, Vec, float]] = None
    ) -> Vec:
        pts = coords.reshape(-1, 3)
        blocks = self._block_coef * pts.take(self._block_src, axis=0)
        self._jac_flat.put(self._block_flat, blocks)
        if arc is None:
            return self._jac[: self.num_rows]
        self._jac[self.num_rows] = arc[1]
        return self._jac


def residual_vector(
    g: Graph, lam: LengthAssignment, coords: Vec, gauge: GaugeFix
) -> Vec:
    """Sphere, edge and gauge residuals, in that order."""
    return ConstraintSystem(g, lam, gauge).residual(coords)


def jacobian(g: Graph, lam: LengthAssignment, coords: Vec, gauge: GaugeFix) -> Vec:
    return ConstraintSystem(g, lam, gauge).jacobian(coords)


def _corank(svals: Vec, width: int, rel_tol: float) -> int:
    """Singular values below ``max(s_max, 1) * rel_tol``, counting the ones a
    matrix with fewer rows than ``width`` columns lacks as zero."""
    svals = np.concatenate([svals, np.zeros(width - len(svals))])
    cutoff = max(svals[0], 1.0) * rel_tol
    return int(np.sum(svals < cutoff))


def corank_and_tangent(jac: Vec) -> tuple[int, Vec]:
    """Numeric corank and the unit kernel direction of smallest stretch."""
    # full V: with fewer rows than columns a thin SVD's last row is no kernel vector
    _, svals, vt = np.linalg.svd(jac)
    return _corank(svals, jac.shape[1], CORANK_REL_TOL), vt[-1]


def _normal_solve(normal: Vec, rhs: Vec) -> Optional[Vec]:
    """Solution of the normal equations ``normal s = rhs`` of a least-squares
    problem ``a s = b``, where ``normal = a^T a`` and ``rhs = a^T b``.

    That squares the condition number, which is harmless on the bordered
    systems of a trace (about 41 at most, median 14, on the benchmark's
    loops) and costs a fraction of an SVD.  Returns None when the normal
    matrix is singular or the solution is not finite: ``a`` is not of full
    column rank after all, and the caller asks ``lstsq`` instead.
    """
    try:
        s = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError:
        return None
    return s if np.isfinite(s).all() else None


def _full_rank_lstsq(a: Vec, b: Vec) -> Vec:
    """Least-squares solution of ``a s = b`` when ``a`` has full column rank."""
    s = _normal_solve(a.T @ a, a.T @ b)
    return np.linalg.lstsq(a, b, rcond=None)[0] if s is None else s


def _norm(v: Vec) -> float:
    """``np.linalg.norm`` of a contiguous vector, computed as it does (a dot
    product, then a square root) without its dispatch."""
    return math.sqrt(v.dot(v))


def bordered_corank_and_tangent(bordered: Vec) -> tuple[int, Vec]:
    """Corank and unit tangent at a point reached from a known tangent.

    ``bordered`` is the Jacobian ``J`` with the previous unit tangent
    ``t_prev`` appended as its last row.  The tangent solves
    ``[J; t_prev^T] t = e_last`` through the bordered normal matrix
    ``N = J^T J + t_prev t_prev^T``: at a corank-1 point that is the kernel
    direction scaled to ``t . t_prev = 1``, so once normalized it points
    the way ``t_prev`` does.

    The corank is that of ``J`` by the rule of ``corank_and_tangent``.
    Corank 1 is certified from ``N`` and ``t`` without an SVD when both

    - ``N - s I`` has a Cholesky factor, with
      ``s = 100 (max(|J|_F, 1) CORANK_REL_TOL)^2``.  ``N`` is a rank-one
      update of ``J^T J``, so by interlacing its smallest eigenvalue is at
      most the second smallest squared singular value of ``J``; as
      ``|J|_F >= s_max``, that singular value is then at least ten times
      the rule's cutoff ``max(s_max, 1) CORANK_REL_TOL``;
    - ``|J t| <= CORANK_REL_TOL / 2``, which puts the smallest singular
      value under that cutoff, since the cutoff is never below
      ``CORANK_REL_TOL``.

    Otherwise the singular values of ``J`` decide, so the answer is the
    rule's either way; the margins of ten and two absorb rounding in
    ``N``, the factorization and the SVD.
    """
    jac, t_prev = bordered[:-1], bordered[-1]
    normal = bordered.T @ bordered
    # bordered^T e_last is the last row, t_prev, to the bit
    t = _normal_solve(normal, t_prev)
    if t is None:
        e_last = np.zeros(len(bordered))
        e_last[-1] = 1.0
        t = np.linalg.lstsq(bordered, e_last, rcond=None)[0]
    t = t / _norm(t)
    if _norm(jac @ t) <= 0.5 * CORANK_REL_TOL:
        shift = 100.0 * (max(_norm(jac.ravel("K")), 1.0) * CORANK_REL_TOL) ** 2
        # normal - shift * I: off the diagonal, x - 0.0 is x
        shifted = normal.copy()
        diagonal = shifted.reshape(-1)[:: len(normal) + 1]
        diagonal -= shift
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            pass
        else:
            return 1, t
    svals = np.linalg.svd(jac, compute_uv=False)
    return _corank(svals, jac.shape[1], CORANK_REL_TOL), t


def newton_correct(
    system: ConstraintSystem,
    coords: Vec,
    tol: float,
    max_iters: int,
    arc_constraint: Optional[tuple[Vec, Vec, float]] = None,
) -> Optional[Vec]:
    """Gauss-Newton projection onto the constraint set.

    With ``arc_constraint = (base, tangent, h)`` a pseudo-arclength row
    ``(x - base) . tangent = h`` is appended, which pins the corrected
    point ahead of ``base`` and lets the path march through folds instead
    of sliding back.  That row gives the Jacobian full column rank at a
    regular curve point, so the step solves the normal equations; without
    it the Jacobian is rank-deficient by construction and the step is
    ``lstsq``'s minimum-norm one.
    """
    x = coords.copy()
    for _ in range(max_iters):
        r = system.residual(x, arc_constraint)
        if np.abs(r).max() <= tol:
            return x
        jac = system.jacobian(x, arc_constraint)
        if arc_constraint is None:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        else:
            step = _full_rank_lstsq(jac, -r)
        x = x + step
        if not np.isfinite(x).all():
            return None
    r = system.residual(x, arc_constraint)
    return x if np.abs(r).max() <= tol else None


@dataclass(frozen=True)
class TraceResult:
    """A traced curve and why ``trace`` stopped following it."""

    trajectory: MotionTrajectory
    stop_reason: str

    @property
    def closed(self) -> bool:
        return self.stop_reason == "loop_closed"

    @property
    def steps(self) -> int:
        return len(self.trajectory.points) - 1


def _advance(
    system: ConstraintSystem, x: Vec, t_prev: Vec, h: float, cfg: TraceConfig
) -> tuple[Vec, Vec, float] | str:
    """One predictor-corrector step along ``t_prev``, halving ``h`` until the
    tangent ``t`` at a corrected point keeps ``t . t_prev > 0.2``.

    The pseudo-arclength row forces genuine progress, so folds cannot bounce
    the path back.  Returns the accepted ``(point, tangent, h)``, or the stop
    reason ``"singular_point"`` or ``"step_failure"``.
    """
    while h >= cfg.min_step:
        cand = newton_correct(
            system,
            x + h * t_prev,
            cfg.newton_tol,
            cfg.max_newton_iters,
            arc_constraint=(x, t_prev, h),
        )
        if cand is not None:
            corank, t_new = bordered_corank_and_tangent(
                system.jacobian(cand, (cand, t_prev, 0.0))
            )
            if corank >= 2:
                return "singular_point"
            if float(t_new @ t_prev) > 0.2:
                return cand, t_new, h
        h *= 0.5
    return "step_failure"


def trace(
    g: Graph,
    lam: LengthAssignment,
    seed: SphericalRealization,
    gauge: Optional[GaugeFix] = None,
    config: Optional[TraceConfig] = None,
) -> TraceResult:
    """Follow the configuration curve through a seed realization.

    The seed is re-gauged and Newton-polished; a seed the corrector cannot
    polish raises ``SeedNotOnCurveError``, and a Jacobian corank other than
    1 raises ``RankDeficientError`` (corank 0 means the gauged framework is
    rigid).  Samples are spaced by arclength steps.  The trace stops for one
    of four reasons, its ``stop_reason``:

    - ``"loop_closed"``: it returned to the seed with an aligned tangent;
    - ``"max_steps"``: it took ``max_steps`` steps;
    - ``"singular_point"``: a corrected point has corank 2 or more;
    - ``"step_failure"``: no step of at least ``min_step`` was accepted.

    Stopping before the first step raises ``StepFailureError``.
    """
    for e in g.edges:
        if e not in lam.lengths:
            raise SphflexError(f"lengths give no length for edge {e}")
    for e in lam.lengths:
        if e not in g.edge_set:
            raise SphflexError(f"lengths name the non-edge {e}")
    for v in g.vertices:
        if v not in seed.placement:
            raise SphflexError(f"seed realization does not place vertex {v}")
    gauge = gauge or default_gauge(g)
    cfg = config or TraceConfig()
    system = ConstraintSystem(g, lam, gauge)

    x0 = re_gauge(seed, gauge).as_array(g.vertices)
    x0 = newton_correct(system, x0, cfg.newton_tol, cfg.max_newton_iters)
    if x0 is None:
        raise SeedNotOnCurveError("seed does not satisfy the constraints")
    corank, tangent = corank_and_tangent(system.jacobian(x0))
    if corank != 1:
        why = "framework is rigid" if corank == 0 else "not a curve point"
        raise RankDeficientError(corank, f"corank {corank} at seed: {why}")
    if tangent[np.argmax(np.abs(tangent))] < 0:
        tangent = -tangent

    xs, arclengths = [x0], [0.0]
    x, t_prev, h = x0, tangent, cfg.step_size
    went_far = False
    stop_reason = "max_steps"  # the reason when the loop runs out of steps
    while len(xs) <= cfg.max_steps:
        step = _advance(system, x, t_prev, h, cfg)
        if isinstance(step, str):
            stop_reason = step
            break
        x, t_prev, h = step
        xs.append(x)
        arclengths.append(arclengths[-1] + h)
        dist_to_seed = _norm(x - x0)
        # measured in accepted steps: a loop that never gets 3 * step_size
        # from the seed must still be able to close
        went_far = went_far or dist_to_seed > 3.0 * h
        h = min(h * 1.3, cfg.step_size)

        if went_far and dist_to_seed <= 1.5 * h and float(t_prev @ tangent) > 0.5:
            # candidate return: project onto the curve slice through the
            # seed orthogonal to the seed tangent; a genuine loop lands on
            # the seed itself, a near-miss pass does not
            back = newton_correct(
                system,
                x,
                cfg.newton_tol,
                cfg.max_newton_iters,
                arc_constraint=(x0, tangent, 0.0),
            )
            if back is not None and float(np.abs(back - x0).max()) <= 1e3 * cfg.newton_tol:
                stop_reason = "loop_closed"
                break

    if len(xs) < 2:
        raise StepFailureError("no step succeeded from the seed")
    points = np.array(xs).reshape(len(xs), -1, 3)
    traj = MotionTrajectory(g, lam, points, arclengths, KIND_TRACED)
    return TraceResult(traj, stop_reason)


# ---------------------------------------------------------------------------
# fibers of circle intersections
# ---------------------------------------------------------------------------

# a placement meets an edge when the inner product of its ends is within
# this of the edge's delta; two circles touch when 1 - |x0|^2 is within it
# of 0
FIBER_TOL = 1e-7


def _circle_intersections(
    n1: Vec, n2: Vec, d1: float, d2: float, tol: float
) -> tuple[Vec, Vec]:
    """Unit vectors x with ``x . n1 = d1`` and ``x . n2 = d2``.

    Batched over the leading axes of the centers (..., 3).  The
    two linear equations hold on the line through ``x0 = a n1 + b n2`` along
    ``c = n1 x n2``, which meets the sphere at ``x0 +- sqrt(1 - |x0|^2) c/|c|``.
    Returns both candidates (..., 2, 3) and a mask (..., 2) of the real
    ones: none when ``1 - |x0|^2 < -tol``, only the first (tangency) when it
    is within ``tol`` of 0, both above.  Centers that span less than a plane
    raise ``UnderConstrainedError``; NaN centers give candidates that are
    not real.
    """
    c = np.cross(n1, n2)
    det = row_dots(c, c)
    if np.any(det <= 1e-20):
        raise UnderConstrainedError("placed neighbors span less than a plane")
    g11, g22, g12 = row_dots(n1, n1), row_dots(n2, n2), row_dots(n1, n2)
    a = (g22 * d1 - g12 * d2) / det
    b = (g11 * d2 - g12 * d1) / det
    x0 = a[..., None] * n1 + b[..., None] * n2
    t_sq = 1.0 - row_dots(x0, x0)
    off = np.sqrt(np.maximum(t_sq, 0.0) / det)[..., None] * c
    cands = np.stack([x0 + off, x0 - off], axis=-2)
    return cands, np.stack([t_sq >= -tol, t_sq > tol], axis=-1)


# ---------------------------------------------------------------------------
# degrees of forgetful projections
# ---------------------------------------------------------------------------


def _construction_order(g: Graph, forgotten: set[int]) -> list[tuple[int, int, int]]:
    """Steps (v, a, b) placing each forgotten vertex v from two neighbors a,
    b that are retained or placed before it.

    Placing a vertex only adds to the placed set, so taking the first
    placeable vertex each time finds an order whenever one exists.
    """
    placed = set(g.vertices) - forgotten
    left = [v for v in g.vertices if v in forgotten]
    steps = []
    while left:
        for v in left:
            centers = [w for w in g.neighbors(v) if w in placed]
            if len(centers) >= 2:
                break
        else:
            raise UnderConstrainedError(
                f"no construction order: forgotten vertices {left} have "
                "fewer than two placed neighbors each"
            )
        steps.append((v, centers[0], centers[1]))
        placed.add(v)
        left.remove(v)
    return steps


def _fiber_sizes(traj: MotionTrajectory, forgotten: set[int]) -> Vec:
    """Size of each sample's exact fiber under the projection that forgets
    ``forgotten``.

    The retained vertices stay where the sample has them.  Each forgotten
    vertex is placed by circle intersection from two placed neighbors,
    branching on both intersection points, and a full placement is kept
    when every edge at a forgotten vertex holds within ``FIBER_TOL``.  All
    samples and branches are placed at once; a branch whose intersection is
    not real holds NaN and fails every edge test.
    """
    g, lam = traj.graph, traj.lengths
    col = g.position
    branches = traj.points[:, None]
    for v, a, b in _construction_order(g, forgotten):
        cands, real = _circle_intersections(
            branches[:, :, col[a]],
            branches[:, :, col[b]],
            lam.delta_of(v, a),
            lam.delta_of(v, b),
            FIBER_TOL,
        )
        branches = np.repeat(branches, 2, axis=1)
        cands = np.where(real[..., None], cands, np.nan)
        branches[:, :, col[v]] = cands.reshape(len(branches), -1, 3)
    keep = np.ones(branches.shape[:2], dtype=bool)
    for a, b in g.edges:
        if a in forgotten or b in forgotten:
            dots = row_dots(branches[:, :, col[a]], branches[:, :, col[b]])
            keep &= np.abs(dots - lam.delta_of(a, b)) <= FIBER_TOL
    return keep.sum(axis=1)


def empirical_map_degree(traj: MotionTrajectory, forgotten: Iterable[int]) -> int:
    """Degree of the projection that forgets some vertices, read off the
    samples: the largest exact fiber over them.

    A fiber is the set of placements of the forgotten vertices that meet
    every edge with the retained vertices held fixed; it is computed by
    circle intersection, with no Newton solve.  A forgotten set that cannot
    be placed two neighbors at a time raises ``UnderConstrainedError``.
    """
    forgotten = set(forgotten) & set(traj.graph.vertices)
    if traj.graph.num_vertices - len(forgotten) < 3:
        raise InsufficientSamplesError("need at least three retained vertices")
    return int(_fiber_sizes(traj, forgotten).max())
