"""Numeric tracing of configuration curves with rotation gauge fixing.

A realization of a graph with |V| vertices is flattened to 3|V|
coordinates.  The residual stacks one unit-sphere equation per vertex, one
length equation per edge and three gauge equations (two pinning the anchor
vertex to (1,0,0), one confining the meridian vertex to the plane z = 0),
which kill the three rotational degrees of freedom.  On a flexible
framework the Jacobian then has corank exactly 1 at a regular curve point,
and the curve is followed with a tangent predictor and a Gauss-Newton
corrector.  Every Newton solve here, tracing, seeding and the polishing of
projection preimages, assembles its equations through one
``ConstraintSystem``.

Along the curve the Jacobian is bordered by a pseudo-arclength row, which
gives it full column rank at a regular point; those systems, the corrector
steps and the tangent of each accepted point, are solved through their
normal equations.  Solves without that row are rank-deficient by
construction and take ``lstsq``'s minimum-norm step.  Only the seed, which
has no previous tangent, reads its tangent off a full SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InsufficientSamplesError,
    RankDeficientError,
    SeedNotOnCurveError,
    SphflexError,
    StepFailureError,
    UnderConstrainedError,
)
from .graphs import Graph, k33
from .motions import (
    HALF_TURN_Z,
    KIND_TRACED,
    CdaParams,
    MotionTrajectory,
    cda_lengths,
    cda_params_from_e,
    cda_point,
)
from .spherical import (
    LengthAssignment,
    SphericalRealization,
    Vec,
    essentially_distinct,
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
        if min(self.step_size, self.max_steps, self.max_newton_iters) <= 0:
            raise SphflexError("trace configuration values must be positive")
        if self.newton_tol < 1e-13:
            raise SphflexError("newton_tol below 1e-13 is not resolvable")


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
    one row per edge (s = 1/2, o = 1, t the edge length); one row per
    matched pair (s = -1, o = 0, t the goal, i.e. ``p_a . p_b - t``); then
    the three gauge rows when a gauge is given, and the pseudo-arclength row
    ``(x - base) . tangent - h`` when a call passes
    ``arc = (base, tangent, h)``.

    Index arrays and lengths are built once.  The residual and Jacobian
    buffers are preallocated, the constant gauge entries set once, and
    ``residual``/``jacobian`` return views of them that the next call
    overwrites.
    """

    def __init__(
        self,
        g: Graph,
        lam: LengthAssignment,
        gauge: Optional[GaugeFix] = None,
        matches: Sequence[tuple[int, int, float]] = (),
    ):
        self.order = g.vertices
        n = len(self.order)
        idx = {v: i for i, v in enumerate(self.order)}
        rows = [(i, i, -1.0, 0.0, 1.0) for i in range(n)]
        rows += [(idx[a], idx[b], 0.5, 1.0, lam.length(a, b)) for a, b in g.edges]
        rows += [(idx[a], idx[b], -1.0, 0.0, goal) for a, b, goal in matches]
        left, right, scale, offset, target = zip(*rows)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._scale = np.array(scale)
        self._offset = np.array(offset)
        self._target = np.array(target)
        self._num_pair_rows = len(rows)
        self.num_rows = len(rows) + (0 if gauge is None else 3)

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
        self._gauge_cols = None
        if gauge is not None:
            ia, im = idx[gauge.anchor], idx[gauge.meridian]
            self._gauge_cols = np.array([3 * ia + 1, 3 * ia + 2, 3 * im + 2])
            self._jac[len(rows) + np.arange(3), self._gauge_cols] = 1.0

    def residual(
        self, coords: Vec, arc: Optional[tuple[Vec, Vec, float]] = None
    ) -> Vec:
        pts = coords.reshape(-1, 3)
        k = self.num_rows
        r = self._res
        dots = row_dots(pts[self._left], pts[self._right])
        r[: self._num_pair_rows] = self._scale * (self._offset - dots) - self._target
        if self._gauge_cols is not None:
            r[k - 3 : k] = coords[self._gauge_cols]
        if arc is None:
            return r[:k]
        base, tangent, h = arc
        r[k] = float((coords - base) @ tangent) - h
        return r

    def jacobian(
        self, coords: Vec, arc: Optional[tuple[Vec, Vec, float]] = None
    ) -> Vec:
        pts = coords.reshape(-1, 3)
        blocks = self._block_coef * pts[self._block_src]
        self._jac_flat[self._block_flat] = blocks.ravel()
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


def corank_and_tangent(jac: Vec, rel_tol: float = CORANK_REL_TOL) -> tuple[int, Vec]:
    """Numeric corank and the unit kernel direction of smallest stretch."""
    # full V: with fewer rows than columns a thin SVD's last row is no kernel vector
    _, svals, vt = np.linalg.svd(jac)
    return _corank(svals, jac.shape[1], rel_tol), vt[-1]


def _full_rank_lstsq(a: Vec, b: Vec) -> Vec:
    """Least-squares solution of ``a s = b`` when ``a`` has full column rank.

    Solves the normal equations ``a^T a s = a^T b``.  That squares the
    condition number, which is harmless on the bordered systems of a trace
    (about 41 at most, median 14, on the benchmark's loops) and costs a
    fraction of an SVD.  When the normal matrix is singular or the solution
    is not finite, ``a`` is not of full rank after all and ``lstsq`` answers
    instead.
    """
    try:
        s = np.linalg.solve(a.T @ a, a.T @ b)
    except np.linalg.LinAlgError:
        s = None
    if s is not None and np.all(np.isfinite(s)):
        return s
    return np.linalg.lstsq(a, b, rcond=None)[0]


def bordered_corank_and_tangent(bordered: Vec) -> tuple[int, Vec]:
    """Corank and unit tangent at a point reached from a known tangent.

    ``bordered`` is the Jacobian with the previous unit tangent ``t_prev``
    appended as its last row.  The corank is that of the Jacobian, by the
    rule of ``corank_and_tangent`` but from singular values alone.  The
    tangent solves ``[J; t_prev^T] t = e_last``: at a corank-1 point that
    is the kernel direction scaled to ``t . t_prev = 1``, so once
    normalized it points the way ``t_prev`` does.
    """
    jac = bordered[:-1]
    corank = _corank(np.linalg.svd(jac, compute_uv=False), jac.shape[1], CORANK_REL_TOL)
    e_last = np.zeros(len(bordered))
    e_last[-1] = 1.0
    t = _full_rank_lstsq(bordered, e_last)
    return corank, t / np.linalg.norm(t)


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
        if not np.all(np.isfinite(x)):
            return None
    r = system.residual(x, arc_constraint)
    return x if np.abs(r).max() <= tol else None


@dataclass(frozen=True)
class TraceResult:
    trajectory: MotionTrajectory
    closed: bool
    stop_reason: str
    steps: int


def trace(
    g: Graph,
    lam: LengthAssignment,
    seed: SphericalRealization,
    gauge: Optional[GaugeFix] = None,
    config: Optional[TraceConfig] = None,
) -> TraceResult:
    """Follow the configuration curve through a seed realization.

    The seed is re-gauged and Newton-polished; a Jacobian corank other
    than 1 raises ``RankDeficientError`` (corank 0 means the gauged
    framework is rigid).  Samples are spaced by arclength steps; the trace
    stops on loop closure (return to the seed with aligned tangent), step
    exhaustion, a singular point, or an unrecoverable corrector failure.
    """
    gauge = gauge or default_gauge(g)
    cfg = config or TraceConfig()
    order = g.vertices
    system = ConstraintSystem(g, lam, gauge)

    x0 = re_gauge(seed, gauge).as_array(order)
    x0 = newton_correct(system, x0, cfg.newton_tol, cfg.max_newton_iters)
    if x0 is None:
        raise SeedNotOnCurveError("seed does not satisfy the constraints")
    corank, tangent = corank_and_tangent(system.jacobian(x0))
    if corank == 0:
        raise RankDeficientError(0, "corank 0 at seed: framework is rigid")
    if corank != 1:
        raise RankDeficientError(corank, f"corank {corank} at seed: not a curve point")
    if tangent[np.argmax(np.abs(tangent))] < 0:
        tangent = -tangent

    xs, arclengths = [x0], [0.0]
    x, t_prev = x0, tangent
    arclength = 0.0
    went_far = False
    closed = False
    reason = "max_steps"
    h = cfg.step_size
    steps_done = 0

    while steps_done < cfg.max_steps:
        # predictor-corrector with step halving; the pseudo-arclength row
        # forces genuine progress so folds cannot bounce the path back
        nxt = None
        while h >= cfg.min_step:
            cand = newton_correct(
                system,
                x + h * t_prev,
                cfg.newton_tol,
                cfg.max_newton_iters,
                arc_constraint=(x, t_prev, h),
            )
            if cand is not None:
                crk, t_new = bordered_corank_and_tangent(
                    system.jacobian(cand, (cand, t_prev, 0.0))
                )
                if crk >= 2:
                    reason = "singular_point"
                    nxt = None
                    break
                if float(t_new @ t_prev) > 0.2:
                    nxt = (cand, t_new)
                    break
            h *= 0.5
        else:
            reason = "step_failure"
        if nxt is None:
            if reason == "max_steps":
                reason = "step_failure"
            break
        x, t_prev = nxt
        arclength += h
        steps_done += 1
        xs.append(x)
        arclengths.append(arclength)
        h = min(h * 1.3, cfg.step_size)

        dist_to_seed = float(np.linalg.norm(x - x0))
        if dist_to_seed > 3.0 * cfg.step_size:
            went_far = True
        if (
            went_far
            and dist_to_seed <= 1.5 * h
            and float(t_prev @ tangent) > 0.5
        ):
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
                closed = True
                reason = "loop_closed"
                break

    if len(xs) < 2:
        raise StepFailureError("no step succeeded from the seed")
    traj = MotionTrajectory(
        g,
        lam,
        np.array(xs).reshape(len(xs), -1, 3),
        arclengths,
        KIND_TRACED,
        tol=max(1e-9, cfg.newton_tol),
    )
    return TraceResult(traj, closed, reason, steps_done)


def cda_seed_realization(
    params: CdaParams, steps: int = 60, newton_tol: float = 1e-12
) -> SphericalRealization:
    """A compatible realization for any point of the relation curve.

    The closed-form parametrization exists only at (a, e) = (3/5, 3/4);
    other pairs are reached by sliding |e| from 3/4 to the target while
    Newton-correcting the realization onto the deformed length assignment
    at every intermediate step.  Sign changes of a or e are applied at the
    end by antipoding vertices (1 and 3 for a, 6 for e), which moves along
    the relation curve's mirror branches without leaving it.
    """
    g = k33()
    gauge = GaugeFix(1, 2)
    order = g.vertices
    reference = cda_params_from_e(0.75)
    start = cda_point(reference, 8.0)
    x = re_gauge(start, gauge).as_array(order)

    for e_mid in np.linspace(0.75, abs(params.e), steps + 1)[1:]:
        mid = cda_params_from_e(float(e_mid))
        system = ConstraintSystem(g, cda_lengths(mid), gauge)
        corrected = newton_correct(system, x, newton_tol, 40)
        if corrected is None:
            raise StepFailureError(
                f"parameter homotopy stalled at e={e_mid:.4f}; use more steps"
            )
        x = corrected

    pts = dict(zip(order, x.reshape(-1, 3)))
    if params.e < 0:
        pts[6] = -pts[6]
    if params.a < 0:
        pts[1] = -pts[1]
        pts[3] = -pts[3]
    return SphericalRealization(pts)


# ---------------------------------------------------------------------------
# fibers of circle intersections
# ---------------------------------------------------------------------------


def fiber_count(
    g: Graph,
    lam: LengthAssignment,
    placed: dict[int, Vec],
    free_vertex: int,
    tol: float = 1e-9,
) -> int:
    """Number of placements of one vertex meeting all its placed neighbors.

    Each placed neighbor confines the vertex to a circle on the sphere;
    intersecting them is a linear solve plus one quadratic, giving 0, 1
    (tangency) or 2 positions.
    """
    neighbors = [w for w in g.neighbors(free_vertex) if w in placed]
    if len(neighbors) < 2:
        raise UnderConstrainedError("free vertex needs at least two placed neighbors")
    n_mat = np.stack([np.asarray(placed[w], dtype=float) for w in neighbors])
    rhs = np.array([lam.delta_of(free_vertex, w) / 1.0 for w in neighbors])
    # delta constraint: <x, n> = delta
    u, svals, vt = np.linalg.svd(n_mat, full_matrices=True)
    rank = int(np.sum(svals > 1e-10 * max(svals[0], 1.0)))
    if rank < 2:
        raise UnderConstrainedError("placed neighbors span less than a plane")
    x0 = np.zeros(3)
    for i in range(rank):
        x0 += (u[:, i] @ rhs) / svals[i] * vt[i]
    if np.abs(n_mat @ x0 - rhs).max() > tol:
        return 0
    if rank == 3:
        return 1 if abs(x0 @ x0 - 1.0) <= 2 * tol else 0
    t_sq = 1.0 - float(x0 @ x0)
    if t_sq > tol:
        return 2
    if t_sq >= -tol:
        return 1
    return 0


# ---------------------------------------------------------------------------
# empirical degrees of forgetful projections
# ---------------------------------------------------------------------------


def _realization(order: Sequence[int], coords: Vec) -> SphericalRealization:
    return SphericalRealization(dict(zip(order, coords.reshape(-1, 3))))


def _retained_gram(rho: SphericalRealization, retained: Sequence[int]) -> Vec:
    pts = np.stack([rho.point(v) for v in retained])
    return pts @ pts.T


def _orientation_on(rho: SphericalRealization, triple: Sequence[int]) -> float:
    return float(np.linalg.det(np.stack([rho.point(v) for v in triple])))


def empirical_map_degree(
    traj: MotionTrajectory,
    forgotten: Iterable[int],
    match_tol: float = 1e-8,
    newton_tol: float = 1e-12,
) -> int:
    """Estimate the degree of the projection that forgets some vertices.

    For a handful of target samples the trajectory is scanned for other
    parameter windows whose retained sub-realization matches the target's
    up to rotation; each candidate window is polished back onto the curve
    with the matching enforced, and the polished preimages are counted up
    to essential distinctness of the full realization.  The maximum count
    over the targets is returned.
    """
    samples = traj.realizations()
    if len(samples) < 3:
        raise InsufficientSamplesError("need a densely sampled trajectory")
    forgotten = set(forgotten)
    retained = [v for v in traj.graph.vertices if v not in forgotten]
    if len(retained) < 3:
        raise InsufficientSamplesError("need at least three retained vertices")
    order = traj.graph.vertices

    target_ids = sorted({0, len(samples) // 3, (2 * len(samples)) // 3})
    best = 1
    for tid in target_ids:
        target = samples[tid]
        g_target = _retained_gram(target, retained)
        triple = None
        for cand in combinations(retained, 3):
            if abs(_orientation_on(target, cand)) > 1e-8:
                triple = cand
                break
        dists = np.array(
            [np.abs(_retained_gram(s, retained) - g_target).max() for s in samples]
        )
        if triple is not None:
            for i, s in enumerate(samples):
                if _orientation_on(s, triple) * _orientation_on(target, triple) < 0:
                    dists[i] = np.inf

        hits = [
            i
            for i in range(len(samples))
            if dists[i] <= 0.25
            and dists[i] <= dists[max(i - 1, 0)]
            and dists[i] <= dists[min(i + 1, len(samples) - 1)]
        ]
        polished: list[Vec] = []
        for i in hits:
            x = _polish_to_match(traj, samples[i], target, retained, newton_tol)
            if x is None:
                continue
            rho = _realization(order, x)
            if np.abs(_retained_gram(rho, retained) - g_target).max() > match_tol:
                continue
            if all(np.abs(x - y).max() > 1e-6 for y in polished):
                polished.append(x)

        classes: list[SphericalRealization] = []
        for x in polished:
            rho = _realization(order, x)
            if all(essentially_distinct(rho, c) for c in classes):
                classes.append(rho)
        best = max(best, len(classes))
    return best


def _polish_to_match(
    traj: MotionTrajectory,
    start: SphericalRealization,
    target: SphericalRealization,
    retained: Sequence[int],
    newton_tol: float,
) -> Optional[Vec]:
    """Newton-correct a sample onto the curve point whose retained Gram
    matches the target's.

    One retained Gram entry (the one moving fastest along the curve near
    the start) is appended to the sphere and edge equations; rotations stay
    unconstrained, which is harmless since the match test is
    rotation-invariant.
    """
    pairs = list(combinations(retained, 2))
    # pick the retained pair whose delta differs most from the target but is
    # still in the attraction basin; fall back to the largest gradient proxy
    best_pair, best_gap = pairs[0], -1.0
    for a, b in pairs:
        gap = abs(
            float(start.point(a) @ start.point(b))
            - float(target.point(a) @ target.point(b))
        )
        if gap > best_gap:
            best_gap = gap
            best_pair = (a, b)
    a, b = best_pair
    goal = float(target.point(a) @ target.point(b))
    system = ConstraintSystem(traj.graph, traj.lengths, matches=[(a, b, goal)])
    return newton_correct(system, start.as_array(system.order), newton_tol, 50)
