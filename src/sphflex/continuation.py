"""Numeric tracing of configuration curves with rotation gauge fixing.

A realization of a graph with |V| vertices is flattened to 3|V|
coordinates.  The residual stacks one unit-sphere equation per vertex, one
length equation per edge and three gauge equations (two pinning the anchor
vertex to (1,0,0), one confining the meridian vertex to the plane z = 0),
which kill the three rotational degrees of freedom.  The anchor is the
graph's first vertex and the meridian its first neighbour.  On a flexible
framework the Jacobian then has corank exactly 1 at a regular curve point,
and the curve is followed with a tangent predictor and a Gauss-Newton
corrector, ``newton_correct``.  Every Newton solve here, polishing the seed
and tracing, assembles its equations through one gauged
``ConstraintSystem``.  Each Newton iterate gathers the point rows it needs
with a single ``take``, which feeds both the residual and the Jacobian
(``put`` scatters its blocks), and the point a trace step accepts is not
gathered again.  The arithmetic goes into buffers, and views of them, that
the system makes once; the corrector and the corank certificate form their
normal matrices there too.  Those normal matrices and the matrix-vector
products call BLAS through ``ndarray.dot``, and solves and Cholesky
factorizations call LAPACK through the gufuncs behind ``np.linalg.solve``
and ``np.linalg.cholesky``, inside the one ``np.errstate`` that ``trace``
enters around all its Newton work.  The step is written for the fewest
numpy calls that keep its arithmetic, not for fewer floating-point
operations: the slow forms of the corrector and the certificate are kept
as an oracle in ``tests/stepping.py``, and the tests require a trace
through them to equal one through this module bit for bit.

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

# np.linalg.solve and np.linalg.cholesky check and convert their arguments
# and enter an error state around these gufuncs, which at the sizes a trace
# solves costs as much again as the LAPACK work; _solve and _cholesky call
# them bare, inside the error state of trace.  The module is private to
# numpy: its name and the NaN its gufuncs return on failure were checked
# on numpy 2.4, the oldest version the package allows, and
# test_lapack_kernels_equal_numpy_linalg holds them to np.linalg's results
from numpy.linalg import _umath_linalg

from .errors import RankDeficientError, SphflexError
from .graphs import Graph
from .motions import HALF_TURN_Z, KIND_TRACED, MotionTrajectory
from .spherical import (
    DEGENERATE_TOL,
    LengthAssignment,
    SphericalRealization,
    Vec,
    row_dots,
)

CORANK_REL_TOL = 1e-7
# a seed whose smallest singular value lies at or above this share of the
# corank cutoff, though below it, is too close to call: trace refuses it
SEED_AMBIGUOUS = 1e-6
# the corrector's residual bound; at most spherical.ON_SPHERE_TOL
NEWTON_TOL = 1e-12
# Gauss-Newton iterations of one corrector solve
MAX_NEWTON_ITERS = 30
# the shortest step a trace tries before it stops halving
MIN_STEP = 1e-7


def _gauge(g: Graph) -> tuple[int, int]:
    """The anchor and meridian vertices: the first vertex and its first
    neighbour."""
    if not g.edges:
        raise SphflexError("the gauge needs an edge, and the graph has none")
    anchor = g.vertices[0]
    return anchor, g.neighbors(anchor)[0]


@dataclass(frozen=True)
class TraceConfig:
    step_size: float = 0.02
    max_steps: int = 5000

    def __post_init__(self):
        # a bool is an int, and neither field is a truth value
        if not isinstance(self.max_steps, int) or isinstance(self.max_steps, bool):
            raise SphflexError(
                f"trace configuration max_steps must be an integer, got {self.max_steps}"
            )
        if isinstance(self.step_size, bool):
            raise SphflexError(
                f"trace configuration step_size must be a number, got {self.step_size}"
            )
        # a NaN fails both comparisons, and comparing a huge integer with
        # inf, unlike math.isfinite, does not convert it to a float
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0 < value < math.inf:
                raise SphflexError(
                    f"trace configuration {field.name} must be finite and positive, "
                    f"got {value}"
                )
        if self.step_size > math.pi:
            # half a great circle; a predictor step far beyond it overflows
            raise SphflexError(
                f"trace configuration step_size must be at most pi, got {self.step_size}"
            )
        if self.step_size < MIN_STEP:
            # the step halving would not try a single step
            raise SphflexError(
                f"trace configuration step_size must be at least {MIN_STEP:g}, "
                f"got {self.step_size}"
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


def re_gauge(rho: SphericalRealization, g: Graph) -> SphericalRealization:
    """Rotate a realization of ``g`` into the gauge slice.

    The anchor goes to (1,0,0); the meridian vertex is spun about the x
    axis onto {z = 0, y > 0}.
    """
    anchor_vertex, meridian_vertex = _gauge(g)
    anchor = rho.point(anchor_vertex)
    x_axis = np.array([1.0, 0.0, 0.0])
    if anchor[0] < -0.99:
        # near (-1,0,0) a direct rotation is off orthogonal by 1e-12 at
        # 1 + anchor[0] = 1e-4; a half-turn about z first keeps it accurate
        r1 = _rotation_taking(HALF_TURN_Z @ anchor, x_axis) @ HALF_TURN_Z
    else:
        r1 = _rotation_taking(anchor, x_axis)
    pts = {v: r1 @ p for v, p in rho.placement.items()}
    m = pts[meridian_vertex]
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
    when ``residual`` is passed ``arc = (base, tangent, h)`` (its Jacobian
    row, ``tangent``, when ``_gathered_jacobian`` is passed ``tangent``).

    Index arrays and lengths are built once.  ``residual`` and ``jacobian``
    gather the point rows of their ``coords`` with one ``take``; each
    iterate of ``newton_correct`` assembles its Jacobian from its
    residual's gather, and a trace step the Jacobian at the point it
    accepts from the corrector's last gather.  The buffers, and the views
    of them each call reads or returns, are made once, with the constant
    gauge entries; every call overwrites what the last one returned.
    """

    def __init__(self, g: Graph, lam: LengthAssignment):
        anchor, meridian = _gauge(g)
        n = g.num_vertices
        self._point_shape = (n, 3)
        rows = [(i, i, -1.0, 0.0, 1.0) for i in range(n)]
        rows += [(i, j, 0.5, 1.0, lam.length(*e)) for (i, j), e in zip(g.ends, g.edges)]
        left, right, scale, offset, target = zip(*rows)
        self._scale = np.array(scale)
        self._offset = np.array(offset)
        self._target = np.array(target)
        pairs = len(rows)
        self.num_rows = pairs + 3

        # the gather holds the left ends of the pair rows, then their right
        # ends: vertices, edge starts a, vertices, edge ends b
        self._gather_index = np.array(left + right, dtype=np.intp)
        self._gathered = np.empty((2 * pairs, 3))
        self._left_rows = self._gathered[:pairs, None, :]
        self._right_rows = self._gathered[pairs:, :, None]
        self._dots = np.empty((pairs, 1, 1))
        self._dot_column = self._dots[:, 0, 0]

        # Jacobian blocks, read from the gather past its first n rows, which
        # are a, vertices, b: the sphere row of vertex i holds 2 p_i at i;
        # an edge row holds -s p_b at a and -s p_a at b
        verts, pair = np.arange(n), np.arange(n, pairs)
        a, b, coef = self._gather_index[n:pairs], self._gather_index[pairs + n :], -self._scale[n:]
        block_row = np.concatenate([pair, verts, pair])
        block_col = np.concatenate([b, verts, a])
        self._block_src = self._gathered[n:]
        # each block's coefficient, repeated across its three columns: a
        # product of equal shapes dispatches faster than a broadcast one
        coefs = np.concatenate([coef, np.full(n, 2.0), coef])
        self._block_coef = np.repeat(coefs[:, None], 3, axis=1)
        self._blocks = np.empty_like(self._block_src)
        width = 3 * n
        starts = block_row * width + 3 * block_col
        self._block_flat = (starts[:, None] + np.arange(3)).ravel()

        self._res = np.empty(self.num_rows + 1)
        self._pair_res = self._res[:pairs]
        self._gauge_res = self._res[pairs : self.num_rows]
        self._unbordered_res = self._res[: self.num_rows]
        # x - base of the arclength row, and |r| of the corrector's
        # convergence test
        self._shifted = np.empty(width)
        self._magnitudes = np.empty(self.num_rows + 1)
        self._jac = np.zeros((self.num_rows + 1, width))
        self._jac_flat = self._jac.reshape(-1)
        self._unbordered_jac = self._jac[: self.num_rows]
        self._arc_row = self._jac[self.num_rows]
        ia, im = g.position[anchor], g.position[meridian]
        self._gauge_cols = np.array([3 * ia + 1, 3 * ia + 2, 3 * im + 2])
        self._jac[pairs + np.arange(3), self._gauge_cols] = 1.0
        # the normal equations of a corrector step and of a certificate,
        # with a view of the normal matrix's diagonal
        self._normal = np.empty((width, width))
        self._diagonal = self._normal.reshape(-1)[:: width + 1]
        self._rhs = np.empty(width)

    def _gather(self, coords: Vec) -> None:
        # the reshape refuses coords of another size, so every index is in
        # range, and "clip" lets take write into out where "raise" would
        # go through a buffer
        pts = coords.reshape(self._point_shape)
        pts.take(self._gather_index, axis=0, out=self._gathered, mode="clip")

    def residual(
        self, coords: Vec, arc: Optional[tuple[Vec, Vec, float]] = None
    ) -> Vec:
        self._gather(coords)
        # the stacked (1x3)(3x1) products of row_dots, into a buffer
        np.matmul(self._left_rows, self._right_rows, out=self._dots)
        pair = self._pair_res
        np.subtract(self._offset, self._dot_column, out=pair)
        np.multiply(self._scale, pair, out=pair)
        np.subtract(pair, self._target, out=pair)
        coords.take(self._gauge_cols, out=self._gauge_res, mode="clip")
        if arc is None:
            return self._unbordered_res
        base, tangent, h = arc
        self._res[self.num_rows] = np.subtract(coords, base, out=self._shifted).dot(tangent) - h
        return self._res

    def jacobian(self, coords: Vec) -> Vec:
        self._gather(coords)
        return self._gathered_jacobian()

    def _gathered_jacobian(self, tangent: Optional[Vec] = None) -> Vec:
        """The Jacobian at the point of the last gather, bordered by the
        arclength row ``tangent`` when one is given.  Without one the
        buffer's arclength row is left as it is, and the view returned
        leaves it out."""
        np.multiply(self._block_coef, self._block_src, out=self._blocks)
        self._jac_flat.put(self._block_flat, self._blocks)
        if tangent is None:
            return self._unbordered_jac
        self._arc_row[...] = tangent
        return self._jac


def residual_vector(g: Graph, lam: LengthAssignment, coords: Vec) -> Vec:
    """Sphere, edge and gauge residuals, in that order."""
    return ConstraintSystem(g, lam).residual(coords)


def jacobian(g: Graph, lam: LengthAssignment, coords: Vec) -> Vec:
    return ConstraintSystem(g, lam).jacobian(coords)


def _corank(svals: Vec, width: int) -> int:
    """Singular values below ``max(s_max, 1) * CORANK_REL_TOL``, counting the
    ones a matrix with fewer rows than ``width`` columns lacks as zero."""
    svals = np.concatenate([svals, np.zeros(width - len(svals))])
    cutoff = max(svals[0], 1.0) * CORANK_REL_TOL
    return int(np.sum(svals < cutoff))


def corank_and_tangent(jac: Vec) -> tuple[int, Vec, float]:
    """Numeric corank, the unit kernel direction of smallest stretch, and
    the smallest singular value over the cutoff of the corank (0 when the
    matrix has fewer rows than columns)."""
    # full V: with fewer rows than columns a thin SVD's last row is no kernel vector
    _, svals, vt = np.linalg.svd(jac)
    width = jac.shape[1]
    smallest = svals[-1] if len(svals) == width else 0.0
    return _corank(svals, width), vt[-1], smallest / (max(svals[0], 1.0) * CORANK_REL_TOL)


def _solve(a: Vec, b: Vec) -> Vec:
    """``np.linalg.solve(a, b)`` for a vector ``b``, to the bit, but NaN
    where that raises ``LinAlgError`` (``a`` singular), with a warning
    outside ``np.errstate``."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _cholesky(a: Vec) -> Vec:
    """``np.linalg.cholesky(a)``, to the bit, but all NaN where that raises
    ``LinAlgError`` (``a`` not positive definite).  A factor has its upper
    triangle zeroed, so its top right entry tells the two apart even where
    a NaN in ``a`` passes into the factor.  A failure warns outside
    ``np.errstate``."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


def _all_finite(v: Vec) -> bool:
    """``np.isfinite(v).all()`` for a vector.  A finite ``v . v`` needs every
    entry finite, and the dot product costs a fraction of the elementwise
    test, which is left to the rare ``v`` whose square is not finite (a
    finite ``v`` can overflow it)."""
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def _full_rank_step(x: Vec, a: Vec, r: Vec, normal: Vec, rhs: Vec) -> Optional[Vec]:
    """``x - s`` for the least-squares solution ``s`` of ``a s = r`` when
    ``a`` has full column rank, or None when that point is not finite.

    ``s`` solves the normal equations ``a^T a s = a^T r``, assembled in the
    buffers ``normal`` and ``rhs``.  That squares the condition number,
    which is harmless on the bordered systems of a trace (about 41 at most,
    median 14, on the benchmark's loops) and costs a fraction of an SVD.
    ``x - s`` equals ``x`` plus the solution for ``-r`` to the bit, as
    negation is exact and LU substitution is symmetric in sign.  A singular
    normal matrix, or an ``s`` that is not finite, means ``a`` is not of
    full column rank after all, and ``lstsq`` gives the step instead.
    """
    at = a.T
    s = _solve(at.dot(a, out=normal), at.dot(r, out=rhs))
    stepped = x - s
    if _all_finite(stepped):
        return stepped
    if _all_finite(s):
        return None
    stepped = x + np.linalg.lstsq(a, -r, rcond=None)[0]
    return stepped if np.isfinite(stepped).all() else None


def _norm(v: Vec) -> float:
    """``np.linalg.norm`` of a contiguous vector, computed as it does (a dot
    product, then a square root) without its dispatch."""
    return math.sqrt(v.dot(v))


def bordered_corank_and_tangent(
    bordered: Vec, buffers: Optional[tuple[Vec, Vec]] = None
) -> tuple[int, Vec]:
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
    ``N``, the factorization and the SVD.  ``buffers``, a square matrix of
    ``bordered``'s width and a view of its diagonal, receive ``N``; without
    them ``N`` is allocated.  A singular ``N`` may warn unless the caller
    enters ``np.errstate``, as ``trace`` does.
    """
    jac, t_prev = bordered[:-1], bordered[-1]
    if buffers is None:
        normal = np.empty((len(t_prev), len(t_prev)))
        diagonal = normal.reshape(-1)[:: len(t_prev) + 1]
    else:
        normal, diagonal = buffers
    bordered.T.dot(bordered, out=normal)
    # bordered^T e_last is the last row, t_prev, to the bit
    t = _solve(normal, t_prev)
    if not _all_finite(t):
        e_last = np.zeros(len(bordered))
        e_last[-1] = 1.0
        t = np.linalg.lstsq(bordered, e_last, rcond=None)[0]
    t /= _norm(t)
    if _norm(jac.dot(t)) <= 0.5 * CORANK_REL_TOL:
        shift = 100.0 * (max(_norm(jac.ravel("K")), 1.0) * CORANK_REL_TOL) ** 2
        # normal - shift * I, in place as normal is not read again: off the
        # diagonal, x - 0.0 is x
        diagonal -= shift
        if not math.isnan(_cholesky(normal)[0, -1]):
            return 1, t
    svals = np.linalg.svd(jac, compute_uv=False)
    return _corank(svals, jac.shape[1]), t


def newton_correct(
    system: ConstraintSystem,
    coords: Vec,
    arc_constraint: Optional[tuple[Vec, Vec, float]] = None,
) -> Optional[Vec]:
    """Gauss-Newton projection onto the constraint set.

    With ``arc_constraint = (base, tangent, h)`` a pseudo-arclength row
    ``(x - base) . tangent = h`` is appended, which pins the corrected
    point ahead of ``base`` and lets the path march through folds instead
    of sliding back.  That row gives the Jacobian full column rank at a
    regular curve point, so the step solves the normal equations; without
    it the Jacobian is rank-deficient by construction and the step is
    ``lstsq``'s minimum-norm one.  It takes at most ``MAX_NEWTON_ITERS``
    steps to bring every residual within ``NEWTON_TOL``.  A singular input
    may warn unless the caller enters ``np.errstate``, as ``trace`` does.

    ``coords`` is not written: every step makes a new array, and ``coords``
    itself comes back when it needs no step.  The point returned is that of
    ``system``'s last gather, so the Jacobian there is
    ``system._gathered_jacobian``'s.
    """
    residual, assemble = system.residual, system._gathered_jacobian
    normal, rhs = system._normal, system._rhs
    if arc_constraint is None:
        magnitudes, jac = system._magnitudes[: system.num_rows], system._unbordered_jac
    else:
        magnitudes, jac = system._magnitudes, system._jac
        # the arclength row, which the assembly below leaves as it is
        system._arc_row[...] = arc_constraint[1]
    x = coords
    for _ in range(MAX_NEWTON_ITERS):
        r = residual(x, arc_constraint)
        if np.maximum.reduce(np.abs(r, out=magnitudes)) <= NEWTON_TOL:
            return x
        # the Jacobian at x into jac, from the gather of its residual
        assemble()
        if arc_constraint is None:
            x = x + np.linalg.lstsq(jac, -r, rcond=None)[0]
            if not np.isfinite(x).all():
                return None
        else:
            x = _full_rank_step(x, jac, r, normal, rhs)
            if x is None:
                return None
    r = residual(x, arc_constraint)
    return x if np.maximum.reduce(np.abs(r, out=magnitudes)) <= NEWTON_TOL else None


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
    system: ConstraintSystem, x: Vec, t_prev: Vec, h: float
) -> tuple[Vec, Vec, float] | str:
    """One predictor-corrector step along ``t_prev``, halving ``h`` until the
    tangent ``t`` at a corrected point keeps ``t . t_prev > 0.2``.

    The pseudo-arclength row forces genuine progress, so folds cannot bounce
    the path back.  Returns the accepted ``(point, tangent, h)``, or the stop
    reason ``"singular_point"`` or ``"step_failure"``.
    """
    buffers = system._normal, system._diagonal
    while h >= MIN_STEP:
        cand = newton_correct(system, x + h * t_prev, (x, t_prev, h))
        if cand is not None:
            # the corrector's last gather was at cand
            bordered = system._gathered_jacobian(t_prev)
            corank, t_new = bordered_corank_and_tangent(bordered, buffers)
            if corank >= 2:
                return "singular_point"
            if t_new.dot(t_prev) > 0.2:
                return cand, t_new, h
        h *= 0.5
    return "step_failure"


def trace(
    g: Graph,
    lam: LengthAssignment,
    seed: SphericalRealization,
    config: Optional[TraceConfig] = None,
) -> TraceResult:
    """Follow the configuration curve through a seed realization.

    The seed is re-gauged and Newton-polished; a seed the corrector cannot
    polish raises ``SphflexError``, and a Jacobian corank other than 1
    raises ``RankDeficientError`` (corank 0 means the gauged framework is
    rigid).  A seed of corank 1 whose smallest singular value is at least
    ``SEED_AMBIGUOUS`` of the cutoff raises ``SphflexError``: it is most
    likely a rigid framework near a flexible one, whose trace would be a
    phantom arc.  Samples are spaced by arclength steps.  The trace stops
    for one of four reasons, its ``stop_reason``:

    - ``"loop_closed"``: it returned to the seed with an aligned tangent;
    - ``"max_steps"``: it took ``max_steps`` steps;
    - ``"singular_point"``: a corrected point has corank 2 or more;
    - ``"step_failure"``: no step of at least ``MIN_STEP`` was accepted.

    Stopping before the first step raises ``SphflexError``, as does a
    graph without edges, which leaves the gauge no meridian.
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
    for v in seed.placement:
        if v not in g.position:
            raise SphflexError(f"seed realization places vertex {v}, which the graph lacks")
    cfg = config or TraceConfig()
    system = ConstraintSystem(g, lam)

    x0 = re_gauge(seed, g).as_array(g.vertices)
    # the step tests every value it uses, so a warning would tell nothing
    with np.errstate(all="ignore"):
        x0 = newton_correct(system, x0)
        if x0 is None:
            raise SphflexError("seed does not satisfy the constraints")
        corank, tangent, smallest = corank_and_tangent(system.jacobian(x0))
        if corank != 1:
            why = "framework is rigid" if corank == 0 else "not a curve point"
            raise RankDeficientError(corank, f"corank {corank} at seed: {why}")
        if smallest >= SEED_AMBIGUOUS:
            raise SphflexError(
                f"corank ambiguous at seed: smallest singular value is {smallest:.1e} of the cutoff"
            )
        if tangent[np.argmax(np.abs(tangent))] < 0:
            tangent = -tangent

        step_size, max_steps = cfg.step_size, cfg.max_steps
        xs, arclengths = [x0], [0.0]
        x, t_prev, h, arclength = x0, tangent, step_size, 0.0
        went_far = False
        stop_reason = "max_steps"  # the reason when the loop runs out of steps
        while len(xs) <= max_steps:
            step = _advance(system, x, t_prev, h)
            if isinstance(step, str):
                stop_reason = step
                break
            x, t_prev, h = step
            arclength += h
            xs.append(x)
            arclengths.append(arclength)
            dist_to_seed = _norm(x - x0)
            # measured in accepted steps: a loop that never gets 3 * step_size
            # from the seed must still be able to close
            went_far = went_far or dist_to_seed > 3.0 * h
            h = min(h * 1.3, step_size)

            if went_far and dist_to_seed <= 1.5 * h and t_prev.dot(tangent) > 0.5:
                # candidate return: project onto the curve slice through the
                # seed orthogonal to the seed tangent; a genuine loop lands on
                # the seed itself, a near-miss pass does not
                back = newton_correct(system, x, (x0, tangent, 0.0))
                if back is not None and float(np.abs(back - x0).max()) <= 1e3 * NEWTON_TOL:
                    stop_reason = "loop_closed"
                    break

    if len(xs) < 2:
        raise SphflexError("no step succeeded from the seed")
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
    raise ``SphflexError``; NaN centers give candidates that are
    not real.
    """
    c = np.cross(n1, n2)
    det = row_dots(c, c)
    if np.any(det <= 1e-20):
        raise SphflexError("placed neighbors span less than a plane")
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
            raise SphflexError(
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

    Within ``FIBER_TOL`` of a tangency both intersection points are tried,
    as the later edges may meet either, and their subtrees count once:
    folding the kept leaves back up the order, a tangency takes the larger
    of its two counts and any other split their sum.

    The paper's realizations put no two vertices on one point or on
    antipodal points, so an intersection point that coincides with or is
    antipodal to a vertex its branch has placed, within ``DEGENERATE_TOL``,
    is no point of the fiber and holds NaN too.  Retained vertices that
    span less than a plane still raise ``SphflexError``.
    """
    g, lam = traj.graph, traj.lengths
    col = g.position
    placed = [col[v] for v in g.vertices if v not in forgotten]
    branches = traj.points[:, None]
    tangencies = []
    for v, a, b in _construction_order(g, forgotten):
        cands, real = _circle_intersections(
            branches[:, :, col[a]],
            branches[:, :, col[b]],
            lam.delta_of(v, a),
            lam.delta_of(v, b),
            FIBER_TOL,
        )
        tangencies.append(real[..., 0] & ~real[..., 1])
        real[..., 1] = real[..., 0]
        dots = cands @ branches[:, :, placed].swapaxes(-1, -2)
        real &= ~np.any(np.abs(dots) >= 1.0 - DEGENERATE_TOL, axis=-1)
        branches = np.repeat(branches, 2, axis=1)
        cands = np.where(real[..., None], cands, np.nan)
        branches[:, :, col[v]] = cands.reshape(len(branches), -1, 3)
        placed.append(col[v])
    keep = np.ones(branches.shape[:2], dtype=bool)
    for a, b in g.edges:
        if a in forgotten or b in forgotten:
            dots = row_dots(branches[:, :, col[a]], branches[:, :, col[b]])
            keep &= np.abs(dots - lam.delta_of(a, b)) <= FIBER_TOL
    counts = keep.astype(np.int64)
    for tangency in reversed(tangencies):
        pairs = counts.reshape(len(counts), -1, 2)
        counts = np.where(tangency, pairs.max(axis=-1), pairs.sum(axis=-1))
    return counts[:, 0]


def empirical_map_degree(traj: MotionTrajectory, forgotten: Iterable[int]) -> int:
    """Degree of the projection that forgets some vertices, read off the
    samples: the largest exact fiber over them.

    A fiber is the set of placements of the forgotten vertices that meet
    every edge with the retained vertices held fixed; it is computed by
    circle intersection, with no Newton solve.  A forgotten set that cannot
    be placed two neighbors at a time raises ``SphflexError``.
    """
    forgotten = set(forgotten) & set(traj.graph.vertices)
    if traj.graph.num_vertices - len(forgotten) < 3:
        raise SphflexError("need at least three retained vertices")
    return int(_fiber_sizes(traj, forgotten).max())
