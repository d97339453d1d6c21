"""The Newton corrector and corank certificate as they were before the step
was trimmed of numpy dispatches, kept as oracles.

``continuation`` now gathers each iterate's point rows once for the
residual and the Jacobian, assembles the Jacobian at a step's accepted
point from the corrector's last gather, steps from the caller's
coordinates without copying them, tests finiteness once per iterate, takes
norms as a dot product and a square root, takes the largest residual
magnitude as one ``np.maximum.reduce`` over a buffer, forms matrix
products with ``ndarray.dot`` into the system's buffers, writes the
arclength row once per corrector call, solves the corrector's normal
equations for ``r`` and steps ``x - s`` where these solve for ``-r`` and
step ``x + s``, solves the certificate's normal equations for ``t_prev``
directly, normalizes the tangent in place, shifts the normal matrix's
diagonal in place through a view made once, and calls the LAPACK gufuncs
behind ``np.linalg.solve`` and ``np.linalg.cholesky`` directly.  Each of
those performs the same floating-point operations in the same order as
the code below, so a trace must equal one run through these functions bit
for bit.

``closure_distance`` is the loop-closure distance as ``trace`` took it.
"""

from typing import Optional

import numpy as np

from sphflex.continuation import (
    CORANK_REL_TOL,
    MAX_NEWTON_ITERS,
    NEWTON_TOL,
    ConstraintSystem,
    Vec,
    _corank,
)


def _normal_solve(a: Vec, b: Vec, normal: Vec, rhs: Vec) -> Vec:
    try:
        s = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError:
        s = None
    if s is not None and np.all(np.isfinite(s)):
        return s
    return np.linalg.lstsq(a, b, rcond=None)[0]


def full_rank_lstsq(a: Vec, b: Vec) -> Vec:
    return _normal_solve(a, b, a.T @ a, a.T @ b)


def bordered_corank_and_tangent(bordered: Vec) -> tuple[int, Vec]:
    jac, t_prev = bordered[:-1], bordered[-1]
    normal = bordered.T @ bordered
    e_last = np.zeros(len(bordered))
    e_last[-1] = 1.0
    # bordered^T e_last is the last row, t_prev, to the bit
    t = _normal_solve(bordered, e_last, normal, t_prev)
    t = t / np.linalg.norm(t)
    if float(np.linalg.norm(jac @ t)) <= 0.5 * CORANK_REL_TOL:
        shift = 100.0 * (max(float(np.linalg.norm(jac)), 1.0) * CORANK_REL_TOL) ** 2
        try:
            np.linalg.cholesky(normal - shift * np.eye(len(normal)))
        except np.linalg.LinAlgError:
            pass
        else:
            return 1, t
    svals = np.linalg.svd(jac, compute_uv=False)
    return _corank(svals, jac.shape[1]), t


def newton_correct(
    system: ConstraintSystem,
    coords: Vec,
    arc_constraint: Optional[tuple[Vec, Vec, float]] = None,
) -> Optional[Vec]:
    x = coords.copy()
    tangent = None if arc_constraint is None else arc_constraint[1]
    for _ in range(MAX_NEWTON_ITERS):
        r = system.residual(x, arc_constraint)
        if np.abs(r).max() <= NEWTON_TOL:
            return x
        jac = system.jacobian(x, tangent)
        if arc_constraint is None:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        else:
            step = full_rank_lstsq(jac, -r)
        x = x + step
        if not np.all(np.isfinite(x)):
            return None
    r = system.residual(x, arc_constraint)
    return x if np.abs(r).max() <= NEWTON_TOL else None


def closure_distance(v: Vec) -> float:
    return float(np.linalg.norm(v))
