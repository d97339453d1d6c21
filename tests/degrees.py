"""The window-scan degree estimator that exact fibers replaced, kept as an
oracle, and the Dixon 1 loops the two are compared on.

``window_scan_degree`` scans a trajectory, for three target samples, for
windows whose retained Gram matrix matches the target's.  It polishes each
hit by Gauss-Newton through one extra Gram row (``match_residual_by_loop``
and ``match_jacobian_by_loop``) and counts the essentially distinct polished
preimages.  It only finds preimages on the traced real component, so it is
a valid oracle only where every preimage lies on that component: on the
acceptance-test loop and on the loops with increasing slopes, not on the
unsorted ones.
"""

from itertools import combinations

import numpy as np

from sphflex.continuation import TraceConfig, trace
from sphflex.motions import MotionTrajectory
from sphflex.spherical import SphericalRealization, essentially_distinct, random_rotation

from assembly import match_jacobian_by_loop, match_residual_by_loop
from helpers import apply_rotation
from reference import dixon1_seed

MATCH_TOL = 1e-8
NEWTON_TOL = 1e-12


def _polish(g, lam, start, target, retained, col):
    """Gauss-Newton from sample ``start`` onto the curve point whose Gram
    entry on one retained pair matches ``target``'s: the pair whose entry
    differs most between them."""
    gap = {
        (a, b): abs(
            float(start[col[a]] @ start[col[b]]) - float(target[col[a]] @ target[col[b]])
        )
        for a, b in combinations(retained, 2)
    }
    a, b = max(gap, key=gap.get)
    goal = float(target[col[a]] @ target[col[b]])
    x = start.reshape(-1).copy()
    for _ in range(50):
        r = match_residual_by_loop(g, lam, x, a, b, goal)
        if np.abs(r).max() <= NEWTON_TOL:
            return x
        jac = match_jacobian_by_loop(g, lam, x, a, b, goal)
        x = x + np.linalg.lstsq(jac, -r, rcond=None)[0]
        if not np.all(np.isfinite(x)):
            return None
    r = match_residual_by_loop(g, lam, x, a, b, goal)
    return x if np.abs(r).max() <= NEWTON_TOL else None


def window_scan_degree(traj: MotionTrajectory, forgotten) -> int:
    g, lam = traj.graph, traj.lengths
    order = g.vertices
    col = {v: i for i, v in enumerate(order)}
    retained = [v for v in order if v not in set(forgotten)]
    rcols = [col[v] for v in retained]
    pts = traj.points
    grams = pts[:, rcols] @ pts[:, rcols].transpose(0, 2, 1)
    count = len(pts)
    best = 1
    for tid in sorted({0, count // 3, (2 * count) // 3}):
        dists = np.abs(grams - grams[tid]).max(axis=(1, 2))
        for triple in combinations(rcols, 3):
            dets = np.linalg.det(pts[:, list(triple)])
            if abs(dets[tid]) > 1e-8:
                dists[dets * dets[tid] < 0] = np.inf
                break
        hits = [
            i
            for i in range(count)
            if dists[i] <= 0.25
            and dists[i] <= dists[max(i - 1, 0)]
            and dists[i] <= dists[min(i + 1, count - 1)]
        ]
        polished = []
        for i in hits:
            x = _polish(g, lam, pts[i], pts[tid], retained, col)
            if x is None:
                continue
            q = x.reshape(-1, 3)[rcols]
            if np.abs(q @ q.T - grams[tid]).max() > MATCH_TOL:
                continue
            if all(np.abs(x - y).max() > 1e-6 for y in polished):
                polished.append(x)
        classes = []
        for x in polished:
            rho = SphericalRealization(dict(zip(order, x.reshape(-1, 3))))
            if all(essentially_distinct(rho, c) for c in classes):
                classes.append(rho)
        best = max(best, len(classes))
    return best


def random_dixon1_loops(count: int = 16):
    """(c, d, trace result) of Dixon 1 K(3,3) loops with slopes drawn from
    ``default_rng(11)``, each seed turned by a random rotation and traced to
    closure at step 0.05.  Even-numbered loops have increasing slopes on
    both sides; odd-numbered ones keep the drawn order."""
    rng = np.random.default_rng(11)
    loops = []
    for k in range(count):
        c, d = rng.uniform(0.15, 0.75, size=(2, 3))
        if k % 2 == 0:
            c.sort()
            d.sort()
        g, lam, rho = dixon1_seed(3, 3, c, d)
        seed = apply_rotation(random_rotation(rng), rho)
        res = trace(g, lam, seed, config=TraceConfig(step_size=0.05, max_steps=4000))
        loops.append((c, d, res))
    return loops
