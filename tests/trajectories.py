"""Per-sample trajectory code, kept as oracles for the stacked forms.

``MotionTrajectory`` stores its samples as one (S, |V|, 3) array, and its
producers, writers, parse-back and motion-kind detector work on that
array.  The functions here are the one-realization-at-a-time and loop
versions they replaced: the CDA closed form in scalar arithmetic, the
per-sample ``%r`` writers, the Dixon 2 test as a loop over its 48 axis
matchings.  The tests require the stacked results to equal them exactly.
"""

import json
import math
from itertools import combinations, permutations, product
from typing import Any, Optional, Sequence

import numpy as np

from sphflex import formats
from sphflex.errors import SphflexError
from sphflex.motions import (
    KIND_CDA,
    KIND_DIXON1,
    KIND_DIXON2,
    KIND_UNCLASSIFIED,
    Dixon1Params,
    Dixon2Params,
    _EVEN_PAIRS,
    _ODD_PAIRS,
    MotionTrajectory,
    _cda_pattern,
    _pair_axes,
    make_trajectory,
)
from sphflex.spherical import (
    ON_SPHERE_TOL,
    SphericalRealization,
    Vec,
    degenerate_pair_masks,
    degenerate_pairs,
    essentially_distinct,
    max_edge_residual,
    row_dots,
)

# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------


def stack_points(rhos: Sequence[SphericalRealization], order: Sequence[int]) -> Vec:
    """Points of every realization in ``order``, shape (len(rhos), len(order), 3)."""
    flat = np.concatenate([rho.placement[v] for rho in rhos for v in order])
    return flat.reshape(len(rhos), len(order), 3)


def degenerate_pairs_of_all(
    rhos: Sequence[SphericalRealization],
) -> list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """``degenerate_pairs`` of every realization, through
    ``degenerate_pair_masks`` on the stack of each vertex set."""
    out: list = [([], []) for _ in rhos]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, rho in enumerate(rhos):
        groups.setdefault(rho.vertices, []).append(i)
    for order, ids in groups.items():
        pairs = list(combinations(order, 2))
        masks = degenerate_pair_masks(stack_points([rhos[i] for i in ids], order))
        for side, mask in enumerate(masks):
            for k, p in zip(*np.nonzero(mask)):
                out[ids[k]][side].append(pairs[p])
    return out


# ---------------------------------------------------------------------------
# producers
# ---------------------------------------------------------------------------


def dixon1_rows(params: Dixon1Params, s: float) -> Vec:
    """One Dixon 1 sample as the per-s loop built it, vertices 1..6."""
    placement = {}
    for i in (1, 3, 5):
        sin_t = params.c[i] * s
        placement[i] = np.array([math.sqrt(1.0 - sin_t**2), 0.0, sin_t])
    for j in (2, 4, 6):
        sin_p = params.d[j] / s
        placement[j] = np.array([0.0, math.sqrt(1.0 - sin_p**2), sin_p])
    return np.array([placement[v] for v in range(1, 7)])


def solve_dixon2_point(params: Dixon2Params, p1: float) -> tuple[Vec, Vec]:
    """Find p = (p1, p2, p3) and q = (a/p1, b/p2, c/p3), both unit, with
    p2^2 the smaller root, one p1 at a time with scalar bisection."""
    a2, b2, c2 = params.alpha**2, params.beta**2, params.gamma**2
    if not abs(p1) < 1.0 or p1 == 0.0:
        raise SphflexError(f"p1={p1} outside (0,1)")
    r2 = 1.0 - p1 * p1
    base = a2 / (p1 * p1) - 1.0

    def residual(u: float) -> float:
        return base + b2 / u + c2 / (r2 - u)

    u_star = abs(params.beta) * r2 / (abs(params.beta) + abs(params.gamma))
    if residual(u_star) > 0.0:
        raise SphflexError(f"no real companion point for p1={p1} at these products")
    lo, hi = 1e-300, u_star
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    p = np.array([p1, math.sqrt(u), math.sqrt(max(r2 - u, 0.0))])
    if np.any(p == 0.0):
        raise SphflexError("solution touches a coordinate plane")
    q = np.array([params.alpha, params.beta, params.gamma]) / p
    q /= np.linalg.norm(q)
    return p, q


def solve_dixon2_points_by_halvings(
    params: Dixon2Params, p1_list: Sequence[float]
) -> tuple[Vec, Vec]:
    """``_solve_dixon2_points`` with all 200 halvings and no early exit."""
    a2, b2, c2 = params.alpha**2, params.beta**2, params.gamma**2
    p1 = np.array(p1_list)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r2 = 1.0 - p1 * p1
        base = a2 / (p1 * p1) - 1.0

        def residual(u: Vec) -> Vec:
            return base + b2 / u + c2 / (r2 - u)

        u_star = abs(params.beta) * r2 / (abs(params.beta) + abs(params.gamma))
        no_root = residual(u_star) > 0.0
        lo, hi = np.full_like(p1, 1e-300), u_star
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            up = residual(mid) > 0.0
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        u = 0.5 * (lo + hi)
        p = np.stack([p1, np.sqrt(u), np.sqrt(np.maximum(r2 - u, 0.0))], axis=1)
        q = np.array([params.alpha, params.beta, params.gamma]) / p
    outside = ~(np.abs(p1) < 1.0) | (p1 == 0.0)
    touches = (p == 0.0).any(axis=1)
    bad = np.flatnonzero(outside | no_root | touches)
    if bad.size:
        k = bad[0]
        if outside[k]:
            raise SphflexError(f"p1={p1_list[k]} outside (0,1)")
        if no_root[k]:
            raise SphflexError(
                f"no real companion point for p1={p1_list[k]} at these products"
            )
        raise SphflexError("solution touches a coordinate plane")
    q /= np.sqrt(row_dots(q, q))[:, None]
    return p, q


def cda_rows_at(t: float, y2_sign: int, z5_sign: int) -> Vec:
    """Points of vertices 1..6 of ``motions._cda_rows`` at one t, as a (6, 3)
    array, in scalar float arithmetic."""
    if not math.isfinite(t):
        raise SphflexError(f"t={t} is not finite")
    if t in (-1.0, 0.0, 1.0):
        raise SphflexError(f"t={t} is a pole of the parametrization")
    y2_rad = (t + 7.0) * (7.0 * t + 1.0)
    if y2_rad < 0.0:
        raise SphflexError(f"y2 radicand {y2_rad:.3e} < 0 at t={t}")
    y2 = y2_sign * math.sqrt(y2_rad) / (5.0 * t + 5.0)
    try:
        z5_rad = (
            25.0 * t**4 * y2**2
            - 50.0 * t**2 * y2**2
            + 25.0 * y2**2
            - 72.0 * t**3
            - 72.0 * t
        )
    except OverflowError:  # float ** raises where * gives inf
        z5_rad = math.inf
    if not math.isfinite(z5_rad):  # also where y2_rad overflowed: y2 is then inf or NaN
        raise SphflexError(f"the radicands overflow at t={t}")
    if z5_rad < 0.0:
        raise SphflexError(f"z5 radicand {z5_rad:.3e} < 0 at t={t}")
    z5 = (-5.0 * y2 * t**2 + 5.0 * y2 + z5_sign * math.sqrt(z5_rad)) / (
        8.0 * (t**2 + 1.0)
    )
    if z5 == 0.0:
        raise SphflexError(f"z5 vanishes at t={t}")
    x3 = 2.0 * t / (t**2 + 1.0)
    z3 = (t**2 - 1.0) / (t**2 + 1.0)
    z2 = 0.6 * (t - 1.0) / (t + 1.0)
    z4 = -0.6 * (t + 1.0) / (t - 1.0)
    x5 = t * (16.0 * z5**2 + 9.0) / (8.0 * z5 * (t**2 - 1.0))
    y4 = y2 + 8.0 * (t**2 + 1.0) * z5 / (5.0 * (t**2 - 1.0))
    rows = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.6, y2, z2],
            [x3, 0.0, z3],
            [0.6, y4, z4],
            [x5, 0.75, z5],
            [0.0, 1.0, 0.0],
        ]
    )
    off = np.abs(row_dots(rows, rows) - 1.0).max()
    if not off <= ON_SPHERE_TOL:
        raise SphflexError(f"the closed form leaves the sphere by {off:.3e} at t={t}")
    return rows


def cda_feasible_intervals_by_points(
    t_lo: float, t_hi: float, samples: int, y2_sign: int, z5_sign: int
) -> list[tuple[float, float]]:
    """The maximal runs of ``samples`` evenly spaced t in [t_lo, t_hi] at
    which ``cda_rows_at`` gives a realization on the chosen branch, as
    (first t, last t) pairs; one ``cda_rows_at`` per grid point."""
    grid = np.linspace(t_lo, t_hi, samples)
    good = np.zeros(len(grid) + 2, dtype=int)
    for i, t in enumerate(grid):
        try:
            cda_rows_at(float(t), y2_sign, z5_sign)
        except SphflexError:
            continue
        good[i + 1] = 1
    bounds = np.flatnonzero(np.diff(good))
    return [(float(grid[a]), float(grid[b - 1])) for a, b in zip(bounds[::2], bounds[1::2])]


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------


def _coplanar_normal(points: Sequence[Vec], tol: float) -> Optional[Vec]:
    """Unit normal of a common plane through the origin, if one exists."""
    _, svals, vt = np.linalg.svd(np.stack(points))
    if svals[-1] > tol:
        return None
    return vt[-1]


def is_dixon1_sample(rho: SphericalRealization, tol: float) -> bool:
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


def _product_axes(odd_pairs, even_pairs, even_perm, pair_axes, tol):
    """Axis triples where the k-th odd pair shares an axis with the
    permuted k-th even pair."""
    per_slot = []
    for k in range(3):
        slot = []
        for ax_o in pair_axes(*odd_pairs[k]):
            for ax_e in pair_axes(*even_pairs[even_perm[k]]):
                if min(np.abs(ax_o - ax_e).max(), np.abs(ax_o + ax_e).max()) <= tol:
                    slot.append(ax_o)
        if not slot:
            return
        per_slot.append(slot)
    for a0 in per_slot[0]:
        for a1 in per_slot[1]:
            for a2 in per_slot[2]:
                yield (a0, a1, a2)


def is_dixon2_sample(rho: SphericalRealization, tol: float) -> bool:
    """Look for three mutually orthogonal half-turn axes pairing the odd
    and even vertices (allowing antipodal partners)."""
    odd_pairs = list(combinations((1, 3, 5), 2))
    even_pairs = list(combinations((2, 4, 6), 2))

    def pair_axes(u: int, v: int) -> list[Vec]:
        return _axis_candidates(rho.point(u), rho.point(v), 1e-7)

    for even_perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for axes in _product_axes(odd_pairs, even_pairs, even_perm, pair_axes, tol):
            if all(
                abs(float(axes[i] @ axes[j])) <= tol for i in range(3) for j in range(i + 1, 3)
            ):
                return True
    return False


def dixon2_samples_by_loop(pts: Vec, tol: float) -> Vec:
    """``_dixon2_samples`` with a loop over the 48 pair matchings and axis
    signs and with reductions over the coordinates."""
    odd_axes, odd_ok = _pair_axes(pts, _ODD_PAIRS)
    even_axes, even_ok = _pair_axes(pts, _EVEN_PAIRS)
    o, e = odd_axes[:, :, :, None, None], even_axes[:, None, None]
    with np.errstate(invalid="ignore"):
        close = np.minimum(np.abs(o - e).max(axis=-1), np.abs(o + e).max(axis=-1)) <= tol
        orth = np.abs(row_dots(o, odd_axes[:, None, None])) <= tol
    shares = odd_ok[..., None] & (close & even_ok[:, None, None]).any(axis=-1)
    found = np.zeros(len(pts), dtype=bool)
    for m0, m1, m2 in permutations(range(3)):
        for s0, s1, s2 in product((0, 1), repeat=3):
            found |= (
                shares[:, 0, s0, m0]
                & shares[:, 1, s1, m1]
                & shares[:, 2, s2, m2]
                & orth[:, 0, s0, 1, s1]
                & orth[:, 0, s0, 2, s2]
                & orth[:, 1, s1, 2, s2]
            )
    return found


def detect_by_samples(traj: MotionTrajectory, tol: float = 1e-8) -> str:
    """``detect_k33_motion_kind``, one realization at a time."""
    rhos = traj.realizations()
    distinct = [rhos[0]]
    for rho in rhos[1:]:
        if all(essentially_distinct(rho, d) for d in distinct):
            distinct.append(rho)
        if len(distinct) >= 3:
            break
    if len(distinct) < 3:
        raise SphflexError("need three essentially distinct samples")
    for t, rho in zip(traj.parameters.tolist(), rhos):
        if any(degenerate_pairs(rho)):
            raise SphflexError(f"sample at {t} has coincident or antipodal vertices")
    if all(is_dixon1_sample(rho, tol) for rho in rhos):
        return KIND_DIXON1
    if all(is_dixon2_sample(rho, tol) for rho in rhos):
        return KIND_DIXON2
    if _cda_pattern(traj.lengths, tol):
        return KIND_CDA
    return KIND_UNCLASSIFIED


# ---------------------------------------------------------------------------
# writers and parse-back
# ---------------------------------------------------------------------------


def trajectory_to_csv_by_samples(traj: MotionTrajectory) -> str:
    """The CSV export, one sample and one ``max_edge_residual`` at a time."""
    order = traj.graph.vertices
    header = ["parameter"]
    for v in order:
        header += [f"x{v}", f"y{v}", f"z{v}"]
    header.append("residual")
    rows = [",".join(header)]
    for t, s in zip(traj.parameters.tolist(), traj.samples):
        cells = [repr(t)]
        for v in order:
            cells += [repr(float(c)) for c in s.realization.point(v)]
        cells.append(repr(max_edge_residual(traj.graph, s.realization, traj.lengths)))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


_JSON_BOOL = {False: "false", True: "true"}


def dump_trajectory_by_samples(traj: MotionTrajectory) -> str:
    """The structured export with one ``%r`` text template per sample."""
    head = formats.dumps(
        {
            "graph": formats.graph_to_dict(traj.graph),
            "kind": traj.kind,
            "lengths": formats.lengths_to_dict(traj.lengths)["lengths"],
        }
    )
    order = traj.graph.vertices
    cols = sorted(range(len(order)), key=lambda i: str(order[i]))
    placement = ",\n".join(
        f'        "{order[i]}": [\n          %r,\n          %r,\n          %r\n        ]'
        for i in cols
    )
    coords = traj.points[:, cols].reshape(len(traj.points), -1).tolist()
    injective, proper = traj.sample_flags()
    items = [
        f'    {{\n      "injective": {_JSON_BOOL[inj]},\n      "parameter": {t!r},\n'
        f'      "placement": {{\n{placement % tuple(xyz)}\n      }},\n'
        f'      "proper": {_JSON_BOOL[prop]}\n    }}'
        for t, xyz, inj, prop in zip(
            traj.parameters.tolist(), coords, injective.tolist(), proper.tolist()
        )
    ]
    return f'{head[:-3]},\n  "samples": [\n' + ",\n".join(items) + "\n  ]\n}\n"


def trajectory_from_dict_by_samples(data: dict[str, Any]) -> MotionTrajectory:
    """Parse-back through one ``realization_from_dict`` per sample."""
    frames = [
        (float(s["parameter"]), formats.realization_from_dict(s)) for s in data["samples"]
    ]
    return make_trajectory(
        formats.graph_from_dict(data["graph"]),
        formats.lengths_from_dict({"lengths": data["lengths"]}),
        frames,
        data["kind"],
    )


def trajectory_to_dict_by_samples(traj: MotionTrajectory) -> dict[str, Any]:
    """``trajectory_to_dict`` one sample, and one point, at a time."""
    samples = []
    for t, rho in zip(traj.parameters.tolist(), traj.realizations()):
        coincident, antipodal = degenerate_pairs(rho)
        samples.append(
            {
                "parameter": t,
                "placement": {str(v): [float(c) for c in rho.point(v)] for v in rho.vertices},
                "injective": not coincident,
                "proper": not (coincident or antipodal),
            }
        )
    return {
        "kind": traj.kind,
        "graph": formats.graph_to_dict(traj.graph),
        "lengths": formats.lengths_to_dict(traj.lengths)["lengths"],
        "samples": samples,
    }


def encoded(traj: MotionTrajectory) -> str:
    """The structured export through the JSON encoder."""
    return formats.dumps(formats.trajectory_to_dict(traj))


def parsed(text: str) -> MotionTrajectory:
    return formats.trajectory_from_dict(json.loads(text))
