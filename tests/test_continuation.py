import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphflex.continuation import (
    ConstraintSystem,
    GaugeFix,
    TraceConfig,
    cda_seed_realization,
    corank_and_tangent,
    default_gauge,
    empirical_map_degree,
    fiber_count,
    jacobian,
    newton_correct,
    re_gauge,
    residual_vector,
    trace,
)
from sphflex.errors import (
    RankDeficientError,
    SeedNotOnCurveError,
    UnderConstrainedError,
)
from sphflex.graphs import k22, k33, path_graph, triangle
from sphflex.motions import (
    Dixon1Params,
    cda_lengths,
    cda_motion,
    cda_params_from_e,
    dixon1_motion,
)
from sphflex.spherical import (
    LengthAssignment,
    SphericalRealization,
    apply_rotation,
    gram_matrix,
    max_edge_residual,
    random_rotation,
    random_unit_point,
)

RNG = np.random.default_rng(0)


def cda_seed():
    params = cda_params_from_e(0.75)
    traj = cda_motion(params, [8.0, 8.2])
    return traj.lengths, traj.samples[0].realization


def test_residual_layout_and_zero_on_curve():
    g = k33()
    lam, seed = cda_seed()
    gauge = GaugeFix(1, 2)
    x = re_gauge(seed, gauge).as_array(g.vertices)
    r = residual_vector(g, lam, x, gauge)
    assert r.shape == (6 + 9 + 3,)
    assert np.abs(r).max() <= 1e-12


def test_residual_perturbation_is_local():
    g = k33()
    lam, seed = cda_seed()
    gauge = GaugeFix(1, 2)
    x = re_gauge(seed, gauge).as_array(g.vertices)
    x2 = x.copy()
    x2[3 * 5] += 1e-3  # vertex 6's x coordinate
    r = residual_vector(g, lam, x2, gauge)
    touched = np.nonzero(np.abs(r) > 1e-9)[0]
    # sphere equation of vertex 6 plus its three edges, gauge untouched
    assert 5 in touched
    assert all(6 <= i < 15 or i == 5 for i in touched)


def test_jacobian_matches_finite_differences():
    g = k22()
    rng = np.random.default_rng(9)
    rho = SphericalRealization({v: random_unit_point(rng) for v in g.vertices})
    lam = LengthAssignment.induced(g, rho)
    gauge = GaugeFix(1, 2)
    x = re_gauge(rho, gauge).as_array(g.vertices)
    jac = jacobian(g, lam, x, gauge)
    eps = 1e-7
    for col in range(len(x)):
        bumped = x.copy()
        bumped[col] += eps
        fd = (residual_vector(g, lam, bumped, gauge) - residual_vector(g, lam, x, gauge)) / eps
        assert np.abs(fd - jac[:, col]).max() <= 1e-5


def test_corank_one_at_flexible_point():
    g = k33()
    lam, seed = cda_seed()
    gauge = GaugeFix(1, 2)
    x = re_gauge(seed, gauge).as_array(g.vertices)
    corank, _ = corank_and_tangent(jacobian(g, lam, x, gauge))
    assert corank == 1


def test_trace_reports_rigid_triangle():
    g = triangle()
    rng = np.random.default_rng(1)
    rho = SphericalRealization({v: random_unit_point(rng) for v in g.vertices})
    lam = LengthAssignment.induced(g, rho)
    with pytest.raises(RankDeficientError) as err:
        trace(g, lam, rho)
    assert err.value.corank == 0


def test_trace_rejects_bad_seed():
    g = k33()
    lam, seed = cda_seed()
    other = LengthAssignment(
        {e: min(0.9, v + 0.2) for e, v in lam.lengths.items()}
    )
    with pytest.raises(SeedNotOnCurveError):
        trace(g, other, seed, config=TraceConfig(max_newton_iters=8))


def test_trace_follows_cda_curve():
    g = k33()
    lam, seed = cda_seed()
    res = trace(g, lam, seed, config=TraceConfig(step_size=0.03, max_steps=300))
    assert res.trajectory.max_residual() <= 1e-9
    for s in res.trajectory.samples:
        assert abs(s.realization.point(5) @ s.realization.point(6) - 0.75) <= 1e-8


def test_trace_gauge_invariance():
    g = k33()
    lam, seed = cda_seed()
    rot = random_rotation(RNG)
    cfg = TraceConfig(step_size=0.03, max_steps=50)
    res1 = trace(g, lam, seed, config=cfg)
    res2 = trace(g, lam, apply_rotation(rot, seed), config=cfg)
    assert len(res1.trajectory.samples) == len(res2.trajectory.samples)
    for s1, s2 in zip(res1.trajectory.samples, res2.trajectory.samples):
        assert (
            np.abs(
                gram_matrix(s1.realization) - gram_matrix(s2.realization)
            ).max()
            <= 1e-7
        )


def test_trace_tangent_continuity():
    g = k33()
    lam, seed = cda_seed()
    gauge = GaugeFix(1, 2)
    res = trace(g, lam, seed, gauge=gauge, config=TraceConfig(step_size=0.03, max_steps=120))
    xs = [s.realization.as_array(g.vertices) for s in res.trajectory.samples]
    steps = [b - a for a, b in zip(xs, xs[1:])]
    for u, v in zip(steps, steps[1:]):
        assert float(u @ v) > 0.0


def test_dixon1_trace_keeps_odd_vertices_coplanar():
    params = Dixon1Params(c={1: 0.2, 3: 0.4, 5: 0.6}, d={2: 0.3, 4: 0.5, 6: 0.7})
    gen = dixon1_motion(params, [1.0, 1.05])
    res = trace(
        k33(),
        gen.lengths,
        gen.samples[0].realization,
        config=TraceConfig(step_size=0.05, max_steps=500),
    )
    for s in res.trajectory.samples:
        pts = np.stack([s.realization.point(v) for v in (1, 3, 5)])
        assert np.linalg.svd(pts)[1][-1] <= 1e-8


def test_dixon1_trace_closes_loop_and_has_degree_four():
    params = Dixon1Params(c={1: 0.2, 3: 0.4, 5: 0.6}, d={2: 0.3, 4: 0.5, 6: 0.7})
    gen = dixon1_motion(params, [1.0, 1.05])
    res = trace(
        k33(),
        gen.lengths,
        gen.samples[0].realization,
        config=TraceConfig(step_size=0.05, max_steps=4000),
    )
    assert res.closed
    assert empirical_map_degree(res.trajectory, {5, 6}) == 4
    assert empirical_map_degree(res.trajectory, set()) == 1


def test_empirical_degree_of_cda_fiber_pair():
    # antipoding the two diagonal poles together fixes the quadrilateral and
    # all nine lengths, giving the second point of each projection fiber
    params = cda_params_from_e(0.75)
    t_vals = list(np.linspace(7.5, 12.0, 60))
    traj = cda_motion(params, t_vals)
    mirrored = []
    for s in traj.samples:
        pts = {v: s.realization.point(v).copy() for v in range(1, 7)}
        pts[5] = -pts[5]
        pts[6] = -pts[6]
        mirrored.append(
            (s.parameter + 100.0, SphericalRealization(pts))
        )
    from sphflex.motions import make_trajectory

    frames = [(s.parameter, s.realization) for s in traj.samples] + mirrored
    combined = make_trajectory(traj.graph, traj.lengths, frames, "const_diag_angle")
    assert empirical_map_degree(combined, {5, 6}) == 2


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


def test_fiber_count_generic_tangent_empty():
    g = path_graph(3)  # vertex 2 adjacent to 1 and 3
    n1 = np.array([1.0, 0.0, 0.0])
    n2 = np.array([0.0, 1.0, 0.0])
    lam = LengthAssignment.from_deltas({(1, 2): 0.3, (2, 3): 0.4})
    assert fiber_count(g, lam, {1: n1, 3: n2}, 2) == 2
    # tangency: the two circles touch when the second delta sits at the
    # extreme value reachable on the first circle
    d1 = 0.3
    reach = math.sqrt(1 - d1 * d1)
    lam_t = LengthAssignment.from_deltas({(1, 2): d1, (2, 3): reach})
    assert fiber_count(g, lam_t, {1: n1, 3: n2}, 2) == 1
    lam_0 = LengthAssignment.from_deltas({(1, 2): d1, (2, 3): 0.99})
    assert fiber_count(g, lam_0, {1: n1, 3: n2}, 2) == 0


def test_fiber_count_underconstrained():
    g = path_graph(3)
    lam = LengthAssignment.from_deltas({(1, 2): 0.3, (2, 3): 0.4})
    with pytest.raises(UnderConstrainedError):
        fiber_count(g, lam, {1: np.array([1.0, 0.0, 0.0])}, 2)


def dense_circle_count(n1, n2, d1, d2):
    """Count solutions by scanning the first circle and watching sign
    changes of the second constraint."""
    r = math.sqrt(1.0 - d1 * d1)
    a = np.cross(n1, [1.0, 0.0, 0.0])
    if np.linalg.norm(a) < 1e-6:
        a = np.cross(n1, [0.0, 1.0, 0.0])
    a /= np.linalg.norm(a)
    b = np.cross(n1, a)
    th = np.linspace(0.0, 2.0 * np.pi, 20001)
    pts = d1 * n1[None, :] + r * (np.cos(th)[:, None] * a + np.sin(th)[:, None] * b)
    vals = pts @ n2 - d2
    return int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))


def test_fiber_count_against_dense_scan():
    g = path_graph(3)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n1, n2 = random_unit_point(rng), random_unit_point(rng)
        if abs(float(n1 @ n2)) > 0.999:
            continue
        d1 = float(rng.uniform(-0.95, 0.95))
        d2 = float(rng.uniform(-0.95, 0.95))
        lam = LengthAssignment.from_deltas({(1, 2): d1, (2, 3): d2})
        assert fiber_count(g, lam, {1: n1, 3: n2}, 2) == dense_circle_count(
            n1, n2, d1, d2
        )


def test_newton_correct_polishes_perturbed_point():
    g = k33()
    lam, seed = cda_seed()
    gauge = GaugeFix(1, 2)
    x = re_gauge(seed, gauge).as_array(g.vertices)
    noisy = x + 1e-4 * np.random.default_rng(3).normal(size=x.shape)
    fixed = newton_correct(ConstraintSystem(g, lam, gauge), noisy, 1e-12, 30)
    assert fixed is not None
    assert np.abs(residual_vector(g, lam, fixed, gauge)).max() <= 1e-12


def test_trace_config_validation():
    with pytest.raises(Exception):
        TraceConfig(step_size=-1.0)
    with pytest.raises(Exception):
        TraceConfig(newton_tol=1e-16)


def test_trace_samples_meet_newton_tol():
    g = k33()
    lam, seed = cda_seed()
    gauge = GaugeFix(1, 2)
    cfg = TraceConfig(step_size=0.03, max_steps=40, newton_tol=1e-12)
    res = trace(g, lam, seed, gauge=gauge, config=cfg)
    for s in res.trajectory.samples:
        x = s.realization.as_array(g.vertices)
        assert np.abs(residual_vector(g, lam, x, gauge)).max() <= cfg.newton_tol


# ---------------------------------------------------------------------------
# corank of a wide Jacobian
# ---------------------------------------------------------------------------


def test_corank_tangent_is_kernel_vector_on_wide_jacobian():
    # K(2,2) has 4 + 4 + 3 = 11 rows and 12 columns: a thin SVD would
    # return only 11 right singular vectors, none of them the kernel
    c1, c2 = 0.8, 0.5
    s1, s2 = math.sqrt(1 - c1 * c1), math.sqrt(1 - c2 * c2)
    rho = SphericalRealization(
        {
            1: np.array([s1, 0.0, c1]),
            2: np.array([0.0, s2, c2]),
            3: np.array([-s1, 0.0, c1]),
            4: np.array([0.0, -s2, c2]),
        }
    )
    g = k22()
    gauge = default_gauge(g)
    lam = LengthAssignment.induced(g, rho)
    jac = jacobian(g, lam, re_gauge(rho, gauge).as_array(g.vertices), gauge)
    assert jac.shape == (11, 12)
    corank, t = corank_and_tangent(jac)
    assert corank == 1
    assert np.linalg.norm(jac @ t) <= 1e-12


# ---------------------------------------------------------------------------
# gauge fixing
# ---------------------------------------------------------------------------

GAUGE_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def random_k33_realization(seed):
    rng = np.random.default_rng(seed)
    return rng, SphericalRealization({v: random_unit_point(rng) for v in k33().vertices})


def max_point_distance(r1, r2):
    return max(float(np.abs(r1.point(v) - r2.point(v)).max()) for v in r1.vertices)


@GAUGE_PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_re_gauge_is_idempotent(seed):
    _, rho = random_k33_realization(seed)
    gauge = GaugeFix(1, 2)
    once = re_gauge(rho, gauge)
    assert np.abs(once.point(1) - [1.0, 0.0, 0.0]).max() <= 1e-12
    assert abs(once.point(2)[2]) <= 1e-12 and once.point(2)[1] > 0
    assert max_point_distance(re_gauge(once, gauge), once) <= 1e-12


@GAUGE_PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_re_gauge_is_invariant_under_rotation(seed):
    rng, rho = random_k33_realization(seed)
    gauge = GaugeFix(1, 2)
    turned = apply_rotation(random_rotation(rng), rho)
    assert max_point_distance(re_gauge(turned, gauge), re_gauge(rho, gauge)) <= 1e-12


@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-8, 1e-11, 1e-14, 0.0])
def test_re_gauge_accurate_with_anchor_near_minus_x(gap):
    # 1 + anchor[0] = gap; a direct rotation to (1,0,0) loses accuracy as
    # 1/gap and pushed points off the sphere below about gap = 1e-4
    rng, rho = random_k33_realization(3)
    c = -1.0 + gap
    anchor = np.array([c, math.sqrt(1.0 - c * c), 0.0])
    pts = dict(rho.placement)
    pts[1] = anchor
    rho = SphericalRealization(pts)
    gauge = GaugeFix(1, 2)
    fixed = re_gauge(rho, gauge)
    assert np.abs(fixed.point(1) - [1.0, 0.0, 0.0]).max() <= 1e-12
    assert np.abs(gram_matrix(fixed) - gram_matrix(rho)).max() <= 1e-12
    turned = apply_rotation(random_rotation(rng), rho)
    assert max_point_distance(re_gauge(turned, gauge), fixed) <= 1e-12


@GAUGE_PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_sphere_and_edge_rows_invariant_under_rotation(seed):
    rng, rho = random_k33_realization(seed)
    g = k33()
    lam = LengthAssignment({e: rng.uniform(0.05, 0.95) for e in g.edges})
    system = ConstraintSystem(g, lam)
    before = system.residual(rho.as_array(g.vertices)).copy()
    after = system.residual(apply_rotation(random_rotation(rng), rho).as_array(g.vertices))
    assert len(before) == g.num_vertices + g.num_edges
    assert np.abs(after - before).max() <= 1e-12


# ---------------------------------------------------------------------------
# constant-diagonal-angle seeds off the reference pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("e", [0.6, -0.6, 0.74])
def test_cda_seed_realization_is_compatible(e):
    params = cda_params_from_e(e)
    rho = cda_seed_realization(params)
    assert max_edge_residual(k33(), rho, cda_lengths(params)) <= 1e-12
