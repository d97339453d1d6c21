import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphflex.continuation import (
    CORANK_REL_TOL,
    MIN_STEP,
    ConstraintSystem,
    TraceConfig,
    _all_finite,
    _cholesky,
    _corank,
    _full_rank_step,
    _solve,
    bordered_corank_and_tangent,
    corank_and_tangent,
    empirical_map_degree,
    _norm,
    _circle_intersections,
    jacobian,
    newton_correct,
    re_gauge,
    residual_vector,
    trace,
)
from sphflex.errors import RankDeficientError, SphflexError
from sphflex.graphs import build_graph, k22, k33, triangle
from sphflex.motions import cda_motion, make_trajectory
from sphflex.spherical import (
    ON_SPHERE_TOL,
    LengthAssignment,
    SphericalRealization,
    random_rotation,
    random_unit_point,
)

import stepping
from helpers import apply_rotation, gram_matrix, restrict_realization
from reference import (
    CDA,
    PINNED,
    cda_seed,
    dixon1_seed,
    induced,
    lozenge,
    pinned,
    prefix,
    recording,
    traced,
)

RNG = np.random.default_rng(0)


def test_residual_layout_and_zero_on_curve():
    g, lam, seed = cda_seed()
    x = re_gauge(seed, g).as_array(g.vertices)
    r = residual_vector(g, lam, x)
    assert r.shape == (6 + 9 + 3,)
    assert np.abs(r).max() <= 1e-12


def test_residual_perturbation_is_local():
    g, lam, seed = cda_seed()
    x = re_gauge(seed, g).as_array(g.vertices)
    x2 = x.copy()
    x2[3 * 5] += 1e-3  # vertex 6's x coordinate
    r = residual_vector(g, lam, x2)
    touched = np.nonzero(np.abs(r) > 1e-9)[0]
    # sphere equation of vertex 6 plus its three edges, gauge untouched
    assert 5 in touched
    assert all(6 <= i < 15 or i == 5 for i in touched)


def test_jacobian_matches_finite_differences():
    g = k22()
    rng = np.random.default_rng(9)
    rho = SphericalRealization({v: random_unit_point(rng) for v in g.vertices})
    lam = LengthAssignment.induced(g, rho)
    x = re_gauge(rho, g).as_array(g.vertices)
    jac = jacobian(g, lam, x)
    eps = 1e-7
    for col in range(len(x)):
        bumped = x.copy()
        bumped[col] += eps
        fd = (residual_vector(g, lam, bumped) - residual_vector(g, lam, x)) / eps
        assert np.abs(fd - jac[:, col]).max() <= 1e-5


def test_corank_one_at_flexible_point():
    g, lam, seed = cda_seed()
    x = re_gauge(seed, g).as_array(g.vertices)
    corank, _ = corank_and_tangent(jacobian(g, lam, x))
    assert corank == 1


def test_trace_reports_rigid_triangle():
    g = triangle()
    rng = np.random.default_rng(1)
    rho = SphericalRealization({v: random_unit_point(rng) for v in g.vertices})
    lam = LengthAssignment.induced(g, rho)
    with pytest.raises(RankDeficientError, match="^corank 0 at seed: framework is rigid$") as err:
        trace(g, lam, rho)
    assert err.value.corank == 0


def test_trace_rejects_bad_seed():
    g, lam, seed = cda_seed()
    other = LengthAssignment(
        {e: min(0.9, v + 0.2) for e, v in lam.lengths.items()}
    )
    with pytest.raises(SphflexError, match="^seed does not satisfy the constraints$"):
        trace(g, other, seed)


@pytest.mark.parametrize("vertices", [[1], []], ids=["one vertex", "empty"])
def test_trace_refuses_a_graph_without_edges(vertices):
    # the gauge's meridian is a neighbour of the anchor
    g = build_graph(vertices, [])
    seed = SphericalRealization({v: [1.0, 0.0, 0.0] for v in vertices})
    with pytest.raises(SphflexError, match="^the gauge needs an edge, and the graph has none$"):
        trace(g, LengthAssignment({}), seed)


def test_trace_names_missing_edge_length_and_seed_vertex():
    g, lam, seed = cda_seed()
    short = LengthAssignment({e: v for e, v in lam.lengths.items() if e != (5, 6)})
    with pytest.raises(SphflexError, match=r"no length for edge \(5, 6\)$"):
        trace(g, short, seed)
    with pytest.raises(SphflexError, match="does not place vertex 6$"):
        trace(g, lam, restrict_realization(seed, range(1, 6)))


def test_trace_follows_cda_curve():
    traj = prefix("cda", 300)
    assert traj.max_residual() <= 1e-9
    for s in traj.samples:
        assert abs(s.realization.point(5) @ s.realization.point(6) - 0.75) <= 1e-8


def test_trace_gauge_invariance():
    g, lam, seed = cda_seed()
    rot = random_rotation(RNG)
    traj1 = prefix("cda", 50)
    res2 = trace(g, lam, apply_rotation(rot, seed), config=TraceConfig(step_size=0.03, max_steps=50))
    assert len(traj1.samples) == len(res2.trajectory.samples)
    for s1, s2 in zip(traj1.samples, res2.trajectory.samples):
        assert (
            np.abs(
                gram_matrix(s1.realization) - gram_matrix(s2.realization)
            ).max()
            <= 1e-7
        )


def test_trace_tangent_continuity():
    traj = prefix("cda", 120)
    xs = [s.realization.as_array(traj.graph.vertices) for s in traj.samples]
    steps = [b - a for a, b in zip(xs, xs[1:])]
    for u, v in zip(steps, steps[1:]):
        assert float(u @ v) > 0.0


def test_dixon1_trace_keeps_odd_vertices_coplanar():
    for s in pinned("dixon1-K(3,3)").result.trajectory.samples:
        pts = np.stack([s.realization.point(v) for v in (1, 3, 5)])
        assert np.linalg.svd(pts)[1][-1] <= 1e-8


def test_dixon1_trace_closes_loop_and_has_degree_four():
    res = pinned("dixon1-K(3,3)").result
    assert res.closed
    assert empirical_map_degree(res.trajectory, {5, 6}) == 4
    assert empirical_map_degree(res.trajectory, set()) == 1


def test_dixon1_trace_closes_loop_at_large_steps():
    # the loop never gets 3 steps of 1.0 away from its seed
    res = trace(*dixon1_seed(3, 3), config=TraceConfig(step_size=1.0, max_steps=200))
    assert res.stop_reason == "loop_closed"


def test_empirical_degree_of_cda_fiber_pair():
    # antipoding the two diagonal poles together fixes the quadrilateral and
    # all nine lengths, giving the second point of each projection fiber
    t_vals = list(np.linspace(7.5, 12.0, 60))
    traj = cda_motion(CDA, t_vals)
    mirrored = []
    for t, rho in zip(traj.parameters.tolist(), traj.realizations()):
        pts = {v: rho.point(v).copy() for v in range(1, 7)}
        pts[5] = -pts[5]
        pts[6] = -pts[6]
        mirrored.append(
            (t + 100.0, SphericalRealization(pts))
        )
    frames = list(zip(traj.parameters.tolist(), traj.realizations())) + mirrored
    combined = make_trajectory(traj.graph, traj.lengths, frames, "const_diag_angle")
    assert empirical_map_degree(combined, {5, 6}) == 2


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


def fiber_count(n1, n2, d1, d2, tol=1e-9):
    """Number of unit vectors x with x . n1 = d1 and x . n2 = d2."""
    return int(_circle_intersections(n1, n2, d1, d2, tol)[1].sum())


def test_fiber_count_generic_tangent_empty():
    n1 = np.array([1.0, 0.0, 0.0])
    n2 = np.array([0.0, 1.0, 0.0])
    assert fiber_count(n1, n2, 0.3, 0.4) == 2
    # tangency: the two circles touch when the second delta sits at the
    # extreme value reachable on the first circle
    d1 = 0.3
    reach = math.sqrt(1 - d1 * d1)
    assert fiber_count(n1, n2, d1, reach) == 1
    assert fiber_count(n1, n2, d1, 0.99) == 0


@pytest.mark.parametrize(
    "d1, d2, tol",
    [
        # 1 - |x0|^2 = 0.5 = +tol: a tangency, not two points
        (0.5, 0.5, 0.5),
        # 1 - |x0|^2 = -0.25 = -tol: still a tangency, not none
        (1.0, 0.5, 0.25),
    ],
    ids=["at +tol", "at -tol"],
)
def test_fiber_count_at_the_tolerance_is_a_tangency(d1, d2, tol):
    # every value here is exact in binary, so 1 - |x0|^2 lands on the bound
    e_x, e_y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    assert fiber_count(e_x, e_y, d1, d2, tol) == 1


def test_fiber_count_underconstrained():
    # parallel centers confine x to one circle, not to points
    n1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(SphflexError, match="^placed neighbors span less than a plane$"):
        fiber_count(n1, -n1, 0.3, -0.3)


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
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n1, n2 = random_unit_point(rng), random_unit_point(rng)
        if abs(float(n1 @ n2)) > 0.999:
            continue
        d1 = float(rng.uniform(-0.95, 0.95))
        d2 = float(rng.uniform(-0.95, 0.95))
        assert fiber_count(n1, n2, d1, d2) == dense_circle_count(n1, n2, d1, d2)


def test_newton_correct_polishes_perturbed_point():
    g, lam, seed = cda_seed()
    x = re_gauge(seed, g).as_array(g.vertices)
    noisy = x + 1e-4 * np.random.default_rng(3).normal(size=x.shape)
    fixed = newton_correct(ConstraintSystem(g, lam), noisy, 1e-12)
    assert fixed is not None
    assert np.abs(residual_vector(g, lam, fixed)).max() <= 1e-12


def test_trace_config_validation():
    positive = "^trace configuration step_size must be finite and positive, got -1.0$"
    with pytest.raises(SphflexError, match=positive):
        TraceConfig(step_size=-1.0)
    with pytest.raises(SphflexError, match="^newton_tol below 1e-13 is not resolvable$"):
        TraceConfig(newton_tol=1e-16)


@pytest.mark.parametrize("tol", [1e-11, 1e-10, 1e-9])
def test_trace_config_rejects_newton_tol_above_on_sphere_tol(tol):
    # Newton stops at newton_tol, but every traced point must be on the
    # sphere within ON_SPHERE_TOL
    assert TraceConfig(newton_tol=ON_SPHERE_TOL).newton_tol == ON_SPHERE_TOL
    with pytest.raises(SphflexError, match="newton_tol above 1e-12"):
        TraceConfig(newton_tol=tol)


def test_trace_samples_meet_newton_tol():
    # the pinned loops are traced at the default newton_tol
    traj = prefix("cda", 40)
    g, lam = traj.graph, traj.lengths
    for s in traj.samples:
        x = s.realization.as_array(g.vertices)
        assert np.abs(residual_vector(g, lam, x)).max() <= TraceConfig().newton_tol


# ---------------------------------------------------------------------------
# corank of a wide Jacobian
# ---------------------------------------------------------------------------


def test_corank_tangent_is_kernel_vector_on_wide_jacobian():
    # K(2,2) has 4 + 4 + 3 = 11 rows and 12 columns: a thin SVD would
    # return only 11 right singular vectors, none of them the kernel
    jac = lozenge_jacobian()
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
    g = k33()
    once = re_gauge(rho, g)
    assert np.abs(once.point(1) - [1.0, 0.0, 0.0]).max() <= 1e-12
    assert abs(once.point(2)[2]) <= 1e-12 and once.point(2)[1] > 0
    assert max_point_distance(re_gauge(once, g), once) <= 1e-12


@GAUGE_PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_re_gauge_is_invariant_under_rotation(seed):
    rng, rho = random_k33_realization(seed)
    g = k33()
    turned = apply_rotation(random_rotation(rng), rho)
    assert max_point_distance(re_gauge(turned, g), re_gauge(rho, g)) <= 1e-12


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
    g = k33()
    fixed = re_gauge(rho, g)
    assert np.abs(fixed.point(1) - [1.0, 0.0, 0.0]).max() <= 1e-12
    assert np.abs(gram_matrix(fixed) - gram_matrix(rho)).max() <= 1e-12
    turned = apply_rotation(random_rotation(rng), rho)
    assert max_point_distance(re_gauge(turned, g), fixed) <= 1e-12


@GAUGE_PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_sphere_and_edge_rows_invariant_under_rotation(seed):
    rng, rho = random_k33_realization(seed)
    g = k33()
    lam = LengthAssignment({e: rng.uniform(0.05, 0.95) for e in g.edges})
    system = ConstraintSystem(g, lam)
    k = g.num_vertices + g.num_edges
    before = system.residual(rho.as_array(g.vertices))[:k].copy()
    after = system.residual(apply_rotation(random_rotation(rng), rho).as_array(g.vertices))
    assert np.abs(after[:k] - before).max() <= 1e-12


# ---------------------------------------------------------------------------
# bordered solves against lstsq and the full SVD
# ---------------------------------------------------------------------------


def full_rank_step_from_zero(a, r):
    """``_full_rank_step`` from x = 0 with its own buffers: minus the
    least-squares solution of ``a s = r``."""
    cols = a.shape[1]
    return _full_rank_step(np.zeros(cols), a, r, np.empty((cols, cols)), np.empty(cols))


def bordered_system(seed, n, extra_rows, singular_values):
    """[J; t^T] with J of corank 1 (kernel v) and unit t with t . v >= 0.89,
    as at an accepted trace point."""
    rng = np.random.default_rng(seed)
    m = n - 1 + extra_rows
    u, _ = np.linalg.qr(rng.normal(size=(m, n - 1)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    jac = (u * singular_values) @ v[:, :-1].T
    tilt = v[:, :-1] @ rng.normal(size=n - 1)
    t = v[:, -1] + 0.5 * rng.uniform() * tilt / np.linalg.norm(tilt)
    return np.vstack([jac, t / np.linalg.norm(t)]), rng


@GAUGE_PROPERTY
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 36),
    st.integers(0, 24),
    st.floats(1.0, 40.0),
)
def test_normal_equation_solve_matches_lstsq(seed, n, extra_rows, spread):
    # spread 40 covers the bordered matrices traced by the benchmark, whose
    # condition numbers reach about 41
    svals = np.geomspace(1.0, spread, n - 1)
    bordered, rng = bordered_system(seed, n, extra_rows, svals)
    e_last = np.zeros(len(bordered))
    e_last[-1] = 1.0
    residual = rng.normal(size=len(bordered)) * 10.0 ** rng.uniform(-12, 0)
    for rhs in (residual, e_last):
        want = np.linalg.lstsq(bordered, rhs, rcond=None)[0]
        got = -full_rank_step_from_zero(bordered, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def constructed_jacobian(seed, rows, cols, smallest):
    """Random rows x cols matrix whose trailing singular values are
    ``smallest`` and whose others lie in [1, 10]."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.normal(size=(rows, k)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, k)))
    svals = rng.uniform(1.0, 10.0, k)
    svals[k - len(smallest) :] = smallest
    return (u * svals) @ v.T, rng


def lozenge_jacobian():
    g, lam, rho = induced(k22(), lozenge())
    return jacobian(g, lam, re_gauge(rho, g).as_array(g.vertices))


def near(t, rng, tilt=0.3):
    """A unit vector at a small angle to t."""
    d = t + tilt * rng.normal(size=t.size) / math.sqrt(t.size)
    return d / np.linalg.norm(d)


@pytest.mark.parametrize(
    "name, jac_rng, corank",
    [
        # smallest singular value 1e-6, above the 1e-7 cutoff
        ("corank 0", constructed_jacobian(1, 18, 18, [1e-6]), 0),
        ("corank 1, square", constructed_jacobian(2, 18, 18, [0.0]), 1),
        ("corank 1, tall", constructed_jacobian(3, 52, 36, [0.0]), 1),
        ("corank 1, wide", constructed_jacobian(4, 11, 12, []), 1),
        ("K(2,2) lozenge", (lozenge_jacobian(), np.random.default_rng(5)), 1),
        ("corank 2", constructed_jacobian(6, 28, 24, [0.0, 0.0]), 2),
    ],
)
def test_bordered_corank_and_tangent_match_full_svd(name, jac_rng, corank):
    jac, rng = jac_rng
    want_corank, want = corank_and_tangent(jac)
    assert want_corank == corank
    t_prev = near(want, rng)
    # outside trace, a failed factorization warns
    with np.errstate(all="ignore"):
        got_corank, got = bordered_corank_and_tangent(np.vstack([jac, t_prev]))
    assert got_corank == want_corank
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-14
    assert float(got @ t_prev) > 0.0
    if corank <= 1:
        assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= 1e-10
    else:
        # a plane of kernel directions: the tangent is one of them
        assert np.linalg.norm(jac @ got) <= 1e-10


def counted(monkeypatch, name):
    """The matrices that ``np.linalg.<name>`` is given from here on."""
    calls = []
    monkeypatch.setattr(np.linalg, name, recording(calls, getattr(np.linalg, name)))
    return calls


def test_singular_bordered_matrix_falls_back_to_lstsq(monkeypatch):
    # the kernel of J is e_0 and t_prev = e_1 is orthogonal to it, so the
    # bordered matrix has a zero column and its normal matrix is singular
    jac, _ = constructed_jacobian(7, 18, 17, [])
    jac = np.hstack([np.zeros((18, 1)), jac])
    t_prev = np.eye(18)[1]
    bordered = np.vstack([jac, t_prev])
    e_last = np.eye(19)[-1]
    want = np.linalg.lstsq(bordered, e_last, rcond=None)[0]
    calls = counted(monkeypatch, "lstsq")
    with np.errstate(all="ignore"):
        corank, t = bordered_corank_and_tangent(bordered)
    assert len(calls) == 1
    assert corank == 1
    assert np.array_equal(t, want / np.linalg.norm(want))


def test_non_finite_normal_solution_falls_back_to_lstsq(monkeypatch):
    # a^T a overflows, so the normal equations give NaN
    rng = np.random.default_rng(9)
    a, b = 1e200 * rng.normal(size=(7, 5)), rng.normal(size=7)
    calls = counted(monkeypatch, "lstsq")
    with np.errstate(over="ignore", invalid="ignore"):
        got = full_rank_step_from_zero(a, -b)
    assert len(calls) == 1
    assert np.array_equal(got, np.linalg.lstsq(a, b, rcond=None)[0])


def test_bordered_tangent_orthogonal_to_kernel_does_not_raise():
    jac = lozenge_jacobian()
    _, kernel = corank_and_tangent(jac)
    t_prev = np.linalg.svd(jac)[2][0]
    assert abs(float(t_prev @ kernel)) <= 1e-12
    corank, t = bordered_corank_and_tangent(np.vstack([jac, t_prev]))
    assert corank == 1
    assert np.all(np.isfinite(t)) and abs(np.linalg.norm(t) - 1.0) <= 1e-12


def test_solves_without_arc_row_use_minimum_norm_step(monkeypatch):
    g, lam, seed = cda_seed()
    system = ConstraintSystem(g, lam)
    x = re_gauge(seed, g).as_array(g.vertices) + 1e-6
    calls = counted(monkeypatch, "lstsq")
    plain = newton_correct(system, x, 1e-12)
    assert plain is not None and calls
    calls.clear()
    _, t = corank_and_tangent(system.jacobian(plain))
    arc = newton_correct(system, plain + 0.01 * t, 1e-12, arc_constraint=(plain, t, 0.01))
    assert arc is not None and not calls
    assert abs(float((arc - plain) @ t) - 0.01) <= 1e-12


# ---------------------------------------------------------------------------
# traced paths pinned: a solver change must not lengthen or cut a trace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", PINNED)
def test_traced_loops_keep_their_step_counts(name):
    res = pinned(name).result
    assert (res.steps, res.stop_reason, res.closed) == (PINNED[name].steps, "loop_closed", True)
    assert res.trajectory.max_residual() <= 1e-12


# ---------------------------------------------------------------------------
# corank certified from the bordered normal matrix, against the SVD rule
# ---------------------------------------------------------------------------


def svd_rule_corank(jac):
    return _corank(np.linalg.svd(jac, compute_uv=False), jac.shape[1])


def test_singular_value_at_the_cutoff_is_not_counted():
    # the cutoff is max(s_max, 1) * CORANK_REL_TOL, and only values below it count
    assert _corank(np.array([1.0, CORANK_REL_TOL]), 2) == 0
    assert _corank(np.array([1.0, np.nextafter(CORANK_REL_TOL, 0.0)]), 2) == 1


@pytest.mark.parametrize("name", PINNED)
def test_certified_corank_equals_svd_rule_along_pinned_traces(name):
    # every point the corrector reaches, accepted or not, is recorded with
    # the corank the trace saw there
    record = pinned(name)
    assert record.result.stop_reason == "loop_closed"
    # only the seed took an SVD: every corank along the loop was certified
    assert len(record.svds) == 1
    assert len(record.certificates) >= record.result.steps
    assert [corank for _, corank, _ in record.certificates] == [
        svd_rule_corank(b[:-1]) for b, _, _ in record.certificates
    ]


CUTOFF_SMALLEST = [0.3e-7, 1e-7, 3e-7]
CUTOFF_SECOND = [0.5, 2.0, 20.0]


def cutoff_case(second, smallest):
    """A 20x12 J with its two smallest singular values at the given
    multiples of the cutoff, and a previous tangent near its kernel."""
    # the largest singular value is 1, so the rule's cutoff is CORANK_REL_TOL
    # itself; |J|_F^2 = 1.36 puts the Cholesky test's bound on the second
    # smallest singular value at 11.7 times the cutoff, between 2x and 20x
    rng = np.random.default_rng(17)
    rows, cols = 20, 12
    svals = np.array([1.0] + [0.2] * (cols - 3) + [second * CORANK_REL_TOL, smallest])
    u, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    jac = (u * svals) @ v.T
    return jac, near(v[:, -1], rng, tilt=0.1)


@pytest.mark.parametrize("smallest", CUTOFF_SMALLEST)
@pytest.mark.parametrize("second", CUTOFF_SECOND)
def test_certificate_near_the_cutoffs_gives_the_svd_rule(monkeypatch, second, smallest):
    jac, t_prev = cutoff_case(second, smallest)
    want = svd_rule_corank(jac)
    calls = counted(monkeypatch, "svd")
    with np.errstate(all="ignore"):
        got, t = bordered_corank_and_tangent(np.vstack([jac, t_prev]))
    assert got == want
    assert float(t @ t_prev) > 0.0
    # only a second singular value far above the cutoff and a smallest one
    # below half of it are decided without the SVD
    decided = second == 20.0 and smallest == 0.3e-7
    assert len(calls) == (0 if decided else 1)
    if decided:
        assert want == 1


def test_regular_trace_takes_an_svd_only_at_the_seed():
    record = pinned("dixon1-K(3,3)")
    g = record.result.trajectory.graph
    assert (record.result.steps, record.result.stop_reason) == (154, "loop_closed")
    assert [a.shape for a in record.svds] == [(g.num_vertices + g.num_edges + 3, 3 * g.num_vertices)]


@pytest.mark.parametrize(
    "jac_rng, corank",
    [
        (constructed_jacobian(1, 18, 18, [1e-6]), 0),
        (constructed_jacobian(6, 28, 24, [0.0, 0.0]), 2),
    ],
    ids=["corank 0", "corank 2"],
)
def test_corank_other_than_one_takes_one_svd(monkeypatch, jac_rng, corank):
    jac, rng = jac_rng
    _, kernel = corank_and_tangent(jac)
    bordered = np.vstack([jac, near(kernel, rng)])
    calls = counted(monkeypatch, "svd")
    with np.errstate(all="ignore"):
        assert bordered_corank_and_tangent(bordered)[0] == corank
    assert [a.shape for a in calls] == [jac.shape]


@pytest.mark.parametrize(
    "field, value",
    [
        ("step_size", 0.0),
        ("step_size", -1.0),
        ("step_size", math.nan),
        ("step_size", math.inf),
        ("newton_tol", math.nan),
        ("max_steps", 0),
    ],
)
def test_trace_config_names_the_bad_field(field, value):
    with pytest.raises(SphflexError, match=f"trace configuration {field} must be finite"):
        TraceConfig(**{field: value})


def test_trace_config_rejects_min_step_above_step_size():
    assert TraceConfig(step_size=MIN_STEP).step_size == MIN_STEP
    with pytest.raises(SphflexError, match="step_size must be at least 1e-07, got 5e-08"):
        TraceConfig(step_size=0.5 * MIN_STEP)


# ---------------------------------------------------------------------------
# every stop reason of a trace, and the seeds it refuses
# ---------------------------------------------------------------------------


def test_trace_stops_at_max_steps():
    # max_steps only bounds the loop of steps: a capped trace is the first
    # steps of the whole one, as reference.prefix takes it
    for name in ("dixon1-K(3,3)", "cda"):
        loop = PINNED[name]
        res = trace(*loop.seed(), config=TraceConfig(step_size=loop.step, max_steps=10))
        assert (res.stop_reason, res.steps, res.closed) == ("max_steps", 10, False)
        assert len(res.trajectory.points) == 11
        want = prefix(name, 10)
        assert same_bits(res.trajectory.points, want.points)
        assert same_bits(res.trajectory.parameters, want.parameters)


def test_trace_takes_a_step_of_exactly_min_step():
    # the step halving tries every h >= MIN_STEP, the bound included
    g, lam, rho = dixon1_seed(3, 3)
    res = trace(g, lam, rho, config=TraceConfig(step_size=MIN_STEP, max_steps=1))
    assert (res.stop_reason, res.steps) == ("max_steps", 1)
    assert res.trajectory.parameters.tolist() == [0.0, MIN_STEP]


def test_trace_without_a_first_step_raises(monkeypatch):
    # a step too long to converge, and no shorter one tried
    monkeypatch.setattr("sphflex.continuation.MIN_STEP", 3.0)
    g, lam, rho = dixon1_seed(3, 3)
    with pytest.raises(SphflexError, match="^no step succeeded from the seed$"):
        trace(g, lam, rho, config=TraceConfig(step_size=3.0))


def test_trace_stops_at_a_singular_point(monkeypatch):
    calls = []

    def corank_two_on_sixth_call(bordered):
        corank, t = bordered_corank_and_tangent(bordered)
        calls.append(corank)
        return (2 if len(calls) == 6 else corank), t

    monkeypatch.setattr(
        "sphflex.continuation.bordered_corank_and_tangent", corank_two_on_sixth_call
    )
    g, lam, rho = dixon1_seed(3, 3)
    res = trace(g, lam, rho, config=TraceConfig(step_size=0.05))
    assert (res.stop_reason, res.steps, res.closed) == ("singular_point", 5, False)
    assert len(calls) == 6


def test_trace_stops_when_no_step_size_succeeds(monkeypatch):
    arc_steps = []

    def failing_after_five_steps(system, coords, tol, arc_constraint=None):
        if arc_constraint is not None and arc_constraint[2] > 0.0:
            arc_steps.append(arc_constraint[2])
            if len(arc_steps) > 5:
                return None
        return newton_correct(system, coords, tol, arc_constraint)

    monkeypatch.setattr("sphflex.continuation.newton_correct", failing_after_five_steps)
    g, lam, rho = dixon1_seed(3, 3)
    config = TraceConfig(step_size=0.05)
    res = trace(g, lam, rho, config=config)
    assert (res.stop_reason, res.steps, res.closed) == ("step_failure", 5, False)
    # the sixth step halved down past MIN_STEP before giving up
    assert min(arc_steps[5:]) < 2 * MIN_STEP


def test_trace_lets_no_warning_of_an_overflowing_step_escape(monkeypatch):
    # one solve returns a step whose square overflows: the corrector rejects
    # the point it leads to, the step is halved and the loop still closes,
    # without a RuntimeWarning from the arithmetic on the way
    calls = []

    def overflowing_on_the_40th_call(a, b):
        calls.append(None)
        return np.full_like(b, -1e200) if len(calls) == 40 else _solve(a, b)

    monkeypatch.setattr("sphflex.continuation._solve", overflowing_on_the_40th_call)
    g, lam, rho = dixon1_seed(3, 3)
    res = trace(g, lam, rho, config=TraceConfig(step_size=0.05, max_steps=4000))
    assert len(calls) > 40
    assert (res.stop_reason, res.steps) == ("loop_closed", 155)


def test_trace_rejects_corank_two_seed():
    rho = SphericalRealization(
        {
            1: np.array([1.0, 0.0, 0.0]),
            2: np.array([0.0, 1.0, 0.0]),
            3: np.array([-1.0, 0.0, 0.0]),
            4: np.array([0.0, -1.0, 0.0]),
        }
    )
    lam = LengthAssignment.induced(k22(), rho)
    with pytest.raises(RankDeficientError, match="^corank 2 at seed: not a curve point$") as err:
        trace(k22(), lam, rho)
    assert err.value.corank == 2


# ---------------------------------------------------------------------------
# the corrector and certificate against their oracle in stepping.py, bit
# for bit: the step was trimmed of numpy dispatches, not of arithmetic
# ---------------------------------------------------------------------------

STEP_PROPERTY = settings(derandomize=True, max_examples=12, deadline=None, database=None)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_records_equal(got, want):
    """Two records of ``reference.traced`` took the same steps, certificates
    and factorizations, bit for bit."""
    if isinstance(want.result, tuple):
        assert got.result == want.result
    else:
        assert got.result.stop_reason == want.result.stop_reason
        assert same_bits(got.result.trajectory.points, want.result.trajectory.points)
        assert same_bits(got.result.trajectory.parameters, want.result.trajectory.parameters)
    assert len(got.certificates) == len(want.certificates)
    for (_, got_corank, got_t), (_, want_corank, want_t) in zip(got.certificates, want.certificates):
        assert got_corank == want_corank
        assert same_bits(got_t, want_t)
    assert len(got.factored) == len(want.factored)
    assert all(map(same_bits, got.factored, want.factored))


@pytest.mark.parametrize("name", PINNED)
def test_pinned_traces_equal_the_oracle_step(name):
    assert_records_equal(pinned(name), pinned(name, oracle=True))


@STEP_PROPERTY
@given(st.integers(3, 5), st.integers(3, 5), st.integers(0, 2**32 - 1))
def test_random_dixon1_traces_equal_the_oracle_step(m, n, seed):
    m, n = sorted((m, n))
    rng = np.random.default_rng(seed)
    slopes_odd, slopes_even = rng.uniform(0.15, 0.75, m), rng.uniform(0.15, 0.75, n)
    g, lam, rho = dixon1_seed(m, n, slopes_odd, slopes_even)
    rot = random_rotation(rng)
    seed = g, lam, SphericalRealization({v: rot.apply(p) for v, p in rho.placement.items()})
    assert_records_equal(traced(seed, 0.05, 400), traced(seed, 0.05, 400, oracle=True))


def certificate_cases():
    """The bordered matrices of the certificate tests above, rebuilt."""
    cases = []
    for seed, rows, cols, smallest in [
        (1, 18, 18, [1e-6]),
        (2, 18, 18, [0.0]),
        (3, 52, 36, [0.0]),
        (4, 11, 12, []),
        (6, 28, 24, [0.0, 0.0]),
    ]:
        jac, rng = constructed_jacobian(seed, rows, cols, smallest)
        cases.append(np.vstack([jac, near(corank_and_tangent(jac)[1], rng)]))
    lozenge = lozenge_jacobian()
    kernel = corank_and_tangent(lozenge)[1]
    cases.append(np.vstack([lozenge, near(kernel, np.random.default_rng(5))]))
    # t_prev orthogonal to the kernel
    cases.append(np.vstack([lozenge, np.linalg.svd(lozenge)[2][0]]))
    # a zero column: the normal matrix is singular and lstsq answers
    jac, _ = constructed_jacobian(7, 18, 17, [])
    cases.append(np.vstack([np.hstack([np.zeros((18, 1)), jac]), np.eye(18)[1]]))
    for second in CUTOFF_SECOND:
        for smallest in CUTOFF_SMALLEST:
            cases.append(np.vstack(cutoff_case(second, smallest)))
    return cases


def kernel_matrices():
    """Normal matrices: positive definite, indefinite, singular and not
    finite ones, and the normal matrix of every certificate case with and
    without the certificate's shift."""
    rng = np.random.default_rng(21)
    a = rng.normal(size=(30, 12))
    spd = a.T @ a
    thin = rng.normal(size=(3, 6))
    cases = {
        "positive definite": spd,
        "indefinite": spd - 2.0 * np.diag(np.diag(spd)),
        "zero": np.zeros((4, 4)),
        "rank 3": thin.T @ thin,
        "zero column": a[:, 1:].T @ np.hstack([np.zeros((30, 1)), a[:, 2:]]),
    }
    with np.errstate(over="ignore"):
        cases["overflowed"] = (1e200 * a).T @ (1e200 * a)
    for name, (i, j, value) in {
        "NaN entry": (3, 5, math.nan),
        "NaN diagonal": (0, 0, math.nan),
        "infinite diagonal": (0, 0, math.inf),
        "infinite last diagonal": (11, 11, math.inf),
        "infinite off the diagonal": (2, 7, math.inf),
    }.items():
        cases[name] = spd.copy()
        cases[name][i, j] = cases[name][j, i] = value
    for k, bordered in enumerate(certificate_cases()):
        normal = bordered.T @ bordered
        shift = 100.0 * (max(np.linalg.norm(bordered[:-1]), 1.0) * CORANK_REL_TOL) ** 2
        cases[f"certificate {k}"] = normal
        cases[f"certificate {k}, shifted"] = normal - shift * np.eye(len(normal))
    return [pytest.param(m, id=name) for name, m in cases.items()]


def linalg_or_none(f, *args):
    try:
        return f(*args)
    except np.linalg.LinAlgError:
        return None


@pytest.mark.parametrize("normal", kernel_matrices())
def test_lapack_kernels_equal_numpy_linalg(normal):
    # the gufuncs return numpy.linalg's bits, and NaN where it raises (with
    # a warning, silenced here as trace silences it)
    rhs = np.linspace(-1.0, 2.0, len(normal))
    want = linalg_or_none(np.linalg.solve, normal, rhs)
    with np.errstate(all="ignore"):
        got = _solve(normal, rhs)
    assert np.isnan(got).all() if want is None else same_bits(got, want)
    want = linalg_or_none(np.linalg.cholesky, normal)
    with np.errstate(all="ignore"):
        got = _cholesky(normal)
    # a failed factorization is all NaN, a factor is zero above the diagonal
    assert math.isnan(got[0, -1]) == (want is None)
    assert np.isnan(got).all() if want is None else same_bits(got, want)


@pytest.mark.parametrize("bordered", certificate_cases())
def test_certificate_equals_the_oracle(monkeypatch, bordered):
    # the normal and shifted matrices are factored, not returned: record
    # what each side solves with and factors
    solved, factored = [], []
    monkeypatch.setattr("sphflex.continuation._solve", recording(solved, _solve))
    monkeypatch.setattr("sphflex.continuation._cholesky", recording(factored, _cholesky))
    with np.errstate(all="ignore"):
        got_corank, got = bordered_corank_and_tangent(bordered)
    monkeypatch.setattr(np.linalg, "solve", recording(solved, np.linalg.solve))
    monkeypatch.setattr(np.linalg, "cholesky", recording(factored, np.linalg.cholesky))
    want_corank, want = stepping.bordered_corank_and_tangent(bordered)
    assert got_corank == want_corank
    assert same_bits(got, want)
    assert len(solved) == 2 and same_bits(*solved)
    assert len(factored) in (0, 2)
    if factored:
        assert same_bits(*factored)


def test_certificate_cases_reach_every_branch(monkeypatch):
    # corank 0, 1 and 2, and the lstsq and SVD fallbacks
    lstsq_calls, svd_calls = counted(monkeypatch, "lstsq"), counted(monkeypatch, "svd")
    coranks = set()
    with np.errstate(all="ignore"):
        for bordered in certificate_cases():
            coranks.add(bordered_corank_and_tangent(bordered)[0])
    assert coranks == {0, 1, 2}
    assert len(lstsq_calls) == 1 and svd_calls


@GAUGE_PROPERTY
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 36),
    st.integers(0, 24),
    st.floats(1.0, 40.0),
)
def test_full_rank_solve_equals_the_oracle(seed, n, extra_rows, spread):
    # x - s with a s = r against the oracle's x + s' with a s' = -r; from
    # x = 0 that compares every bit of s, from a random x the step itself
    bordered, rng = bordered_system(seed, n, extra_rows, np.geomspace(1.0, spread, n - 1))
    r = rng.normal(size=len(bordered)) * 10.0 ** rng.uniform(-12, 0)
    for x in (np.zeros(n), rng.normal(size=n)):
        got = _full_rank_step(x, bordered, r, np.empty((n, n)), np.empty(n))
        assert same_bits(got, x + stepping.full_rank_lstsq(bordered, -r))


@pytest.mark.parametrize(
    "v",
    [
        np.array([0.5, -2.0, 3.0]),
        np.array([1e200, -1e200, 1.0]),  # finite, but v . v overflows
        np.array([1.0, np.nan, 2.0]),
        np.array([np.inf, 0.0]),
        np.array([-np.inf]),
        np.zeros(4),
    ],
)
def test_all_finite_equals_isfinite_all(v):
    with np.errstate(over="ignore"):
        assert _all_finite(v) is bool(np.isfinite(v).all())


@GAUGE_PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 40))
def test_norm_equals_numpy_norm(seed, rows, cols):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-150, 150)
    assert same_bits(_norm(mat[0]), float(np.linalg.norm(mat[0])))
    assert same_bits(_norm(mat.ravel("K")), float(np.linalg.norm(mat)))
    assert same_bits(_norm(mat[1:].ravel("K")), float(np.linalg.norm(mat[1:])))


@pytest.mark.parametrize("arc", [False, True])
def test_newton_correct_equals_the_oracle(arc):
    g, lam, seed = cda_seed()
    system = ConstraintSystem(g, lam)
    x = re_gauge(seed, g).as_array(g.vertices)
    _, t = corank_and_tangent(system.jacobian(x))
    rng = np.random.default_rng(11)
    for scale in (1e-8, 1e-4, 1e-2, 0.3):
        start = x + scale * rng.normal(size=x.size)
        args = (start, 1e-12, (x, t, 0.01) if arc else None)
        got = newton_correct(system, *args)
        want = stepping.newton_correct(system, *args)
        assert (got is None) == (want is None)
        if got is not None:
            assert same_bits(got, want)
