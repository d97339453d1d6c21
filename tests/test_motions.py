import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sphflex.coloring import EdgeColoring
from sphflex.errors import SphflexError
from sphflex.graphs import apex_double_triangle, k33
from sphflex.motions import (
    KIND_CDA,
    KIND_DIXON1,
    KIND_DIXON2,
    CdaParams,
    Dixon1Params,
    Dixon2Params,
    cda_lengths,
    cda_motion,
    cda_params_from_e,
    detect_k33_motion_kind,
    dixon1_motion,
    dixon2_motion,
    polar_nap_motion,
)
from sphflex.quads import EVEN_DELTOID, GENERAL, QuadLengths, classify
from sphflex.spherical import degenerate_pairs, essentially_distinct

from helpers import dixon2_involutions, gram_matrix
from reference import CDA, DIXON1, DIXON2
from trajectories import cda_feasible_intervals_by_points

ANGLES = list(np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False))


# ---------------------------------------------------------------------------
# pole motion
# ---------------------------------------------------------------------------


def test_polar_motion_k33_star_coloring():
    g = k33()
    c = EdgeColoring.from_red_edges(g, [(1, 2), (1, 4), (1, 6)])
    traj = polar_nap_motion(g, c, [0.0, math.pi / 7, math.pi / 3])
    assert traj.max_residual() <= 1e-12
    rhos = traj.realizations()
    for a, b in combinations(rhos, 2):
        assert essentially_distinct(a, b)


def test_polar_motion_flags_collisions():
    g = apex_double_triangle()
    c = EdgeColoring.from_red_edges(g, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    traj = polar_nap_motion(g, c, ANGLES)
    # both pole vertices default to the north pole and are non-adjacent
    assert all((1, 4) in degenerate_pairs(s.realization)[0] for s in traj.samples)
    assert not traj.sample_flags()[0].any()
    south = polar_nap_motion(g, c, ANGLES, pole_assignment={1: 1, 4: -1})
    assert all((1, 4) in degenerate_pairs(s.realization)[1] for s in south.samples)


def test_polar_motion_rejects_non_nap():
    g = k33()
    with pytest.raises(SphflexError, match="^pole motion needs a NAP-coloring$"):
        polar_nap_motion(g, EdgeColoring(g, 0b101010101), ANGLES)


def test_polar_motion_rejects_degenerate_angle_list():
    g = k33()
    c = EdgeColoring.from_red_edges(g, [(1, 2), (1, 4), (1, 6)])
    with pytest.raises(SphflexError, match="^need at least two samples$"):
        polar_nap_motion(g, c, [0.0])
    with pytest.raises(SphflexError, match="^no two samples are essentially distinct$"):
        polar_nap_motion(g, c, [0.0, 0.0])


def test_polar_motion_reproducible():
    g = k33()
    c = EdgeColoring.from_red_edges(g, [(1, 2), (1, 4), (1, 6)])
    t1 = polar_nap_motion(g, c, ANGLES, seed=5)
    t2 = polar_nap_motion(g, c, ANGLES, seed=5)
    for s1, s2 in zip(t1.samples, t2.samples):
        for v in g.vertices:
            assert np.array_equal(s1.realization.point(v), s2.realization.point(v))


# ---------------------------------------------------------------------------
# Dixon 1
# ---------------------------------------------------------------------------


def test_dixon1_constant_deltas():
    traj = dixon1_motion(DIXON1, list(np.linspace(1.0, 1.3, 8)))
    assert traj.max_residual() <= 1e-12
    base = gram_matrix(traj.samples[0].realization)
    for s in traj.samples[1:]:
        g = gram_matrix(s.realization)
        # the nine edge entries stay fixed; compare on edge positions
        for i, vi in enumerate((1, 3, 5)):
            for j, vj in enumerate((2, 4, 6)):
                a = s.realization.point(vi) @ s.realization.point(vj)
                b = traj.samples[0].realization.point(vi) @ traj.samples[0].realization.point(vj)
                assert abs(a - b) <= 1e-12


def test_dixon1_cocircular_on_orthogonal_circles():
    traj = dixon1_motion(DIXON1, list(np.linspace(0.9, 1.4, 6)))
    for s in traj.samples:
        for v in (1, 3, 5):
            assert s.realization.point(v)[1] == 0.0
        for v in (2, 4, 6):
            assert s.realization.point(v)[0] == 0.0


def test_dixon1_domain_violation():
    with pytest.raises(SphflexError, match=r"^\|c_5 \* s\| > 1 at s=2.0$"):
        dixon1_motion(DIXON1, [2.0, 2.1])
    with pytest.raises(SphflexError, match=r"^\|d_6 / s\| > 1 at s=0.5$"):
        dixon1_motion(DIXON1, [0.5, 0.6])  # d6/s leaves [-1, 1]


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_dixon1_non_finite_s_names_s(s):
    with pytest.raises(SphflexError, match=f"> 1 at s={s}$"):
        dixon1_motion(DIXON1, [1.0, s])


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, 2.0])
def test_dixon1_products_outside_the_unit_interval(bad):
    with pytest.raises(SphflexError, match=r"products c_i\*d_j"):
        Dixon1Params(c={**DIXON1.c, 1: bad}, d=DIXON1.d)


def test_dixon1_detected():
    traj = dixon1_motion(DIXON1, list(np.linspace(1.0, 1.3, 8)))
    assert detect_k33_motion_kind(traj) == KIND_DIXON1


def test_dixon1_subquads_are_never_rhomboids():
    # with pairwise distinct slope magnitudes no quadrilateral of the
    # induced lengths can satisfy the opposite-edge relation
    from sphflex.quads import RHOMBOID

    traj = dixon1_motion(DIXON1, [1.0, 1.1])
    lam = traj.lengths
    for k in (1, 3, 5):
        for l in (2, 4, 6):
            o1, o2 = sorted({1, 3, 5} - {k})
            e1, e2 = sorted({2, 4, 6} - {l})
            q = QuadLengths(
                lam.delta_of(o1, e1),
                lam.delta_of(e1, o2),
                lam.delta_of(o2, e2),
                lam.delta_of(o1, e2),
            )
            assert classify(q).tag != RHOMBOID


# ---------------------------------------------------------------------------
# Dixon 2
# ---------------------------------------------------------------------------


def test_dixon2_sixteen_constant_deltas():
    traj = dixon2_motion(DIXON2, list(np.linspace(0.45, 0.6, 8)))
    assert traj.graph.num_edges == 16
    assert traj.max_residual() <= 1e-9
    first = traj.samples[0].realization
    for s in traj.samples:
        for i in (1, 3, 5, 7):
            for j in (2, 4, 6, 8):
                assert abs(
                    s.realization.point(i) @ s.realization.point(j)
                    - first.point(i) @ first.point(j)
                ) <= 1e-9


def test_dixon2_involutions_are_symmetries():
    tau, sigma, rho = dixon2_involutions()
    assert np.abs(tau @ sigma @ rho - np.eye(3)).max() <= 1e-10
    pairs = {
        id(tau): [(1, 3), (5, 7), (2, 4), (6, 8)],
        id(sigma): [(1, 7), (3, 5), (2, 8), (4, 6)],
        id(rho): [(1, 5), (3, 7), (2, 6), (4, 8)],
    }
    traj = dixon2_motion(DIXON2, [0.5, 0.55, 0.6])
    for s in traj.samples:
        for m in (tau, sigma, rho):
            for a, b in pairs[id(m)]:
                assert np.abs(m @ s.realization.point(a) - s.realization.point(b)).max() <= 1e-10


def test_dixon2_dropped_pair_is_k33_motion():
    traj = dixon2_motion(DIXON2, list(np.linspace(0.45, 0.6, 8)))
    sub = traj.restrict(range(1, 7))
    assert sub.graph == k33()
    assert sub.max_residual() <= 1e-9
    assert detect_k33_motion_kind(sub) == KIND_DIXON2


def test_dixon2_no_real_solution():
    with pytest.raises(SphflexError, match="^no real companion point for p1=0.95 "):
        dixon2_motion(Dixon2Params(0.9, 0.9, 0.9), [0.95, 0.96])


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 1e308])
def test_dixon2_products_name_the_parameter(name, bad):
    values = {"alpha": 0.2, "beta": 0.15, "gamma": 0.1, name: bad}
    with pytest.raises(SphflexError, match=re.escape(f"{name} = {bad} must lie in")):
        Dixon2Params(**values)
    values[name] = 0.0
    with pytest.raises(SphflexError, match=f"^{name} = 0 would park a vertex on an axis$"):
        Dixon2Params(**values)


# ---------------------------------------------------------------------------
# constant diagonal angle
# ---------------------------------------------------------------------------


def test_cda_params_from_e_reference_values():
    params = cda_params_from_e(0.75)
    assert abs(params.a - 0.6) <= 1e-15


def test_cda_relation_exact_rational():
    a, e = Fraction(3, 5), Fraction(3, 4)
    assert a**3 * e**2 + a**3 - a * e**2 == 0


def test_cda_params_validation():
    with pytest.raises(SphflexError, match=r"^e must lie in \(-1, 1\) and be nonzero$"):
        cda_params_from_e(0.0)
    with pytest.raises(SphflexError, match="^relation residual .* exceeds 1e-12$"):
        CdaParams(0.5, 0.75)  # off the relation curve


def test_cda_pole_and_discriminant_errors():
    with pytest.raises(SphflexError, match="^t=1.0 is a pole of the parametrization$"):
        cda_motion(CDA, [1.0])
    with pytest.raises(SphflexError, match="^z5 radicand .* < 0 at t=2.0$"):
        cda_motion(CDA, [2.0])
    with pytest.raises(SphflexError, match="^y2 radicand .* < 0 at t=-2.0$"):
        cda_motion(CDA, [-2.0])


def test_cda_non_finite_and_overflowing_t_name_t():
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(SphflexError, match=f"^t={t} is not finite$"):
            cda_motion(CDA, [8.0, t])
    # 1e100**4 raises OverflowError; (7 t)(t) is inf at -1e200 and 1e308
    for t in (1e100, -1e200, 1e308):
        with pytest.raises(SphflexError, match=re.escape(f"the radicands overflow at t={t}")):
            cda_motion(CDA, [8.0, t])


def test_cda_motion_samples_and_pattern():
    traj = cda_motion(CDA, list(np.linspace(7.3, 25.0, 20)))
    assert traj.max_residual() <= 1e-9
    for s in traj.samples:
        rho = s.realization
        assert abs(rho.point(5) @ rho.point(6) - 0.75) <= 1e-9
        # vertices 5 and 6 are the diagonal poles
        assert abs(rho.point(5) @ rho.point(2)) <= 1e-9
        assert abs(rho.point(5) @ rho.point(4)) <= 1e-9
        assert abs(rho.point(6) @ rho.point(1)) <= 1e-9
        assert abs(rho.point(6) @ rho.point(3)) <= 1e-9
    for s, t in zip(traj.samples, traj.samples[1:]):
        assert essentially_distinct(s.realization, t.realization)


def test_cda_all_branches_valid():
    for y2_sign in (1, -1):
        for z5_sign in (1, -1):
            traj = cda_motion(CDA, [8.0, 9.0, 10.0], y2_sign, z5_sign)
            assert traj.max_residual() <= 1e-9


def test_cda_quadrilateral_types():
    lam = cda_lengths(CDA)
    quad_1234 = QuadLengths(
        lam.delta_of(1, 2), lam.delta_of(2, 3), lam.delta_of(3, 4), lam.delta_of(1, 4)
    )
    assert classify(quad_1234).tag == GENERAL
    # subquad 2345 (cycle 3-2-5-4) and 1245 (cycle 1-2-5-4) are even deltoids
    quad_2345 = QuadLengths(
        lam.delta_of(3, 2), lam.delta_of(2, 5), lam.delta_of(5, 4), lam.delta_of(3, 4)
    )
    assert classify(quad_2345).tag == EVEN_DELTOID
    quad_1245 = QuadLengths(
        lam.delta_of(1, 2), lam.delta_of(2, 5), lam.delta_of(5, 4), lam.delta_of(1, 4)
    )
    assert classify(quad_1245).tag == EVEN_DELTOID


def test_cda_feasible_intervals_report():
    intervals = cda_feasible_intervals_by_points(0.01, 40.0, 801, 1, 1)
    assert len(intervals) == 2
    (lo1, hi1), (lo2, hi2) = intervals
    assert hi1 < 0.2 and abs(lo2 - 7.0) < 0.1


def test_cda_detected():
    traj = cda_motion(CDA, list(np.linspace(7.5, 20.0, 8)))
    assert detect_k33_motion_kind(traj) == KIND_CDA


# ---------------------------------------------------------------------------
# detector guard rails
# ---------------------------------------------------------------------------


def test_detector_requires_three_distinct_samples():
    traj = dixon1_motion(DIXON1, [1.0, 1.001])
    with pytest.raises(SphflexError, match="^need three essentially distinct samples$"):
        detect_k33_motion_kind(traj)


def test_detector_rejects_degenerate_samples():
    g = k33()
    c = EdgeColoring.from_red_edges(g, [(1, 2), (1, 4), (1, 6)])
    traj = polar_nap_motion(g, c, ANGLES)
    with pytest.raises(SphflexError, match="has coincident or antipodal vertices$"):
        detect_k33_motion_kind(traj)


def test_cda_motion_refuses_branch_crossing():
    # an interval straddling the radicand zero at t = 7 must raise rather
    # than silently switch branches
    with pytest.raises(SphflexError, match="^z5 radicand .* < 0 at t=6.9$"):
        cda_motion(CDA, [6.9, 7.1, 7.3])
