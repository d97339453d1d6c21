"""Degrees of forgetful projections from exact fibers, against the
window-scan oracle of ``degrees.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphflex.cli import EXPECTED_CASES
from sphflex.coloring import flexibility_certificate
from sphflex.continuation import _fiber_sizes, empirical_map_degree
from sphflex.errors import SphflexError
from sphflex.graphs import build_graph, k22
from sphflex.motions import (
    KIND_UNCLASSIFIED,
    Dixon2Params,
    MotionTrajectory,
    cda_motion,
    dixon1_motion,
    dixon2_motion,
    make_trajectory,
    polar_nap_motion,
)
from sphflex.spherical import LengthAssignment, SphericalRealization, random_rotation

from degrees import random_dixon1_loops, window_scan_degree
from helpers import path_graph
from reference import CDA, DIXON1, DIXON2, pinned


@pytest.fixture(scope="module")
def loops():
    return random_dixon1_loops()


@pytest.fixture(scope="module")
def acceptance_loop():
    return pinned("dixon1-K(3,3)").result.trajectory


def test_every_random_slope_dixon1_loop_has_degree_four(loops):
    # the window scan found only 1 or 2 preimages on seven of the eight
    # loops with unsorted slopes: their other preimages lie off the traced
    # component
    for c, d, res in loops:
        assert res.closed, (c, d)
        assert np.all(_fiber_sizes(res.trajectory, {5, 6}) == 4), (c, d)
        assert empirical_map_degree(res.trajectory, {5, 6}) == 4, (c, d)


def test_exact_degree_matches_window_scan_oracle(loops, acceptance_loop):
    increasing = [res.trajectory for k, (_, _, res) in enumerate(loops) if k % 2 == 0]
    for traj in [acceptance_loop] + increasing:
        assert empirical_map_degree(traj, {5, 6}) == window_scan_degree(traj, {5, 6}) == 4


@settings(max_examples=25)
@given(
    st.integers(0, 15),
    st.sampled_from([{5, 6}, {1}, {1, 2}, {3, 5, 6}]),
    st.integers(0, 2**32 - 1),
)
def test_fiber_sizes_invariant_under_rotation(loops, k, forgotten, seed):
    traj = loops[k][2].trajectory
    turn = random_rotation(np.random.default_rng(seed)).matrix
    turned = MotionTrajectory(
        traj.graph, traj.lengths, traj.points @ turn.T, traj.parameters, traj.kind
    )
    assert np.array_equal(_fiber_sizes(turned, forgotten), _fiber_sizes(traj, forgotten))


def test_edge_to_a_kept_vertex_of_higher_label_picks_the_branch():
    # neighbours 2 and 4 place vertex 1 at two points, and only the edge
    # (1, 6), whose forgotten end is its smaller label, keeps one of them;
    # Dixon 1 would not do here: its even vertices share a great circle,
    # so both points meet vertex 6 and the fiber is 2 either way
    traj = cda_motion(CDA, np.linspace(7.5, 12.0, 60))
    assert np.all(_fiber_sizes(traj, {1}) == 1)
    assert empirical_map_degree(traj, {1}) == 1


def test_forgotten_set_without_construction_order_raises():
    g = path_graph(4)
    traj = polar_nap_motion(g, flexibility_certificate(g), list(np.linspace(0.0, 1.0, 5)), seed=1)
    assert empirical_map_degree(traj, {2}) == 2  # mirror image across the (1, 3) plane
    with pytest.raises(SphflexError, match=r"^no construction order: forgotten vertices \[1\]"):
        empirical_map_degree(traj, {1})


def dixon2_k33(params):
    return dixon2_motion(params, np.linspace(0.45, 0.6, 25)).restrict(range(1, 7))


# the built K(3,3) motions; the third Dixon 2 set has a sample whose first
# placement forgetting {1, 4} lies 2.4e-9 inside the tangency band
MOTIONS = {
    # a branch that would put vertex 1 antipodal to vertex 3 is dropped
    "cda": cda_motion(CDA, np.linspace(7.3, 29.9, 41)),
    "dixon2": dixon2_k33(DIXON2),
    "dixon2(0.3,0.1,0.25)": dixon2_k33(Dixon2Params(0.3, 0.1, 0.25)),
    "dixon2(0.15,0.2,0.3)": dixon2_k33(Dixon2Params(0.15, 0.2, 0.3)),
    "dixon1": dixon1_motion(DIXON1, np.linspace(1.0, 1.25, 25)),
}


@pytest.mark.parametrize(
    "name, table",
    [
        ("cda", EXPECTED_CASES[2]["degree"]),
        ("dixon2", EXPECTED_CASES[1]["degree"]),
        ("dixon1", ((4, 4, 4),) * 3),
    ],
    ids=["cda", "dixon2", "dixon1"],
)
def test_fiber_tables_of_the_built_motions(name, table):
    # entry (o, e) forgets odd o and even e; every sample has the same
    # fiber sizes, the motion's degree table
    for o, want in zip((1, 3, 5), table):
        sizes = [_fiber_sizes(MOTIONS[name], {o, e}) for e in (2, 4, 6)]
        assert [(int(s.min()), int(s.max())) for s in sizes] == [(w, w) for w in want]


@pytest.mark.parametrize("name", sorted(MOTIONS))
def test_every_sample_lies_in_its_own_fiber(name):
    for o in (1, 3, 5):
        for e in (2, 4, 6):
            assert _fiber_sizes(MOTIONS[name], {o, e}).min() >= 1, (o, e)


def test_a_tangency_counts_once():
    # vertex 4 lies on the great circle through its neighbours 1 and 2, so
    # the circles that place it touch: both intersection points are tried,
    # and they are one point of the fiber
    g = build_graph(range(1, 5), [(1, 2), (2, 3), (1, 4), (2, 4)])
    s = np.sqrt(0.5)
    fixed = {1: [1.0, 0.0, 0.0], 2: [0.0, 1.0, 0.0], 4: [s, s, 0.0]}
    frames = [(t, SphericalRealization({**fixed, 3: [np.sin(t), 0.0, np.cos(t)]})) for t in (0.3, 0.6)]
    traj = make_trajectory(g, LengthAssignment.induced(g, frames[0][1]), frames, KIND_UNCLASSIFIED)
    assert _fiber_sizes(traj, {4}).tolist() == [1, 1]


def test_retained_vertices_on_a_line_still_raise():
    # vertices 1 and 3 are antipodal poles, so every point of the equator
    # meets vertex 2's edges to both: its fiber is a circle
    pole = np.array([0.0, 0.0, 1.0])
    frames = [
        (a, SphericalRealization({1: pole, 2: [1.0, 0.0, 0.0], 3: -pole, 4: [np.cos(a), np.sin(a), 0.0]}))
        for a in (1.0, 2.0)
    ]
    lam = LengthAssignment.induced(k22(), frames[0][1])
    traj = make_trajectory(k22(), lam, frames, KIND_UNCLASSIFIED)
    with pytest.raises(SphflexError, match="^placed neighbors span less than a plane$"):
        empirical_map_degree(traj, {2})
