"""Degrees of forgetful projections from exact fibers, against the
window-scan oracle of ``degrees.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphflex.coloring import flexibility_certificate
from sphflex.continuation import TraceConfig, _fiber_sizes, empirical_map_degree, trace
from sphflex.errors import SphflexError
from sphflex.graphs import k33
from sphflex.motions import (
    Dixon1Params,
    MotionTrajectory,
    cda_motion,
    cda_params_from_e,
    dixon1_motion,
    polar_nap_motion,
)
from sphflex.spherical import random_rotation

from degrees import random_dixon1_loops, window_scan_degree
from helpers import path_graph


@pytest.fixture(scope="module")
def loops():
    return random_dixon1_loops()


@pytest.fixture(scope="module")
def acceptance_loop():
    params = Dixon1Params(c={1: 0.2, 3: 0.4, 5: 0.6}, d={2: 0.3, 4: 0.5, 6: 0.7})
    gen = dixon1_motion(params, [1.0, 1.05])
    config = TraceConfig(step_size=0.05, max_steps=4000)
    return trace(k33(), gen.lengths, gen.samples[0].realization, config=config).trajectory


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


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
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
    traj = cda_motion(cda_params_from_e(0.75), np.linspace(7.5, 12.0, 60))
    assert np.all(_fiber_sizes(traj, {1}) == 1)
    assert empirical_map_degree(traj, {1}) == 1


def test_forgotten_set_without_construction_order_raises():
    g = path_graph(4)
    traj = polar_nap_motion(g, flexibility_certificate(g), list(np.linspace(0.0, 1.0, 5)), seed=1)
    assert empirical_map_degree(traj, {2}) == 2  # mirror image across the (1, 3) plane
    with pytest.raises(SphflexError, match=r"^no construction order: forgotten vertices \[1\]"):
        empirical_map_degree(traj, {1})
