"""The array-op assembly and validation against the loops they replaced.

``ConstraintSystem`` must give exactly the rows and Jacobian of the per-edge
loop assemblers in ``assembly.py``, with and without the arclength row.
Batched trajectory validation must
give exactly the per-sample ``max_edge_residual`` and ``degenerate_pairs``.
Exact equality is what keeps traced paths and exported residuals identical
to the loop implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphflex.coloring import enumerate_nap, nap_pole_partition
from sphflex.continuation import ConstraintSystem, jacobian, residual_vector
from sphflex.errors import SphflexError
from sphflex.formats import trajectory_to_csv
from sphflex.graphs import build_graph, k33
from sphflex.motions import (
    NORTH,
    MotionTrajectory,
    cda_motion,
    dixon1_motion,
    make_trajectory,
    polar_nap_motion,
)
from sphflex.spherical import (
    LengthAssignment,
    SphericalRealization,
    degenerate_pairs,
    max_edge_residual,
    random_unit_point,
    rotation_about_axis,
)

from assembly import jacobian_by_loop, residual_by_loop, with_arc_row
from helpers import restrict_realization
from reference import CDA, DIXON1, pinned
from trajectories import degenerate_pairs_of_all

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def graphs(draw, min_vertices=2, max_vertices=9, max_edges=16):
    """A random connected graph on labels drawn from 1..30."""
    n = draw(st.integers(min_vertices, max_vertices))
    labels = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n, unique=True))
    edges = {(labels[draw(st.integers(0, v - 1))], labels[v]) for v in range(1, n)}
    others = [
        (labels[a], labels[b])
        for b in range(n)
        for a in range(b)
        if (labels[a], labels[b]) not in edges
    ]
    if others and len(edges) < max_edges:
        room = max_edges - len(edges)
        edges.update(draw(st.lists(st.sampled_from(others), unique=True, max_size=room)))
    return build_graph(labels, edges)


@st.composite
def problems(draw):
    """Graph, lengths, coordinates off the curve and an arclength row.  The
    graph's labels are drawn at random, so the gauge's meridian, the
    smallest label's first neighbour, lands on varied positions."""
    g = draw(graphs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = LengthAssignment({e: rng.uniform(0.05, 0.95) for e in g.edges})
    coords = rng.normal(size=3 * g.num_vertices)
    base, tangent = rng.normal(size=(2, coords.size))
    arc = (base, tangent, rng.uniform(0.0, 0.1))
    return g, lam, coords, arc


@PROPERTY
@given(problems(), st.booleans())
def test_gauged_system_matches_loop_assembler(problem, use_arc):
    g, lam, coords, arc = problem
    want_r = residual_by_loop(g, lam, coords)
    want_j = jacobian_by_loop(g, lam, coords)
    system = ConstraintSystem(g, lam)
    if use_arc:
        want_r, want_j = with_arc_row(want_r, want_j, coords, arc)
        got_r, got_j = system.residual(coords, arc), system.jacobian(coords, arc[1])
    else:
        got_r, got_j = system.residual(coords), system.jacobian(coords)
        assert np.array_equal(residual_vector(g, lam, coords), want_r)
        assert np.array_equal(jacobian(g, lam, coords), want_j)
    assert np.array_equal(got_r, want_r)
    assert np.array_equal(got_j, want_j)


def test_gauged_system_matches_loop_assembler_along_a_trace():
    # the points a Newton solve meets: traced samples of a Dixon 1 K(3,3)
    # loop, and the arclength row towards the next sample
    traj = pinned("dixon1-K(3,3)").result.trajectory
    g, lam = traj.graph, traj.lengths
    system = ConstraintSystem(g, lam)
    flat = traj.points.reshape(len(traj.points), -1)
    for x, y in zip(flat[:-1], flat[1:]):
        h = float(np.linalg.norm(y - x))
        for coords, arc in ((x, None), (y, (x, (y - x) / h, h))):
            want_r = residual_by_loop(g, lam, coords)
            want_j = jacobian_by_loop(g, lam, coords)
            if arc is not None:
                want_r, want_j = with_arc_row(want_r, want_j, coords, arc)
            assert np.array_equal(system.residual(coords, arc), want_r)
            assert np.array_equal(system.jacobian(coords, None if arc is None else arc[1]), want_j)


def test_system_buffers_switch_between_arc_and_plain_calls():
    g = k33()
    rng = np.random.default_rng(4)
    lam = LengthAssignment({e: rng.uniform(0.1, 0.9) for e in g.edges})
    system = ConstraintSystem(g, lam)
    x, y = rng.normal(size=18), rng.normal(size=18)
    arc = (rng.normal(size=18), rng.normal(size=18), 0.05)
    system.jacobian(x, arc[1])
    system.residual(x, arc)
    assert np.array_equal(system.jacobian(y), jacobian_by_loop(g, lam, y))
    assert np.array_equal(system.residual(y), residual_by_loop(g, lam, y))
    assert system.residual(y).shape == (6 + 9 + 3,)


@pytest.mark.parametrize("size", [15, 21])
def test_system_refuses_coords_of_another_size(size):
    g = k33()
    lam = LengthAssignment({e: 0.3 for e in g.edges})
    system = ConstraintSystem(g, lam)
    coords = np.linspace(-1.0, 1.0, size)
    for assemble in (system.residual, system.jacobian):
        with pytest.raises(ValueError, match="cannot reshape"):
            assemble(coords)


# ---------------------------------------------------------------------------
# batched trajectory validation
# ---------------------------------------------------------------------------


def assert_samples_match_loops(traj: MotionTrajectory):
    loops = [degenerate_pairs(s.realization) for s in traj.samples]
    assert degenerate_pairs_of_all(traj.realizations()) == loops
    injective, proper = traj.sample_flags()
    assert injective.tolist() == [not coincident for coincident, _ in loops]
    assert proper.tolist() == [not (coincident or antipodal) for coincident, antipodal in loops]
    assert traj.max_residual() == max(
        max_edge_residual(traj.graph, s.realization, traj.lengths) for s in traj.samples
    )


@PROPERTY
@given(graphs(max_vertices=8, max_edges=10), st.data())
def test_polar_samples_match_per_sample_validation(g, data):
    colorings = enumerate_nap(g)
    if not colorings:
        return
    # the coloring with the most poles, split between north and south, so
    # that pole pairs coincide or are antipodal
    coloring = max(colorings, key=lambda c: len(nap_pole_partition(c).poles))
    poles = sorted(nap_pole_partition(coloring).poles)
    k = len(poles)
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    degrees = data.draw(st.lists(st.integers(0, 359), min_size=2, max_size=12, unique=True))
    traj = polar_nap_motion(
        g,
        coloring,
        np.radians(degrees),
        seed=data.draw(st.integers(0, 99)),
        pole_assignment=dict(zip(poles, signs)),
    )
    assert_samples_match_loops(traj)
    north = [p for p, s in zip(poles, signs) if s > 0]
    south = [p for p, s in zip(poles, signs) if s < 0]
    if north and south:
        assert all(degenerate_pairs(s.realization)[1] for s in traj.samples)


def test_antipodal_poles_found_in_every_sample():
    g = k33()
    coloring = next(c for c in enumerate_nap(g) if len(nap_pole_partition(c).poles) >= 2)
    poles = sorted(nap_pole_partition(coloring).poles)
    angles = np.linspace(0.0, 6.0, 9)
    traj = polar_nap_motion(g, coloring, angles, pole_assignment={poles[0]: -1})
    assert_samples_match_loops(traj)
    for s in traj.samples:
        assert {(poles[0], q) for q in poles[1:]} <= set(degenerate_pairs(s.realization)[1])


def test_polar_motion_matches_per_angle_rotations():
    g = k33()
    angles = [0.0, *np.linspace(-7.0, 7.0, 120)]
    for coloring in enumerate_nap(g):
        blue = nap_pole_partition(coloring).blue_side
        traj = polar_nap_motion(g, coloring, angles, seed=3)
        base = traj.samples[0].realization
        for theta, s in zip(angles, traj.samples):
            rot = rotation_about_axis(NORTH, theta)
            assert s.realization.vertices == base.vertices
            for v in base.vertices:
                p = base.point(v)
                want = rot.apply(p) if v in blue else p
                assert np.array_equal(s.realization.point(v), want)


def k33_trajectories():
    g = k33()
    return [
        polar_nap_motion(g, next(iter(enumerate_nap(g))), np.linspace(0.0, 6.0, 600)),
        dixon1_motion(DIXON1, np.linspace(0.95, 1.35, 300)),
        cda_motion(CDA, np.linspace(7.2, 30.0, 300)),
    ]


@pytest.mark.parametrize("traj", k33_trajectories(), ids=["polar", "dixon1", "cda"])
def test_csv_residuals_match_per_sample_residual(traj):
    want = [max_edge_residual(traj.graph, s.realization, traj.lengths) for s in traj.samples]
    assert traj.worst_edge_residuals().tolist() == want
    rows = trajectory_to_csv(traj).splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == [repr(w) for w in want]


def test_batched_pairs_use_each_realization_vertex_set():
    rng = np.random.default_rng(8)
    base = {v: random_unit_point(rng) for v in range(1, 7)}
    base[4] = -base[1]
    base[6] = base[2].copy()
    full = SphericalRealization(base)
    rhos = [full, restrict_realization(full, [1, 2, 3]), restrict_realization(full, [1, 4, 6]), full]
    rhos.append(restrict_realization(full, [2, 6]))
    got = degenerate_pairs_of_all(rhos)
    assert got == [degenerate_pairs(rho) for rho in rhos]
    assert got[0] == ([(2, 6)], [(1, 4)])
    assert degenerate_pairs_of_all([restrict_realization(full, [5])]) == [([], [])]


def test_validation_raises_on_first_offending_sample():
    gen = dixon1_motion(DIXON1, np.linspace(1.0, 1.2, 6))
    frames = list(zip(gen.parameters.tolist(), gen.realizations()))
    for k, angle in ((4, 1e-3), (2, 1e-4)):
        pts = dict(frames[k][1].placement)
        pts[3] = rotation_about_axis([0.0, 0.0, 1.0], angle).apply(pts[3])
        frames[k] = (frames[k][0], SphericalRealization(pts))
    r = max_edge_residual(gen.graph, frames[2][1], gen.lengths)
    with pytest.raises(SphflexError) as err:
        make_trajectory(gen.graph, gen.lengths, frames, gen.kind)
    assert str(err.value) == f"sample at parameter {frames[2][0]} has edge residual {r:.3e}"


def test_batched_pairs_thresholds_match_loop_near_boundary():
    # vertex 1 at (1,0,0); the others have inner product d with it, half a
    # threshold inside or outside the 1e-9 band at +1 and at -1
    pts = {1: np.array([1.0, 0.0, 0.0])}
    for v, d in ((2, 1 - 0.5e-9), (3, 1 - 1.5e-9), (4, -1 + 0.5e-9), (5, -1 + 1.5e-9)):
        pts[v] = np.array([d, np.sqrt(1.0 - d * d), 0.0])
    rho = SphericalRealization(pts)
    [(coincident, antipodal)] = degenerate_pairs_of_all([rho])
    assert (coincident, antipodal) == degenerate_pairs(rho)
    assert (1, 2) in coincident and (1, 3) not in coincident
    assert (1, 4) in antipodal and (1, 5) not in antipodal
