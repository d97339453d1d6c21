import math

import numpy as np
import pytest

from sphflex.errors import SphflexError
from sphflex.graphs import k22, k33, triangle
from sphflex.motions import dixon1_motion
from sphflex.spherical import (
    COMPAT_TOL,
    LengthAssignment,
    Rotation,
    SphericalRealization,
    check_rotations,
    delta,
    essentially_distinct,
    _triples,
    max_edge_residual,
    normalize,
    random_rotation,
    random_unit_point,
    rotation_about_axis,
    rotations_about_axis,
    sph_dist,
)

from helpers import apply_rotation, distinctness, gram_matrix, random_realization, unit_point
from reference import DIXON1

RNG = np.random.default_rng(42)


def test_delta_basic_values():
    t = unit_point(1, 0, 0)
    u = unit_point(0, 1, 0)
    assert delta(t, t) == 1.0
    assert delta(t, -t) == -1.0
    assert delta(t, u) == 0.0


def test_delta_antipodal_antisymmetry():
    for _ in range(50):
        t, u = random_unit_point(RNG), random_unit_point(RNG)
        assert abs(delta(t, -u) + delta(t, u)) <= 1e-12


def test_sph_dist_range_and_identity():
    t = random_unit_point(RNG)
    assert abs(sph_dist(t, t)) <= 1e-15
    assert abs(sph_dist(t, -t) - 1.0) <= 1e-15
    u = unit_point(0, 0, 1)
    assert sph_dist(unit_point(1, 0, 0), u) == 0.5
    for _ in range(50):
        a, b = random_unit_point(RNG), random_unit_point(RNG)
        assert abs(sph_dist(a, b) - (1.0 - delta(a, b)) / 2.0) <= 1e-15


def test_unit_point_validation():
    with pytest.raises(SphflexError):
        unit_point(1.0, 0.1, 0.0)


def test_rotation_about_axis_examples():
    r = rotation_about_axis([1, 0, 0], math.pi)
    assert np.abs(r.apply(unit_point(0, 1, 0)) - [0, -1, 0]).max() <= 1e-12
    ident = rotation_about_axis([0.3, 0.4, math.sqrt(0.75)], 0.0)
    assert np.abs(ident.matrix - np.eye(3)).max() <= 1e-12


def test_rotation_composition_adds_angles():
    axis = random_unit_point(RNG)
    a, b = 0.7, 1.1
    composed = rotation_about_axis(axis, a).matrix @ rotation_about_axis(axis, b).matrix
    direct = rotation_about_axis(axis, a + b)
    assert np.abs(composed - direct.matrix).max() <= 1e-12


def test_rotation_validation():
    with pytest.raises(SphflexError):
        Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(SphflexError):
        Rotation(np.ones((3, 3)))
    with pytest.raises(SphflexError, match="^rotation matrix must be 3x3$"):
        Rotation(np.eye(2))


def test_normalize_refuses_the_zero_vector():
    with pytest.raises(SphflexError, match="^cannot normalize the zero vector$"):
        normalize(np.zeros(3))


def test_placement_point_needs_three_coordinates():
    for placement in ({1: [1.0, 0.0], 2: [0.0, 1.0]}, {1: [1.0, 0.0, 0.0], 2: [0.0, 1.0]}):
        with pytest.raises(SphflexError, match="^every point needs three coordinates$"):
            SphericalRealization(placement)


def test_batched_rotations_match_per_angle_rotations():
    angles = np.concatenate([RNG.uniform(-10.0, 10.0, 200), [0.0, math.pi, -math.pi / 2]])
    for axis in ([1.0, 0.0, 0.0], [0.3, 0.4, math.sqrt(0.75)], RNG.normal(size=3)):
        stack = rotations_about_axis(axis, angles)
        assert stack.shape == (len(angles), 3, 3)
        for m, angle in zip(stack, angles):
            assert np.array_equal(m, rotation_about_axis(axis, float(angle)).matrix)


def test_batched_rotation_check_rejects_one_bad_matrix():
    stack = rotations_about_axis([0.0, 0.0, 1.0], np.linspace(0.0, 3.0, 5))
    check_rotations(stack)
    off = stack.copy()
    off[3, 0, 1] += 1e-9
    for bad in (off, off[3]):
        with pytest.raises(SphflexError, match="matrix is not orthogonal"):
            check_rotations(bad)
    with pytest.raises(SphflexError, match="matrix is not orthogonal"):
        Rotation(off[3])
    flipped = stack.copy()
    flipped[2] = -flipped[2]
    with pytest.raises(SphflexError, match=r"matrix determinant is not \+1"):
        check_rotations(flipped)


def test_apply_rotation_preserves_deltas():
    g = k33()
    rho = random_realization(g.vertices, RNG)
    rot = random_rotation(RNG)
    moved = apply_rotation(rot, rho)
    assert np.abs(gram_matrix(rho) - gram_matrix(moved)).max() <= 1e-12


def test_length_assignment_rejects_boundary():
    with pytest.raises(SphflexError):
        LengthAssignment({(1, 2): 0.0})
    with pytest.raises(SphflexError):
        LengthAssignment({(1, 2): 1.0})
    lam = LengthAssignment({(1, 2): 0.25})
    assert lam.delta_of(1, 2) == 0.5


def test_max_edge_residual_induced_and_perturbed():
    g = k33()
    rho = random_realization(g.vertices, RNG)
    lam = LengthAssignment.induced(g, rho)
    assert max_edge_residual(g, rho, lam) == 0.0
    moved = dict(rho.placement)
    bump = moved[1] + np.array([1e-3, 0, 0])
    moved[1] = bump / np.linalg.norm(bump)
    assert max_edge_residual(g, SphericalRealization(moved), lam) > 1e-9


def test_max_edge_residual_rotation_invariant():
    g = triangle()
    rho = random_realization(g.vertices, RNG)
    lam = LengthAssignment.induced(g, rho)
    rot = random_rotation(RNG)
    assert max_edge_residual(g, apply_rotation(rot, rho), lam) <= 1e-9


def test_essentially_distinct_rotation_false():
    g = k33()
    rho = random_realization(g.vertices, RNG)
    for _ in range(10):
        rot = random_rotation(RNG)
        turned = apply_rotation(rot, rho)
        assert not essentially_distinct(rho, turned)
        assert distinctness(rho, turned)[1] <= 1e-12


def test_essentially_distinct_mirror_true():
    g = triangle()
    rho = random_realization(g.vertices, RNG)
    mirrored = SphericalRealization(
        {v: np.array([p[0], p[1], -p[2]]) for v, p in rho.placement.items()}
    )
    assert essentially_distinct(rho, mirrored)
    # Gram-equal, so the orientation of a spanning reference decided it
    _, gram_dist, spans = distinctness(rho, mirrored)
    assert gram_dist <= COMPAT_TOL and spans


def test_essentially_distinct_degenerate_great_circle():
    # three points on a great circle: a reflected copy is still reachable by
    # a rotation, so the verdict must be "not distinct", from a Gram-equal
    # pair whose reference spans only a plane
    g = triangle()
    angles = (0.3, 1.2, 2.5)
    rho = SphericalRealization(
        {v: np.array([math.cos(a), math.sin(a), 0.0]) for v, a in zip(g.vertices, angles)}
    )
    mirrored = SphericalRealization(
        {v: np.array([p[0], p[1], -p[2]]) for v, p in rho.placement.items()}
    )
    assert not essentially_distinct(rho, mirrored)
    _, gram_dist, spans = distinctness(rho, mirrored)
    assert gram_dist <= COMPAT_TOL and not spans


def test_essentially_distinct_different_shapes():
    g = k22()
    r1 = random_realization(g.vertices, RNG)
    r2 = random_realization(g.vertices, RNG)
    assert essentially_distinct(r1, r2)


def test_essentially_distinct_refuses_different_vertex_sets():
    r1 = random_realization([1, 2, 3], np.random.default_rng(5))
    r2 = random_realization([1, 2, 4], np.random.default_rng(5))
    with pytest.raises(SphflexError, match="^realizations have different vertex sets$"):
        essentially_distinct(r1, r2)


# each threshold of ``distinct_from`` set to the very value it is compared
# with, so the documented side of each comparison is the one that holds


def five_points(seed):
    return SphericalRealization({v: random_unit_point(np.random.default_rng(seed + v)) for v in range(5)})


def test_gram_distance_equal_to_the_tolerance_is_gram_equal(monkeypatch):
    ref = five_points(0)
    moved = dict(ref.placement)
    moved[0] = normalize(moved[0] + [1e-3, 0.0, 0.0])
    near = SphericalRealization(moved)
    gram_dist = distinctness(ref, near)[1]
    assert gram_dist > 0.0
    # distinct is gram_dist > COMPAT_TOL; at equality the orientation
    # test decides, and a small move keeps it
    monkeypatch.setattr("sphflex.spherical.COMPAT_TOL", gram_dist)
    assert not essentially_distinct(ref, near)
    monkeypatch.setattr("sphflex.spherical.COMPAT_TOL", np.nextafter(gram_dist, 0.0))
    assert essentially_distinct(ref, near)


def test_largest_det_equal_to_the_tolerance_spans_no_space(monkeypatch):
    ref = five_points(10)
    pts = np.stack([ref.point(v) for v in ref.vertices])
    largest = np.abs(np.linalg.det(pts[_triples(len(pts))])).max()
    mirrored = SphericalRealization({v: p * [1.0, 1.0, -1.0] for v, p in ref.placement.items()})
    # the reference spans space unless max |det| <= ORIENT_DET_TOL; if it
    # does not, a mirror image is Gram-equal and so not distinct
    monkeypatch.setattr("sphflex.spherical.ORIENT_DET_TOL", largest)
    distinct, _, spans = distinctness(ref, mirrored)
    assert not distinct and not spans
    monkeypatch.setattr("sphflex.spherical.ORIENT_DET_TOL", np.nextafter(largest, 0.0))
    distinct, _, spans = distinctness(ref, mirrored)
    assert distinct and spans


def test_orientation_equal_to_the_tolerance_is_refused(monkeypatch):
    # a tolerance of 2 makes any pair Gram-equal, so the orientation decides
    monkeypatch.setattr("sphflex.spherical.COMPAT_TOL", 2.0)
    ref, other = five_points(20), five_points(30)
    p1, p2 = (np.stack([r.point(v) for v in r.vertices]) for r in (ref, other))
    dets = np.linalg.det(p1[_triples(len(p1))])
    best = np.argmax(np.abs(dets))
    det = np.linalg.det(p2[None][:, _triples(len(p1))[best]])[0]
    assert abs(det) < abs(dets[best])
    # refused at |det| <= ORIENT_DET_TOL, decided by the sign above it
    monkeypatch.setattr("sphflex.spherical.ORIENT_DET_TOL", abs(det))
    with pytest.raises(SphflexError, match="^Gram-equal realizations with an orientation within"):
        essentially_distinct(ref, other)
    monkeypatch.setattr("sphflex.spherical.ORIENT_DET_TOL", np.nextafter(abs(det), 0.0))
    assert essentially_distinct(ref, other) == ((det > 0) != (dets[best] > 0))


def test_realization_keeps_its_own_read_only_points():
    p = np.array([1.0, 0, 0])
    rho = SphericalRealization({1: p, 2: [0, 1.0, 0]})
    p[:] = 5
    assert rho.point(1).tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        rho.point(2)[0] = 5.0


def test_realizations_and_samples_compare_by_identity():
    rho = SphericalRealization({1: [1.0, 0, 0], 2: [0, 1.0, 0]})
    twin = SphericalRealization({1: [1.0, 0, 0], 2: [0, 1.0, 0]})
    assert rho == rho and rho != twin
    assert len({rho, twin, rho}) == 2
    first, second = dixon1_motion(DIXON1, [1.0, 1.1]).samples
    assert first == first and first != second
    assert len({first, second, first}) == 2
