import math
import random

import numpy as np
import pytest

from sphflex.errors import SphflexError
from sphflex.quads import (
    EVEN_DELTOID,
    GENERAL,
    LOZENGE,
    ODD_DELTOID,
    RHOMBOID,
    QuadLengths,
    classify,
)
from sphflex.spherical import random_unit_point, rotation_about_axis

from rhomboids import antipodal_normalize, diagonals_not_orthogonal_check, rhomboid_component


def test_classify_odd_deltoid():
    qt = classify(QuadLengths(0.3, 0.3, 0.7, 0.7))
    assert qt.tag == ODD_DELTOID and qt.sign_profile == (1,)


def test_classify_odd_deltoid_negative_sign():
    qt = classify(QuadLengths(0.3, -0.3, -0.7, 0.7))
    assert qt.tag == ODD_DELTOID and qt.sign_profile == (-1,)


def test_classify_even_deltoid():
    qt = classify(QuadLengths(0.3, 0.7, 0.7, 0.3))
    assert qt.tag == EVEN_DELTOID and qt.sign_profile == (1,)


def test_classify_rhomboid():
    qt = classify(QuadLengths(0.3, 0.7, 0.3, 0.7))
    assert qt.tag == RHOMBOID and qt.sign_profile == (1,)


def test_classify_lozenge_takes_precedence():
    qt = classify(QuadLengths(0.5, 0.5, 0.5, 0.5))
    assert qt.tag == LOZENGE and qt.sign_profile == (1, 1, 1)


def test_classify_lozenge_sign_profiles():
    qt = classify(QuadLengths(0.5, -0.5, -0.5, 0.5))
    assert qt.tag == LOZENGE and qt.sign_profile == (-1, -1, 1)


def test_classify_general():
    assert classify(QuadLengths(0.2, 0.5, 0.6, 0.1)).tag == GENERAL


def test_all_equal_odd_parity_is_general():
    # one minus sign cannot be flipped away, so the pattern is not a lozenge
    # and matches none of the two-edge relations either
    assert classify(QuadLengths(0.5, 0.5, -0.5, 0.5)).tag == GENERAL


def test_all_equal_never_rhomboid():
    for signs in ((1, 1, 1, 1), (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1)):
        q = QuadLengths(*(0.4 * s for s in signs))
        assert classify(q).tag == LOZENGE


def test_ambiguous_at_tolerance():
    tol = 1e-6
    eps = 0.9 * tol
    with pytest.raises(SphflexError, match="all match within tol=1e-06; refusing to guess$"):
        classify(QuadLengths(0.3, 0.3 + eps, 0.3 + 2 * eps, 0.3 + eps), tol=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(tol):
    # a NaN or negative tolerance matches no pattern and would answer general
    with pytest.raises(SphflexError, match="tol must be finite and positive"):
        classify(QuadLengths(0.3, 0.3, 0.7, 0.7), tol=tol)


def test_zero_edges_allowed():
    # orthogonal placements are legitimate deltoid data
    qt = classify(QuadLengths(0.4, 0.0, 0.0, 0.4))
    assert qt.tag == EVEN_DELTOID and qt.sign_profile == (1,)


def test_antipodal_normalize_examples():
    q = QuadLengths(0.3, -0.3, -0.7, 0.7)
    normalized, flips = antipodal_normalize(q)
    assert normalized.values() == (0.3, 0.3, 0.7, 0.7)
    assert flips == {3}
    q2 = QuadLengths(0.5, 0.5, 0.5, 0.5)
    normalized2, flips2 = antipodal_normalize(q2)
    assert normalized2 == q2 and flips2 == frozenset()


def test_flip_twice_is_identity():
    q = QuadLengths(0.3, -0.2, 0.6, 0.1)

    def flip(vals, v):
        from rhomboids import _FLIP_EDGES

        out = list(vals)
        for idx in _FLIP_EDGES[v]:
            out[idx] = -out[idx]
        return tuple(out)

    for v in (1, 2, 3, 4):
        assert flip(flip(q.values(), v), v) == q.values()


def test_classify_invariant_under_normalization():
    rnd = random.Random(11)
    for _ in range(200):
        vals = [rnd.uniform(-0.9, 0.9) for _ in range(4)]
        q = QuadLengths(*vals)
        try:
            base = classify(q)
        except SphflexError as exc:
            assert "refusing to guess" in str(exc)
            continue
        normalized, _ = antipodal_normalize(q)
        assert classify(normalized).tag == base.tag


def test_classify_invariant_under_parity_preserving_relabeling():
    # exchanging the two odd (or two even) vertices re-reads the cycle as
    # (d23, d12, d14, d34) resp. (d14, d34, d23, d12)
    rnd = random.Random(5)
    for _ in range(200):
        vals = [rnd.uniform(-0.9, 0.9) for _ in range(4)]
        d12, d23, d34, d14 = vals
        try:
            base = classify(QuadLengths(d12, d23, d34, d14)).tag
        except SphflexError as exc:
            assert "refusing to guess" in str(exc)
            continue
        swapped_odd = classify(QuadLengths(d23, d12, d14, d34)).tag
        swapped_even = classify(QuadLengths(d14, d34, d23, d12)).tag
        assert swapped_odd == base
        assert swapped_even == base


def rotation_symmetric_rhomboid(rng):
    half = rotation_about_axis([0.0, 0.0, 1.0], math.pi)
    r1, r2 = random_unit_point(rng), random_unit_point(rng)
    return [r1, r2, half.apply(r1), half.apply(r2)]


def reflection_symmetric_rhomboid(rng):
    n = random_unit_point(rng)

    def refl(p):
        return p - 2.0 * float(n @ p) * n

    r1, r2 = random_unit_point(rng), random_unit_point(rng)
    return [r1, r2, refl(r1), refl(r2)]


def test_rhomboid_component_rotation_branch():
    rng = np.random.default_rng(2)
    assert rhomboid_component(rotation_symmetric_rhomboid(rng)) == 1


def test_rhomboid_component_reflection_branch():
    rng = np.random.default_rng(3)
    assert rhomboid_component(reflection_symmetric_rhomboid(rng)) == 4


def test_rhomboid_component_antipode_toggles():
    rng = np.random.default_rng(4)
    pts = rotation_symmetric_rhomboid(rng)
    base = rhomboid_component(pts)
    assert base == 1
    flipped_odd = [-pts[0], pts[1], pts[2], pts[3]]
    flipped_even = [pts[0], -pts[1], pts[2], pts[3]]
    assert rhomboid_component(flipped_odd) == 3
    assert rhomboid_component(flipped_even) == 2


def test_rhomboid_component_rejects_other_types():
    rng = np.random.default_rng(6)
    pts = [random_unit_point(rng) for _ in range(4)]
    with pytest.raises(SphflexError, match="^realization classifies as general, not rhomboid$"):
        rhomboid_component(pts)


def test_diagonals_checks():
    rng = np.random.default_rng(7)
    assert diagonals_not_orthogonal_check(rotation_symmetric_rhomboid(rng))
    c1, c2 = 0.8, 0.5
    s1, s2 = math.sqrt(1 - c1 * c1), math.sqrt(1 - c2 * c2)
    lozenge_pts = [
        np.array([s1, 0, c1]),
        np.array([0, s2, c2]),
        np.array([-s1, 0, c1]),
        np.array([0, -s2, c2]),
    ]
    assert not diagonals_not_orthogonal_check(lozenge_pts)
