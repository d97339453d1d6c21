"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Tolerances are fixed here and not configurable.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from sphflex import continuation as cont
from sphflex import cuts, motions, quads
from sphflex.cli import CORPUS, EXPECTED_CASES
from sphflex.coloring import (
    EdgeColoring,
    enumerate_nap,
    find_alternating_path,
    is_nac,
    is_surjective,
)
from sphflex.errors import SphflexError
from sphflex.graphs import apex_double_triangle, k33, triangle
from sphflex.motions import cda_motion, dixon1_motion, dixon2_motion, polar_nap_motion
from sphflex.spherical import (
    LengthAssignment,
    SphericalRealization,
    degenerate_pairs,
    essentially_distinct,
    random_unit_point,
)

from enumeration import connected_graphs
from helpers import dixon2_involutions, gram_matrix
from reference import CDA, DIXON1, DIXON2, pinned, prefix
from rhomboids import diagonals_not_orthogonal_check
from trajectories import cda_rows_at


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_nap_enumeration_exactness():
    start = time.time()
    graphs = connected_graphs(max_edges=8, max_vertices=9)
    mismatches = 0
    for g in graphs:
        brute = [
            mask
            for mask in range(1 << g.num_edges)
            if is_surjective(EdgeColoring(g, mask))
            and find_alternating_path(EdgeColoring(g, mask)) is None
        ]
        fast = [c.mask for c in enumerate_nap(g, modulo_swap=False)]
        if brute != fast:
            mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        mismatches == 0 and elapsed <= 60.0,
        f"{len(graphs)} connected graphs with <= 8 edges, "
        f"{mismatches} mismatches against the walk-scan filter, {elapsed:.1f}s",
    )


def test_criterion_2_k33_nap_counts():
    mod = len(enumerate_nap(k33(), modulo_swap=True))
    raw = len(enumerate_nap(k33(), modulo_swap=False))
    report(2, (mod, raw) == (6, 12), f"K(3,3) NAP-colorings: {mod} mod swap, {raw} raw")


def test_criterion_3_nap_implies_nac_on_corpus():
    violations = sum(
        1
        for builder in CORPUS.values()
        for c in enumerate_nap(builder(), modulo_swap=False)
        if not is_nac(c)
    )
    report(3, violations == 0, f"{violations} NAP-but-not-NAC colorings in the corpus")


def test_criterion_4_polar_motions():
    angles = list(np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False))
    worst_residual = 0.0
    min_pair_gap = math.inf
    for coloring in enumerate_nap(k33(), modulo_swap=True):
        traj = polar_nap_motion(k33(), coloring, angles)
        worst_residual = max(worst_residual, traj.max_residual())
        grams = np.stack(
            [gram_matrix(s.realization).reshape(-1) for s in traj.samples]
        )
        for i in range(len(grams)):
            gaps = np.abs(grams[i + 1 :] - grams[i]).max(axis=1)
            if len(gaps):
                min_pair_gap = min(min_pair_gap, float(gaps.min()))
    g5 = apex_double_triangle()
    c5 = EdgeColoring.from_red_edges(g5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    north = polar_nap_motion(g5, c5, angles)
    south = polar_nap_motion(g5, c5, angles, pole_assignment={1: 1, 4: -1})
    flags = all((1, 4) in degenerate_pairs(s.realization)[0] for s in north.samples) and all(
        (1, 4) in degenerate_pairs(s.realization)[1] for s in south.samples
    )
    ok = worst_residual <= 1e-12 and min_pair_gap > 1e-9 and flags
    report(
        4,
        ok,
        "6 pole motions, 100 samples each: "
        f"max residual {worst_residual:.1e}, min pairwise Gram gap {min_pair_gap:.2e}, "
        f"collision flags on the 5-vertex graph: {flags}",
    )


def test_criterion_5_constant_diagonal_angle_motion():
    traj = cda_motion(CDA, list(np.linspace(7.2, 30.0, 50)))
    sphere_worst = max(
        abs(float(s.realization.point(v) @ s.realization.point(v)) - 1.0)
        for s in traj.samples
        for v in range(1, 7)
    )
    edge_worst = traj.max_residual()
    d56_worst = max(
        abs(float(s.realization.point(5) @ s.realization.point(6)) - 0.75)
        for s in traj.samples
    )
    consecutive = all(
        bool(essentially_distinct(a.realization, b.realization))
        for a, b in zip(traj.samples, traj.samples[1:])
    )
    a, e = Fraction(3, 5), Fraction(3, 4)
    exact = a**3 * e**2 + a**3 - a * e**2 == 0
    ok = (
        sphere_worst <= 1e-9
        and edge_worst <= 1e-9
        and d56_worst <= 1e-9
        and consecutive
        and exact
    )
    report(
        5,
        ok,
        f"50 samples on a feasible interval: sphere {sphere_worst:.1e}, "
        f"edges {edge_worst:.1e}, |d(5,6)-3/4| {d56_worst:.1e}, "
        f"consecutive distinct {consecutive}, exact relation {exact}",
    )


def _dixon1_residuals(traj):
    copl, orth = 0.0, 0.0
    for s in traj.samples:
        odd = np.stack([s.realization.point(v) for v in (1, 3, 5)])
        even = np.stack([s.realization.point(v) for v in (2, 4, 6)])
        so = np.linalg.svd(odd)[1][-1]
        se = np.linalg.svd(even)[1][-1]
        copl = max(copl, so, se)
        n_odd = np.linalg.svd(odd)[2][-1]
        n_even = np.linalg.svd(even)[2][-1]
        orth = max(orth, abs(float(n_odd @ n_even)))
    return copl, orth


def test_criterion_6_dixon1():
    gen = dixon1_motion(DIXON1, list(np.linspace(0.95, 1.35, 25)))
    kind = motions.detect_k33_motion_kind(gen)
    copl, orth = _dixon1_residuals(gen)
    res = cont.trace(
        k33(),
        gen.lengths,
        gen.samples[0].realization,
        config=cont.TraceConfig(step_size=0.05, max_steps=4000),
    )
    degree = cont.empirical_map_degree(res.trajectory, {5, 6})
    ok = (
        kind == "dixon1"
        and copl <= 1e-10
        and orth <= 1e-10
        and res.closed
        and degree == 4
    )
    report(
        6,
        ok,
        f"detector: {kind}, cocircularity {copl:.1e}, orthogonality {orth:.1e}, "
        f"loop closed {res.closed}, largest real fiber forgetting (5,6), "
        f"over every component: {degree}",
    )


def test_criterion_7_dixon2():
    traj = dixon2_motion(DIXON2, list(np.linspace(0.45, 0.62, 20)))
    first = traj.samples[0].realization
    drift = max(
        abs(
            float(s.realization.point(i) @ s.realization.point(j))
            - float(first.point(i) @ first.point(j))
        )
        for s in traj.samples
        for i in (1, 3, 5, 7)
        for j in (2, 4, 6, 8)
    )
    tau, sigma, rho = dixon2_involutions()
    comp = float(np.abs(tau @ sigma @ rho - np.eye(3)).max())
    sub = traj.restrict(range(1, 7))
    kind = motions.detect_k33_motion_kind(sub)
    ok = drift <= 1e-9 and comp <= 1e-10 and kind == "dixon2"
    report(
        7,
        ok,
        f"16 inner products drift {drift:.1e}, involution composition {comp:.1e}, "
        f"dropped-pair detector: {kind}",
    )


def test_criterion_8_combinatorial_facts():
    orbits = cuts.count_degree_table_orbits()
    cases = cuts.admissible_cases()
    case_match = len(cases) == 4 and all(
        cuts.align_type_table(
            c.degree_table, c.type_table, cuts.DegreeTable(exp["degree"])
        )
        is not None
        for c, exp in zip(cases, EXPECTED_CASES)
    )

    all_two = cuts.DegreeTable(((2, 2, 2),) * 3)
    case1 = cuts.build_pullback_system(
        all_two, cuts.type_table(all_two), {}, divisors=("om",)
    )
    infeasible1 = cuts.mu_system_feasible(case1) is None

    dt3 = cuts.DegreeTable(((2, 1, 1), (1, 2, 1), (1, 1, 2)))
    tt3 = cuts.TypeTable(
        tuple(tuple("r" if r == c else "g" for c in range(3)) for r in range(3))
    )
    diag = {(1, 2): 1, (3, 4): 1, (5, 6): 1}
    sols = cuts.mu_solutions(
        cuts.build_pullback_system(dt3, tt3, diag, ("om", "ou")), max_solutions=3
    )
    want = {
        cuts.NormalCut(1, "PQQ").canonical(): 1,
        cuts.NormalCut(3, "QPQ").canonical(): 1,
        cuts.NormalCut(5, "QQP").canonical(): 1,
    }
    type1_unique = len(sols) == 1 and {k: v for k, v in sols[0].items() if v} == want

    diag2 = {(1, 2): 2, (3, 4): 2, (5, 6): 2}
    type2_infeasible = (
        cuts.mu_system_feasible(
            cuts.build_pullback_system(dt3, tt3, diag2, ("om", "ou"))
        )
        is None
    )
    ok = orbits == 26 and case_match and infeasible1 and type1_unique and type2_infeasible
    report(
        8,
        ok,
        f"orbits {orbits}, four admissible cases {case_match}, "
        f"all-general infeasible {infeasible1}, three-rhomboid component-1 unique "
        f"{type1_unique}, component-2 infeasible {type2_infeasible}",
    )


def _random_quad_instances(kind: str, count: int, rnd: random.Random, noise: float):
    out = []
    while len(out) < count:
        a = rnd.uniform(0.05, 0.9) * rnd.choice((1, -1))
        b = rnd.uniform(0.05, 0.9) * rnd.choice((1, -1))
        if abs(abs(a) - abs(b)) < 1e-3:
            continue
        alpha = rnd.choice((1, -1))
        if kind == "general":
            c = rnd.uniform(0.05, 0.9)
            d = rnd.uniform(0.05, 0.9)
            mags = sorted((abs(a), abs(b), c, d))
            if min(y - x for x, y in zip(mags, mags[1:])) < 1e-3:
                continue
            vals = (a, b, c, d)
        elif kind == "odd_deltoid":
            vals = (a, alpha * a, alpha * b, b)
        elif kind == "even_deltoid":
            vals = (a, b, alpha * b, alpha * a)
        elif kind == "rhomboid":
            vals = (a, b, alpha * a, alpha * b)
        else:  # lozenge
            profile = rnd.choice(((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)))
            vals = (a, profile[0] * a, profile[1] * a, profile[2] * a)
        noisy = tuple(v + rnd.uniform(-noise, noise) for v in vals)
        if any(abs(v) >= 1.0 for v in noisy):
            continue
        out.append(noisy)
    return out


def test_criterion_9_quad_classifier():
    tol = 1e-7
    noise = tol / 10.0
    rnd = random.Random(20240817)
    wrong = 0
    for kind in ("general", "odd_deltoid", "even_deltoid", "rhomboid", "lozenge"):
        for vals in _random_quad_instances(kind, 10_000, rnd, noise):
            got = quads.classify(quads.QuadLengths(*vals), tol=tol)
            if got.tag != kind:
                wrong += 1
    precedence = all(
        quads.classify(quads.QuadLengths(*(0.4 * s for s in signs))).tag == "lozenge"
        for signs in ((1, 1, 1, 1), (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1))
    )

    rhomboid_trace = pinned("rhomboid-K(2,2)").result
    rhomboid_ok = all(
        diagonals_not_orthogonal_check([s.realization.point(v) for v in (1, 2, 3, 4)])
        for s in rhomboid_trace.trajectory.samples
    )

    lozenge_trace = pinned("lozenge-K(2,2)").result
    lozenge_ok = all(
        not diagonals_not_orthogonal_check([s.realization.point(v) for v in (1, 2, 3, 4)])
        for s in lozenge_trace.trajectory.samples
    )
    ok = wrong == 0 and precedence and rhomboid_ok and lozenge_ok
    report(
        9,
        ok,
        f"50000 randomized classifications, {wrong} wrong; lozenge precedence "
        f"{precedence}; traced rhomboid diagonals never orthogonal {rhomboid_ok} "
        f"({len(rhomboid_trace.trajectory.samples)} samples); traced lozenge "
        f"diagonals always orthogonal {lozenge_ok} "
        f"({len(lozenge_trace.trajectory.samples)} samples)",
    )


def _cda_reference_grams():
    pieces = [
        np.linspace(7.0001, 120.0, 1200),
        -np.linspace(7.0001, 120.0, 1200),
        np.linspace(1e-4, 0.1428, 400),
        -np.linspace(1e-4, 0.1428, 400),
    ]
    refs = []
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for grid in pieces:
            rows, valid, _ = motions._cda_rows(grid, *signs)
            for t, pts in zip(grid[valid].tolist(), rows[valid]):
                refs.append(((t, signs), pts @ pts.T))
    return refs


def _refine_alignment(target, t0, signs, span):
    def f(t):
        try:
            pts = cda_rows_at(t, *signs)
        except SphflexError:
            return math.inf
        return float(np.abs(pts @ pts.T - target).max())

    lo, hi = t0 - span, t0 + span
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return f(0.5 * (lo + hi))


def test_criterion_10_continuation():
    # the first 100 steps of the CDA loop at step 0.03
    traj = prefix("cda", 100)
    refs = _cda_reference_grams()
    ref_arr = np.stack([g for _, g in refs]).reshape(len(refs), -1)
    gaps = np.empty_like(ref_arr)
    worst = 0.0
    for s in traj.samples:
        target = gram_matrix(s.realization)
        np.abs(np.subtract(ref_arr, target.reshape(-1), out=gaps), out=gaps)
        idx = int(gaps.max(axis=1).argmin())
        (t0, signs) = refs[idx][0]
        span = abs(t0) * 0.05 + 0.01
        worst = max(worst, _refine_alignment(target, t0, signs, span))
    d56 = max(
        abs(float(s.realization.point(5) @ s.realization.point(6)) - 0.75)
        for s in traj.samples
    )

    g3 = triangle()
    rng = np.random.default_rng(2)
    rho3 = SphericalRealization({v: random_unit_point(rng) for v in g3.vertices})
    lam3 = LengthAssignment.induced(g3, rho3)
    rigid = False
    try:
        cont.trace(g3, lam3, rho3)
    except SphflexError as exc:
        rigid = getattr(exc, "corank", None) == 0
    ok = worst <= 1e-6 and d56 <= 1e-8 and rigid
    report(
        10,
        ok,
        f"traced path matches the closed form within {worst:.1e} after alignment "
        f"(d(5,6) drift {d56:.1e}); triangle seed reported rigid: {rigid}",
    )
