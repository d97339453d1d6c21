import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphflex.coloring import is_nap
from sphflex.cuts import (
    MU_TABLE,
    DegreeTable,
    Equation,
    NormalCut,
    TypeTable,
    admissible_cases,
    align_type_table,
    all_normal_cuts,
    allowed_resolutions,
    build_pullback_system,
    coloring_from_cut,
    count_admissible_tables_raw,
    count_degree_table_orbits,
    count_degree_table_orbits_burnside,
    count_k33_subgraph_classes,
    cut_extensions,
    enumerate_valid_cuts,
    mu_lookup,
    mu_solutions,
    mu_system_feasible,
    nap_iff_separated_nonedge,
    theta,
    type_table,
)
from sphflex.errors import SphflexError
from sphflex.graphs import k22, k32, k33, triangle

import tables
from enumeration import valid_cuts_by_scan
from helpers import conjugate_cut, cut_for, normalize_cut, swapped_cut, tables_equivalent, unordered_cut
from predicates import cut_valid_for_bond_by_labels
from tables import all_degree_tables, orbit

T_OU = cut_for(k22(), {("P", 1), ("Q", 1), ("P", 2), ("P", 4)})
T_EU = cut_for(k22(), {("P", 2), ("Q", 2), ("P", 1), ("P", 3)})
T_OM = cut_for(k22(), {("P", 1), ("Q", 1), ("P", 2), ("Q", 4)})
T_EM = cut_for(k22(), {("P", 2), ("Q", 2), ("P", 1), ("Q", 3)})


def test_cut_validity_examples():
    g = k22()
    assert cut_valid_for_bond_by_labels(g, T_OU)
    bad = cut_for(g, {("P", 1), ("P", 2)})
    assert not cut_valid_for_bond_by_labels(g, bad)
    g3 = triangle()
    all_p = cut_for(g3, {("P", 1), ("P", 2), ("P", 3)})
    assert not cut_valid_for_bond_by_labels(g3, all_p)


def test_coloring_from_t_ou():
    col = coloring_from_cut(k22(), T_OU)
    assert col.graph.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert col.red_edges() == ((1, 2), (1, 4))


def test_swapping_sides_swaps_colors():
    col = coloring_from_cut(k22(), T_OU)
    swapped = coloring_from_cut(k22(), swapped_cut(T_OU))
    assert swapped.mask == col.mask ^ 0b1111


def test_coloring_from_apex_cut_is_star():
    g = k33()
    c = cut_for(g, NormalCut(1, "PPP").i_side())
    col = coloring_from_cut(g, c)
    reds = set(col.red_edges())
    assert reds == {(1, 2), (1, 4), (1, 6)}


def test_invalid_cut_rejected_for_coloring():
    g = k22()
    with pytest.raises(SphflexError, match="^cut is not bond-valid for this graph$"):
        coloring_from_cut(g, cut_for(g, {("P", 1), ("P", 2)}))


def test_nap_iff_separated_nonedge_examples():
    verdict, witness = nap_iff_separated_nonedge(k22(), T_OU)
    assert verdict and witness == (1, 3)
    g = k33()
    verdict, witness = nap_iff_separated_nonedge(g, cut_for(g, NormalCut(1, "PPP").i_side()))
    assert verdict and witness in {(1, 3), (1, 5)}


def test_nap_verdict_matches_coloring_exhaustively():
    # on every raw cut: P/Q conjugates are kept apart
    for g in (k22(), k32(), k33()):
        for cut in valid_cuts_by_scan(g, False):
            verdict, witness = nap_iff_separated_nonedge(g, cut)
            assert verdict == is_nap(coloring_from_cut(g, cut))
            assert (witness is not None) == verdict


def test_enumerate_valid_cuts_k22():
    assert len(enumerate_valid_cuts(k22())) == 4
    raw = valid_cuts_by_scan(k22(), False)
    assert len(raw) == 8
    named = {unordered_cut(c) for c in (T_OU, T_EU, T_OM, T_EM)}
    found = {unordered_cut(c) for c in enumerate_valid_cuts(k22())}
    # the four named cuts appear, up to conjugation
    for cut in (T_OU, T_EU, T_OM, T_EM):
        assert unordered_cut(cut) in found or unordered_cut(conjugate_cut(cut)) in found
    assert len(named) == 4


def test_enumerate_valid_cuts_k33_normal_forms():
    cuts_mod = enumerate_valid_cuts(k33())
    assert len(cuts_mod) == 24
    raw = valid_cuts_by_scan(k33(), False)
    assert len(raw) == 48
    forms = {normalize_cut(k33(), c) for c in raw}
    assert len(forms) == 48
    assert forms == set(all_normal_cuts())


def test_enumerate_valid_cuts_triangle_empty():
    assert enumerate_valid_cuts(triangle()) == []


def test_enumerate_valid_cuts_budget():
    from sphflex.graphs import complete

    with pytest.raises(SphflexError, match="exhaustive; at most 8 vertices$"):
        enumerate_valid_cuts(complete(9))


def test_normal_cut_sides_match_notation():
    g = k33()
    c = NormalCut(3, "PQP")
    assert c.i_side() == {("P", 3), ("Q", 3), ("P", 2), ("Q", 4), ("P", 6)}
    c2 = NormalCut(2, "PPQ")
    assert c2.i_side() == {("P", 2), ("Q", 2), ("P", 1), ("P", 3), ("Q", 5)}
    assert normalize_cut(g, cut_for(g, c.i_side())) == c


def test_mu_lookup_rows():
    assert mu_lookup("g") == (1, 1, 1, 1)
    assert mu_lookup("o", "coincide") == (1, 1, 1, 0)
    assert mu_lookup("r", 2) == (0, 1, 1, 0)
    with pytest.raises(SphflexError, match=r"^no multiplicity row for \('r', 5\)$"):
        mu_lookup("r", 5)
    assert len(MU_TABLE) == 13


def test_theta_rule():
    assert theta(1, 1, 1) == 1
    assert theta(2, 2, 2) == 4
    assert theta(1, 2, 2) == 2
    assert theta(2, 1, 1) == 2


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, 1, 2), "degrees must be 1 or 2, got (0, 1, 2)"),
        ((1, 3, 1), "degrees must be 1 or 2, got (1, 3, 1)"),
        ((2, 2, -1), "degrees must be 1 or 2, got (2, 2, -1)"),
        ((1.5, 1, 1), "degrees must be 1 or 2, got (1.5, 1, 1)"),
        ((None, 1, 1), "degrees must be 1 or 2, got (None, 1, 1)"),
        (("1", 2, 2), "degrees must be 1 or 2, got ('1', 2, 2)"),
        ((1, 2, float("nan")), "degrees must be 1 or 2, got (1, 2, nan)"),
        ((False, 1, 1), "degrees must be 1 or 2, got (False, 1, 1)"),
    ],
)
def test_theta_names_the_bad_triple(bad, message):
    with pytest.raises(SphflexError) as err:
        theta(*bad)
    assert str(err.value) == message


def test_theta_reads_bools_and_floats_by_value():
    # True == 1 and 2.0 == 2, so they pass the check and the rule
    assert theta(True, True, True) == 1
    assert theta(True, 2, 2) == 2
    assert theta(2.0, 2.0, 2.0) == 4
    assert theta(np.int64(1), 1, 1) == 1


ALL_TWO = DegreeTable(((2, 2, 2),) * 3)
CASE2_DEGREE = DegreeTable(((1, 1, 1), (1, 1, 1), (1, 1, 2)))
CASE3_DEGREE = DegreeTable(((2, 1, 1), (1, 2, 1), (1, 1, 2)))
CASE4_DEGREE = DegreeTable(((1, 1, 2), (1, 1, 2), (2, 2, 2)))


def test_type_table_all_general():
    assert type_table(ALL_TWO).grid == (("g",) * 3,) * 3


def test_type_table_case3_diagonal():
    tt = type_table(CASE3_DEGREE)
    for r in range(3):
        for c in range(3):
            assert tt.grid[r][c] == ("r/l" if r == c else "g")
    # the resolution displayed for this case (rhomboids on the diagonal)
    # is among the allowed ones
    rhom_diag = TypeTable(
        tuple(tuple("r" if r == c else "g" for c in range(3)) for r in range(3))
    )
    assert rhom_diag.grid in {t.grid for t in allowed_resolutions(tt)}


def test_type_table_case4():
    assert type_table(CASE4_DEGREE).grid == (
        ("g", "g", "e"),
        ("g", "g", "e"),
        ("o", "o", "g"),
    )


def test_type_table_case2_forced_resolution():
    tt = type_table(CASE2_DEGREE)
    res = allowed_resolutions(tt)
    assert len(res) == 1
    assert res[0].grid == (("r", "r", "e"), ("r", "r", "e"), ("o", "o", "l"))


def test_row_col_allowed_examples():
    assert allowed_resolutions(
        TypeTable((("r", "r", "e"), ("r", "r", "e"), ("o", "o", "l")))
    )
    assert allowed_resolutions(TypeTable((("g",) * 3,) * 3))
    assert not allowed_resolutions(
        TypeTable((("e", "e", "o"), ("g", "g", "g"), ("g", "g", "g")))
    )


def test_orbit_counts():
    assert count_degree_table_orbits() == 26
    assert count_degree_table_orbits_burnside() == 26.0
    assert count_k33_subgraph_classes() == 26


def test_orbit_counts_match_oracles_as_python_numbers():
    # verify prints repr(computed), so a numpy scalar would change its output
    pairs = [
        (count_degree_table_orbits(), tables.orbit_count_by_walk()),
        (count_degree_table_orbits_burnside(), tables.orbit_count_by_burnside()),
        (count_k33_subgraph_classes(), tables.subgraph_classes_by_walk()),
    ]
    for computed, oracle in pairs:
        assert computed == oracle
        assert type(computed) is type(oracle)
    assert repr(count_degree_table_orbits_burnside()) == "26.0"


def flat(grid):
    return tuple(x for row in grid for x in row)


def test_group_index_agrees_with_act_on_every_table():
    from sphflex.cuts import GROUP, GROUP_INDEX, TABLE_BITS, _act, _orbit_codes

    grids = [dt.grid for dt in all_degree_tables()]
    assert GROUP_INDEX.shape == (len(GROUP), 9)
    assert [flat(g) for g in grids] == [tuple(row) for row in (TABLE_BITS + 1).tolist()]
    code = {flat(g): t for t, g in enumerate(grids)}
    codes = _orbit_codes()
    for t, grid in enumerate(grids):
        cells = np.array(flat(grid))
        for k, gel in enumerate(GROUP):
            moved = flat(_act(grid, *gel))
            assert moved == tuple(cells[GROUP_INDEX[k]].tolist())
            assert codes[t, k] == code[moved]


def test_admissibility_is_constant_on_orbits():
    # the library tests one representative per orbit and adds orbit sizes
    admissible = {dt.grid for dt in tables.admissible_tables_by_scan()}
    for dt in all_degree_tables():
        verdicts = {g in admissible for g in orbit(dt.grid)}
        assert len(verdicts) == 1, dt


def test_admissible_counts_match_the_scan():
    raw = count_admissible_tables_raw()
    assert raw == len(tables.admissible_tables_by_scan())
    assert type(raw) is int
    assert admissible_cases() == tables.admissible_cases_by_walk()


def test_orbit_sizes_partition_512():
    seen = set()
    total = 0
    for dt in all_degree_tables():
        if dt.grid in seen:
            continue
        o = orbit(dt.grid)
        seen |= o
        total += len(o)
    assert total == 512


def test_admissible_cases_match_expected_tables():
    cases = admissible_cases()
    assert len(cases) == 4
    expected = [CASE2_DEGREE, CASE3_DEGREE, CASE4_DEGREE, ALL_TWO]
    for case, exp in zip(cases, expected):
        assert tables_equivalent(case.degree_table, exp)


def test_align_type_table_is_equivariant():
    # transporting a type table along any group element must agree with
    # recomputing the type table of the transported degree table; the
    # transpose leg swaps the odd/even deltoid letters, which this checks
    from sphflex.cuts import GROUP, _act

    samples = [
        ALL_TWO,
        CASE2_DEGREE,
        CASE3_DEGREE,
        CASE4_DEGREE,
        DegreeTable(((1, 1, 1), (1, 1, 1), (2, 2, 2))),
        DegreeTable(((1, 2, 1), (1, 1, 2), (2, 2, 2))),
    ]
    for dt in samples:
        tt = type_table(dt)
        for gel in GROUP:
            target = DegreeTable(_act(dt.grid, *gel))
            aligned = align_type_table(dt, tt, target)
            assert aligned is not None
            assert aligned.grid == type_table(target).grid


# ---------------------------------------------------------------------------
# pullback systems
# ---------------------------------------------------------------------------


def canon(apex, pattern):
    return NormalCut(apex, pattern).canonical()


@pytest.mark.parametrize("kind", ["om", "ou", "em", "eu"])
def test_cut_extensions_match_the_scan(kind):
    for k in (1, 3, 5):
        for l in (2, 4, 6):
            assert cut_extensions(k, l, kind) == tables.cut_extensions_by_scan(k, l, kind)
            assert len(cut_extensions(k, l, kind)) == 4


def test_cut_extension_lists():
    assert set(cut_extensions(5, 6, "om")) == {
        NormalCut(1, "PQP"),
        NormalCut(1, "PQQ"),
        NormalCut(3, "QPP"),
        NormalCut(3, "QPQ"),
    }
    assert set(cut_extensions(5, 6, "ou")) == {
        NormalCut(1, "PPP"),
        NormalCut(1, "PPQ"),
        NormalCut(3, "QQP"),
        NormalCut(3, "QQQ"),
    }


def by_quad(eqs, divisors=("om", "ou")):
    """The equations of ``build_pullback_system`` keyed (odd vertex, even
    vertex, divisor) in the order it documents, each checked to sum the
    extensions of its quadrilateral's cut."""
    keys = [(k, l, kind) for k in (1, 3, 5) for l in (2, 4, 6) for kind in divisors]
    assert len(eqs) == len(keys)
    for (k, l, kind), eq in zip(keys, eqs):
        assert set(eq.terms) == {nc.canonical() for nc in cut_extensions(k, l, kind)}
    return dict(zip(keys, eqs))


def case1_system():
    return build_pullback_system(
        ALL_TWO, type_table(ALL_TWO), {}, divisors=("om",)
    )


def test_case1_equation_for_standard_quad():
    eq = by_quad(case1_system(), ("om",))[5, 6, "om"]
    assert eq.rhs == 2
    assert set(eq.terms) == {
        canon(1, "PQP"),
        canon(1, "QPP"),
        canon(3, "PQP"),
        canon(3, "QPP"),
    }


def test_case1_parity_structure_and_infeasibility():
    eqs = case1_system()
    assert sum(e.rhs for e in eqs) == 18
    multiplicity = {}
    for e in eqs:
        for t in e.terms:
            multiplicity[t] = multiplicity.get(t, 0) + 1
    # every merged unknown occurs four times, so any integer solution puts
    # a multiple of four on the left against a total of 18
    assert set(multiplicity.values()) == {4}
    assert 18 % 4 != 0
    assert mu_system_feasible(eqs) is None


def case3_system(component):
    grid = tuple(tuple("r" if r == c else "g" for c in range(3)) for r in range(3))
    subs = {(1, 2): component, (3, 4): component, (5, 6): component}
    return build_pullback_system(
        CASE3_DEGREE, TypeTable(grid), subs, divisors=("om", "ou")
    )


def test_case3_type1_rhs_values():
    eqs = by_quad(case3_system(1))
    assert eqs[5, 6, "ou"].rhs == 0
    assert eqs[5, 6, "om"].rhs == 2
    assert eqs[5, 4, "om"].rhs == 1  # general quadrilateral 1236


def test_case3_type1_unique_solution():
    sols = mu_solutions(case3_system(1), max_solutions=3)
    assert len(sols) == 1
    nonzero = {k: v for k, v in sols[0].items() if v}
    assert nonzero == {
        canon(1, "PQQ"): 1,
        canon(3, "QPQ"): 1,
        canon(5, "QQP"): 1,
    }


def test_pullback_system_refuses_an_unresolved_type():
    # the three-rhomboid table with its 3-4 rhomboid left as 'r/l'
    grid = tuple(
        tuple(("r/l" if r == 1 else "r") if r == c else "g" for c in range(3)) for r in range(3)
    )
    assert TypeTable(grid).entry(3, 4) == "r/l" and TypeTable(grid).entry(1, 2) == "r"
    subs = {(1, 2): 1, (3, 4): 1, (5, 6): 1}
    with pytest.raises(
        SphflexError, match=r"^type of quadrilateral without \{3,4\} is unresolved$"
    ):
        build_pullback_system(CASE3_DEGREE, TypeTable(grid), subs)


def test_case3_type2_infeasible_with_general_quads():
    assert mu_system_feasible(case3_system(2)) is None
    # restricted to the three rhomboids alone the system still has the
    # all-apex-pattern solution, so the general quadrilaterals are what
    # refute it
    rhomboid_only = [
        e for (k, l, _), e in by_quad(case3_system(2)).items() if l == k + 1
    ]
    sols = mu_solutions(rhomboid_only, max_solutions=2)
    assert len(sols) >= 1


def test_conjugation_merging():
    assert canon(1, "QPP") == canon(1, "PQQ")
    assert NormalCut(1, "QPP").conjugate() == NormalCut(1, "PQQ")
    merged = {nc.canonical() for nc in all_normal_cuts()}
    assert len(merged) == 24


def test_normalize_cut_rejects_monochromatic_cut():
    g = k33()
    # removing both labels of the non-edge {1, 3} from one side gives a
    # bond-valid cut whose coloring is all red, hence no normal form
    all_labels = {(k, v) for v in range(1, 7) for k in "PQ"}
    i_side = all_labels - {("P", 1), ("P", 3)}
    c = cut_for(g, i_side)
    assert cut_valid_for_bond_by_labels(g, c)
    with pytest.raises(SphflexError, match="^cut has no normal form; is its coloring surjective"):
        normalize_cut(g, c)


def paper_systems():
    case2 = case3_system(2)
    return {
        "case1": case1_system(),
        "type1": case3_system(1),
        "type2": case2,
        "rhomboid-only": [e for (k, l, _), e in by_quad(case2).items() if l == k + 1],
    }


def keyed_items(solutions):
    return [list(sol.items()) for sol in solutions]


@pytest.mark.parametrize("max_solutions", [1, 2, 3])
@pytest.mark.parametrize("name", ["case1", "type1", "type2", "rhomboid-only"])
def test_mu_solutions_match_backtracking_on_paper_systems(name, max_solutions):
    eqs = paper_systems()[name]
    assert keyed_items(mu_solutions(eqs, max_solutions)) == keyed_items(
        tables.mu_solutions_by_backtracking(eqs, max_solutions)
    )


MERGED_CUTS = sorted({nc.canonical() for nc in all_normal_cuts()})


@st.composite
def small_systems(draw):
    """A few unknowns, right-hand sides -1..3 (so bounds up to 3), terms
    that may repeat and equations that may have no terms at all."""
    pool = draw(st.lists(st.sampled_from(MERGED_CUTS), min_size=1, max_size=5, unique=True))
    rows = draw(
        st.lists(
            st.tuples(st.lists(st.sampled_from(pool), max_size=4), st.integers(-1, 3)),
            min_size=1,
            max_size=5,
        )
    )
    return [Equation(tuple(terms), rhs) for terms, rhs in rows]


@settings(max_examples=300)
@given(small_systems(), st.integers(1, 3))
def test_mu_solutions_match_backtracking_on_random_systems(eqs, max_solutions):
    assert keyed_items(mu_solutions(eqs, max_solutions)) == keyed_items(
        tables.mu_solutions_by_backtracking(eqs, max_solutions)
    )


def test_termless_equation_with_nonzero_rhs_is_infeasible():
    assert mu_solutions([Equation((), 5)]) == []
    assert mu_system_feasible([Equation((), 5)]) is None
    assert mu_solutions(case3_system(1) + [Equation((), -1)]) == []
    assert mu_system_feasible([Equation((), 0)]) == {}
    assert mu_system_feasible([]) == {}


def test_mu_solutions_logs_nodes_and_solutions(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="sphflex"):
        found = mu_solutions(case3_system(1), max_solutions=3)
        again = mu_solutions(case3_system(1), max_solutions=3)
        none = mu_solutions([Equation((), 5)])
    records = [r for r in caplog.records if r.name.startswith("sphflex")]
    assert [r.solutions for r in records] == [len(found), len(again), len(none)] == [1, 1, 0]
    assert all(r.levelno == logging.DEBUG for r in records)
    # reaching the solution sets each unknown once, one node each
    assert records[0].nodes == records[1].nodes >= len(found[0])
    assert records[2].nodes == 0
    standard = set(logging.makeLogRecord({}).__dict__) | {"message", "asctime"}
    assert all(set(r.__dict__) - standard == {"nodes", "solutions"} for r in records)
    assert capsys.readouterr() == ("", "")


def test_allowed_resolutions_match_the_filter():
    all_unresolved = TypeTable((("r/l",) * 3,) * 3)
    for tt in [type_table(dt) for dt in all_degree_tables()] + [all_unresolved]:
        assert allowed_resolutions(tt) == tables.allowed_resolutions_by_filter(tt)
