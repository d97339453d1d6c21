"""The structural enumerators against the exhaustive scans they replaced,
and against the plain structural searches they grew from.

``enumerate_nap`` enumerates pole sets, ``flexibility_certificate`` runs a
branch and bound over connected vertex sets and ``enumerate_valid_cuts``
backtracks over per-vertex label counts; they must return exactly what the
2^|E| and 2^(2|V|) scans in ``enumeration.py`` return, order included, and
the smallest scanned mask as the certificate.  The two enumerators must
also return list for list what their slow paths in ``enumeration.py``
return: every independent pole set split afresh, and every count vector
expanded into every label mask.
"""

import logging

import networkx as nx
import pytest
from hypothesis import given

from sphflex.coloring import (
    EdgeColoring,
    enumerate_nap,
    flexibility_certificate,
    is_nac,
    nap_pole_partition,
)
from sphflex.cuts import enumerate_valid_cuts
from sphflex.errors import SphflexError
from sphflex.graphs import build_graph, complete_bipartite, cycle_graph

from enumeration import (
    CORPUS_GRAPHS,
    NAMED_GRAPHS,
    connected_graphs,
    nap_masks_by_pole_sets,
    nap_masks_by_scan,
    relabelled_pairs,
    valid_cuts_by_counts,
    valid_cuts_by_scan,
)
from helpers import is_laman_naive, path_graph

MAX_CUT_VERTICES = 8


def assert_nap_matches_scan(g):
    for modulo_swap in (False, True):
        fast = [c.mask for c in enumerate_nap(g, modulo_swap=modulo_swap)]
        assert fast == nap_masks_by_scan(g, modulo_swap=modulo_swap), (g, modulo_swap)
    scan = nap_masks_by_scan(g)
    cert = flexibility_certificate(g)
    assert (cert.mask if cert else None) == (scan[0] if scan else None), g


def assert_cuts_match_scan(g):
    if g.num_vertices > MAX_CUT_VERTICES:
        with pytest.raises(SphflexError, match="exhaustive; at most 8 vertices$"):
            enumerate_valid_cuts(g)
        return
    assert enumerate_valid_cuts(g) == valid_cuts_by_scan(g, True), g


def test_nap_matches_scan_on_small_connected_graphs():
    for g in connected_graphs(max_edges=8, max_vertices=9):
        assert_nap_matches_scan(g)


def test_cuts_match_scan_on_small_connected_graphs():
    for g in connected_graphs(max_edges=8, max_vertices=9):
        assert_cuts_match_scan(g)


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_nap_and_cuts_match_scan_on_named_graphs(name):
    g = NAMED_GRAPHS[name]()
    assert_nap_matches_scan(g)
    assert_cuts_match_scan(g)


# vertex count: Laman classes (OEIS A227117), classes with a NAP-coloring,
# NAP-colorings modulo swap, classes with a NAC-coloring, and classes with
# a NAC-coloring but no NAP-coloring
LAMAN_CENSUS = {
    3: (1, 0, 0, 0, 0),
    4: (1, 0, 0, 0, 0),
    5: (3, 1, 1, 1, 0),
    6: (13, 7, 15, 8, 1),
    7: (70, 56, 123, 58, 2),
}


def test_laman_census_of_the_atlas():
    # the atlas holds one graph per isomorphism class up to 7 vertices
    census = {n: [0] * 5 for n in LAMAN_CENSUS}
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        # a Laman graph is connected, and build_graph refuses one that is not
        if n not in census or not nx.is_connected(atlas_graph):
            continue
        g = build_graph(range(1, n + 1), [(a + 1, b + 1) for a, b in atlas_graph.edges])
        if not is_laman_naive(g):
            continue
        assert_nap_matches_scan(g)
        found = len(enumerate_nap(g, modulo_swap=True))
        # the 2^|E| scan, up to the first NAC-coloring
        nac = any(is_nac(EdgeColoring(g, mask)) for mask in range(1 << g.num_edges))
        for k, count in enumerate((1, found > 0, found, nac, nac and not found)):
            census[n][k] += count
    assert {n: tuple(row) for n, row in census.items()} == LAMAN_CENSUS


# ---------------------------------------------------------------------------
# the output-sensitive enumerators against their slow paths
# ---------------------------------------------------------------------------


ORACLE_GRAPHS = {
    **CORPUS_GRAPHS,
    **{
        f"K(2,{n})": (lambda n=n: complete_bipartite(range(1, 3), range(3, n + 3)))
        for n in range(1, 11)
    },
    **{f"C{n}": (lambda n=n: cycle_graph(n)) for n in range(3, 17)},
    **{f"P{m}": (lambda m=m: path_graph(m + 1)) for m in range(1, 17)},  # m edges
}


def assert_enumerators_match_slow_paths(g):
    for modulo_swap in (False, True):
        fast = [c.mask for c in enumerate_nap(g, modulo_swap=modulo_swap)]
        assert fast == nap_masks_by_pole_sets(g, modulo_swap=modulo_swap), (g, modulo_swap)
    if g.num_vertices > MAX_CUT_VERTICES:
        return
    assert enumerate_valid_cuts(g) == valid_cuts_by_counts(g), g


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_enumerators_match_slow_paths_on_named_graphs(name):
    assert_enumerators_match_slow_paths(ORACLE_GRAPHS[name]())


def test_enumerators_log_their_work_at_debug_only(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="sphflex"):
        sizes = [len(enumerate_nap(ORACLE_GRAPHS[f"K(2,{n})"](), False)) for n in range(1, 11)]
        cut_counts = [len(enumerate_valid_cuts(NAMED_GRAPHS[name]())) for name in ("C8", "prism")]
    records = [r for r in caplog.records if r.name.startswith("sphflex")]
    assert all(r.levelno == logging.DEBUG for r in records)
    nap = [r for r in records if r.name == "sphflex.coloring"]
    cut = [r for r in records if r.name == "sphflex.cuts"]
    assert len(nap) + len(cut) == len(records)
    assert [r.colorings for r in nap] == sizes == [2**n for n in range(1, 11)]
    # the separation bound keeps K(2,n) to a handful of pole sets; without
    # it all 2^n + 2 independent sets are split
    for n, r in enumerate(nap, start=1):
        assert 1 <= r.pole_sets <= n * n + 4, (n, r.pole_sets)
    # exactly {a1}, {a1, a2} and the chain {b1}, {b1, b2}, ..., {b1..bn}:
    # the bound drops {a2}, and any other set of b's when it skips a b
    assert [r.pole_sets for r in nap[1:]] == [n + 2 for n in range(2, 11)]
    assert [r.cuts for r in cut] == cut_counts == [344, 0]
    assert all(r.nodes > 0 for r in cut)
    standard = set(logging.makeLogRecord({}).__dict__) | {"message", "asctime"}
    assert all(set(r.__dict__) - standard == {"pole_sets", "colorings"} for r in nap)
    assert all(set(r.__dict__) - standard == {"nodes", "cuts"} for r in cut)
    assert capsys.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# property tests on random connected graphs
# ---------------------------------------------------------------------------


@given(relabelled_pairs())
def test_enumerators_match_slow_paths_on_random_graphs(pair):
    for g in pair:
        assert_enumerators_match_slow_paths(g)


@given(relabelled_pairs())
def test_nap_count_and_certificate_invariant_under_relabelling(pair):
    g, h = pair
    scan = nap_masks_by_scan(g)
    for modulo_swap in (False, True):
        expected = len(nap_masks_by_scan(g, modulo_swap=modulo_swap))
        assert len(enumerate_nap(h, modulo_swap=modulo_swap)) == expected
    assert (flexibility_certificate(h) is None) == (not scan)


@given(relabelled_pairs())
def test_raw_nap_set_closed_under_color_swap(pair):
    g, _ = pair
    full = (1 << g.num_edges) - 1
    masks = {c.mask for c in enumerate_nap(g, modulo_swap=False)}
    assert masks == set(nap_masks_by_scan(g))
    assert {mask ^ full for mask in masks} == masks


@given(relabelled_pairs())
def test_nap_colorings_round_trip_through_pole_partition(pair):
    g, _ = pair
    for c in enumerate_nap(g, modulo_swap=False):
        part = nap_pole_partition(c)
        assert part.poles
        # every edge has a non-pole endpoint, whose side gives the color
        red = [e for e in g.edges if e[0] in part.red_side or e[1] in part.red_side]
        assert EdgeColoring.from_red_edges(g, red) == c


@given(relabelled_pairs())
def test_valid_cut_count_invariant_under_relabelling(pair):
    g, h = pair
    assert len(enumerate_valid_cuts(h)) == len(valid_cuts_by_scan(g, True))
