"""The structural enumerators against the exhaustive scans they replaced.

``enumerate_nap`` enumerates pole sets, ``flexibility_certificate`` runs a
branch and bound over connected vertex sets and ``enumerate_valid_cuts``
backtracks over per-vertex label counts; they must return exactly what the
2^|E| and 2^(2|V|) scans in ``enumeration.py`` return, order included, and
the smallest scanned mask as the certificate.
"""

import pytest
from hypothesis import given, settings

from sphflex.cli import CORPUS
from sphflex.coloring import (
    EdgeColoring,
    enumerate_nap,
    flexibility_certificate,
    nap_pole_partition,
)
from sphflex.cuts import enumerate_valid_cuts
from sphflex.errors import BudgetExceededError
from sphflex.graphs import (
    complete,
    complete_bipartite,
    cycle_graph,
    three_prism,
)

from enumeration import (
    connected_graphs,
    nap_masks_by_scan,
    relabeled_graphs,
    valid_cuts_by_scan,
)

MAX_CUT_VERTICES = 8

NAMED_GRAPHS = {
    **{
        f"K({m},{n})": (
            lambda m=m, n=n: complete_bipartite(range(1, m + 1), range(m + 1, m + n + 1))
        )
        for m in range(2, 5)
        for n in range(m, 20 // m + 1)
    },
    **{f"corpus-{name}": builder for name, builder in CORPUS.items()},
    "K5": lambda: complete(5),
    "K6": lambda: complete(6),
    "C8": lambda: cycle_graph(8),
    "prism": three_prism,
}


def assert_nap_matches_scan(g):
    for modulo_swap in (False, True):
        fast = [c.mask for c in enumerate_nap(g, modulo_swap=modulo_swap)]
        assert fast == nap_masks_by_scan(g, modulo_swap=modulo_swap), (g, modulo_swap)
    scan = nap_masks_by_scan(g)
    cert = flexibility_certificate(g)
    assert (cert.mask if cert else None) == (scan[0] if scan else None), g


def assert_cuts_match_scan(g):
    if g.num_vertices > MAX_CUT_VERTICES:
        with pytest.raises(BudgetExceededError):
            enumerate_valid_cuts(g)
        return
    for modulo_symmetry in (False, True):
        fast = enumerate_valid_cuts(g, modulo_symmetry=modulo_symmetry)
        assert fast == valid_cuts_by_scan(g, modulo_symmetry), (g, modulo_symmetry)


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


# ---------------------------------------------------------------------------
# property tests on random connected graphs
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@PROPERTY
@given(relabeled_graphs())
def test_nap_count_and_certificate_invariant_under_relabelling(pair):
    g, h = pair
    scan = nap_masks_by_scan(g)
    for modulo_swap in (False, True):
        expected = len(nap_masks_by_scan(g, modulo_swap=modulo_swap))
        assert len(enumerate_nap(h, modulo_swap=modulo_swap)) == expected
    assert (flexibility_certificate(h) is None) == (not scan)


@PROPERTY
@given(relabeled_graphs())
def test_raw_nap_set_closed_under_color_swap(pair):
    g, _ = pair
    full = (1 << g.num_edges) - 1
    masks = {c.mask for c in enumerate_nap(g, modulo_swap=False)}
    assert masks == set(nap_masks_by_scan(g))
    assert {mask ^ full for mask in masks} == masks


@PROPERTY
@given(relabeled_graphs())
def test_nap_colorings_round_trip_through_pole_partition(pair):
    g, _ = pair
    for c in enumerate_nap(g, modulo_swap=False):
        part = nap_pole_partition(c)
        assert part.poles
        # every edge has a non-pole endpoint, whose side gives the color
        red = [e for e in g.edges if e[0] in part.red_side or e[1] in part.red_side]
        assert EdgeColoring.from_red_edges(g, red) == c


@PROPERTY
@given(relabeled_graphs())
def test_valid_cut_count_invariant_under_relabelling(pair):
    g, h = pair
    for modulo_symmetry in (False, True):
        expected = len(valid_cuts_by_scan(g, modulo_symmetry))
        assert len(enumerate_valid_cuts(h, modulo_symmetry=modulo_symmetry)) == expected
