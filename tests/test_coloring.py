import itertools

import pytest

from sphflex.coloring import (
    EdgeColoring,
    enumerate_nap,
    find_alternating_path,
    flexibility_certificate,
    is_nac,
    is_nap,
    is_surjective,
    nap_pole_partition,
)
from sphflex.errors import SphflexError
from sphflex.graphs import (
    apex_double_triangle,
    build_graph,
    complete,
    complete_bipartite,
    cycle_graph,
    k22,
    k32,
    k33,
    three_prism,
    triangle,
)

from helpers import path_graph, star

SMALL_GRAPHS = [
    path_graph(4),
    triangle(),
    k22(),
    star(3),
    k32(),
    cycle_graph(5),
    apex_double_triangle(),
]


def all_colorings(g):
    for mask in range(1 << g.num_edges):
        yield EdgeColoring(g, mask)


def k32_figure_coloring():
    """K(3,2) with one 2-side vertex's star red and the other's blue."""
    g = k32()
    return EdgeColoring.from_red_edges(g, [(1, 2), (3, 2), (5, 2)])


def test_from_red_edges_rejects_non_edges():
    assert EdgeColoring.from_red_edges(k33(), [(2, 1), (1, 2)]).mask == 1
    with pytest.raises(SphflexError, match=r"non-edges \[\(1, 3\)\]"):
        EdgeColoring.from_red_edges(k33(), [(1, 2), (1, 3)])


def test_is_surjective_cases():
    assert not is_surjective(EdgeColoring(triangle(), 0b111))
    assert is_surjective(k32_figure_coloring())
    single = build_graph([1, 2], [(1, 2)])
    assert not is_surjective(EdgeColoring(single, 0b1))


def test_is_nap_k32_figure():
    assert is_nap(k32_figure_coloring())


def test_is_nap_rejects_alternating_path():
    g = path_graph(4)
    c = EdgeColoring.from_red_edges(g, [(1, 2), (3, 4)])
    assert not is_nap(c)
    assert find_alternating_path(c) is not None


def test_is_nap_k33_star():
    g = k33()
    c = EdgeColoring.from_red_edges(g, [(1, 2), (1, 4), (1, 6)])
    assert is_nap(c)


def test_path_scan_oracle_matches_local_criterion():
    for g in SMALL_GRAPHS:
        for c in all_colorings(g):
            expected = is_surjective(c) and find_alternating_path(c) is None
            assert is_nap(c) == expected, (g, c.mask)


def cycles_of(g):
    """Every simple cycle, as an edge set (2-regular connected subgraphs)."""
    edges = g.edges
    for k in range(3, len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            deg = {}
            for a, b in subset:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            verts = list(deg)
            adj = {v: [] for v in verts}
            for a, b in subset:
                adj[a].append(b)
                adj[b].append(a)
            seen = {verts[0]}
            stack = [verts[0]]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(verts):
                yield subset


def is_nac_oracle(c):
    if not is_surjective(c):
        return False
    red = set(c.red_edges())
    for cycle in cycles_of(c.graph):
        reds = sum(1 for e in cycle if e in red)
        if reds == 1 or len(cycle) - reds == 1:
            return False
    return True


def test_is_nac_cycle_examples():
    g = k22()
    one_blue = EdgeColoring.from_red_edges(g, [(1, 2), (2, 3), (3, 4)])
    assert not is_nac(one_blue)
    balanced = EdgeColoring.from_red_edges(g, [(1, 2), (2, 3)])
    assert is_nac(balanced)


def test_is_nac_matches_cycle_oracle():
    for g in SMALL_GRAPHS:
        for c in all_colorings(g):
            assert is_nac(c) == is_nac_oracle(c), (g, c.mask)


def test_nap_implies_nac_exhaustive_small():
    for g in SMALL_GRAPHS + [three_prism(), k33()]:
        for c in enumerate_nap(g, modulo_swap=False):
            assert is_nac(c)


def test_enumerate_nap_k33_counts():
    assert len(enumerate_nap(k33(), modulo_swap=True)) == 6
    assert len(enumerate_nap(k33(), modulo_swap=False)) == 12


def test_k33_nap_colorings_are_the_six_stars():
    stars = set()
    for v in range(1, 7):
        g = k33()
        red = [(v, w) for w in g.neighbors(v)]
        stars.add(EdgeColoring.from_red_edges(g, red).canonical_mask())
    found = {c.canonical_mask() for c in enumerate_nap(k33(), modulo_swap=True)}
    assert found == stars


def test_enumerate_nap_star_graph():
    assert len(enumerate_nap(star(3), modulo_swap=False)) == 6


def test_enumerate_matches_bruteforce_filter():
    for g in SMALL_GRAPHS:
        brute = [c.mask for c in all_colorings(g) if is_nap(c)]
        assert [c.mask for c in enumerate_nap(g, modulo_swap=False)] == brute


def test_certificate_does_not_enumerate_all_colorings():
    # star(24) has 2^24 - 2 NAP-colorings; the smallest is one red leaf
    assert flexibility_certificate(star(24)).mask == 1
    # C25 has about 1.7e5 candidate pole sets; the smallest coloring makes
    # the two edges at vertex 1 red
    assert flexibility_certificate(cycle_graph(25)).mask == 0b11


def test_enumerate_nap_bipartite_counts():
    assert len(enumerate_nap(complete_bipartite(range(1, 3), range(3, 13)))) == 512
    assert len(enumerate_nap(complete_bipartite(range(1, 5), range(5, 10)))) == 22


def test_budget_exceeded():
    with pytest.raises(SphflexError, match="^28 edges exceeds the exhaustive enumeration budget"):
        enumerate_nap(complete(8))


def test_flexibility_certificates():
    assert flexibility_certificate(k33()) is not None
    assert flexibility_certificate(triangle()) is None
    cert = flexibility_certificate(apex_double_triangle())
    assert cert is not None and is_nap(cert)


def test_apex_double_triangle_inner_red_coloring_is_nap():
    g = apex_double_triangle()
    inner_red = EdgeColoring.from_red_edges(
        g, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    )
    assert is_nap(inner_red)
    assert inner_red.canonical_mask() in {
        c.canonical_mask() for c in enumerate_nap(g)
    }


def test_pole_partition_k33_star():
    g = k33()
    c = EdgeColoring.from_red_edges(g, [(1, 2), (1, 4), (1, 6)])
    part = nap_pole_partition(c)
    assert part.poles == {2, 4, 6}
    assert part.red_side == {1}
    assert part.blue_side == {3, 5}


def test_pole_partition_k32_figure():
    # the two 2-side vertices carry the monochromatic stars, so the
    # bichromatic pole set is the whole 3-side
    part = nap_pole_partition(k32_figure_coloring())
    assert part.poles == {1, 3, 5}
    assert part.red_side == {2}
    assert part.blue_side == {4}


def test_pole_partition_star():
    g = star(3)
    c = EdgeColoring.from_red_edges(g, [(0, 1), (0, 2)])
    part = nap_pole_partition(c)
    assert part.poles == {0}


def test_pole_partition_rejects_non_nap():
    g = path_graph(4)
    c = EdgeColoring.from_red_edges(g, [(1, 2), (3, 4)])
    with pytest.raises(SphflexError, match="^coloring is not a NAP-coloring$"):
        nap_pole_partition(c)


def test_pole_set_is_independent():
    for g in SMALL_GRAPHS + [k33()]:
        for c in enumerate_nap(g, modulo_swap=False):
            part = nap_pole_partition(c)
            for a in part.poles:
                for b in part.poles:
                    assert (min(a, b), max(a, b)) not in g.edge_set


def test_is_nap_invariant_under_swap_and_automorphism():
    g = k33()
    # automorphisms: permute odd labels, permute even labels, swap sides
    perms = []
    for odd in itertools.permutations((1, 3, 5)):
        for even in itertools.permutations((2, 4, 6)):
            perms.append(dict(zip((1, 3, 5), odd)) | dict(zip((2, 4, 6), even)))
            perms.append(dict(zip((1, 3, 5), even)) | dict(zip((2, 4, 6), odd)))
    sample = [EdgeColoring(g, m) for m in (0b101010101, 0b000000111, 0b111000000)]
    for c in sample:
        base = is_nap(c)
        swapped = EdgeColoring(g, c.mask ^ ((1 << len(g.edges)) - 1))
        assert is_nap(swapped) == base
        for perm in perms:
            relabeled = EdgeColoring.from_red_edges(g, [(perm[a], perm[b]) for a, b in c.red_edges()])
            assert is_nap(relabeled) == base
