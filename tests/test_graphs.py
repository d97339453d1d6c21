import copy
import pickle

import pytest

from sphflex.errors import SphflexError
from sphflex.formats import load_graph_text, parse_edge_list
from sphflex.graphs import (
    build_graph,
    complete,
    induced_subgraph,
    k22,
    k32,
    k33,
    nonedges,
    three_prism,
    triangle,
)

from enumeration import connected_graphs
from helpers import dump_edge_list, dump_graph, is_laman_naive, path_graph


def test_build_k33_from_odd_even_pairs():
    g = build_graph(range(1, 7), [(i, j) for i in (1, 3, 5) for j in (2, 4, 6)])
    assert g == k33()
    assert g.num_edges == 9


def test_build_rejects_duplicate_edge():
    with pytest.raises(SphflexError, match="^edge \\(1, 2\\) appears more than once$"):
        build_graph([1, 2], [(1, 2), (2, 1)])


def test_build_rejects_disconnected():
    with pytest.raises(SphflexError, match="^graph is not connected$"):
        build_graph([1, 2, 3], [(1, 2)])


def test_build_rejects_self_loop():
    with pytest.raises(SphflexError, match="^self-loop at vertex 1$"):
        build_graph([1, 2], [(1, 1), (1, 2)])


def test_build_rejects_repeated_vertex_label():
    with pytest.raises(SphflexError, match="^vertex 2 is listed more than once$"):
        build_graph([1, 2, 2, 3], [(1, 2), (2, 3)])


def test_build_rejects_unknown_vertex():
    with pytest.raises(SphflexError, match="references an undeclared vertex"):
        build_graph([1, 2], [(1, 3)])


@pytest.mark.parametrize(
    "graph,expected",
    [(k33(), True), (triangle(), True), (complete(4), False), (three_prism(), True)],
)
def test_is_laman_known_cases(graph, expected):
    assert is_laman_naive(graph) is expected


def test_nonedges_k33_are_same_parity_pairs():
    assert nonedges(k33()) == {(1, 3), (1, 5), (3, 5), (2, 4), (2, 6), (4, 6)}


def test_nonedges_triangle_empty():
    assert nonedges(triangle()) == set()


def test_nonedges_path():
    assert nonedges(path_graph(3)) == {(1, 3)}


def test_induced_subgraph_quadrilateral():
    sub = induced_subgraph(k33(), [1, 2, 3, 4])
    assert sub == k22()


def test_induced_subgraph_k23():
    sub = induced_subgraph(k33(), [1, 3, 4, 5, 6])
    assert set(sub.edges) == {(1, 4), (1, 6), (3, 4), (3, 6), (4, 5), (5, 6)}


def test_induced_subgraph_disconnected_rejected():
    with pytest.raises(SphflexError, match="^induced subgraph is not connected$"):
        induced_subgraph(path_graph(3), [1, 3])


def test_edge_nonedge_partition_count():
    for g in (k33(), k32(), triangle(), three_prism(), path_graph(5)):
        n = g.num_vertices
        assert g.num_edges + len(nonedges(g)) == n * (n - 1) // 2


def test_serialize_round_trip():
    for g in (k33(), triangle(), three_prism()):
        assert load_graph_text(dump_graph(g)) == g
        assert parse_edge_list(dump_edge_list(g)) == g


def test_forces_length_relation_predicate():
    from helpers import forces_length_relation

    assert forces_length_relation(k33())  # 9 > 8
    assert not forces_length_relation(path_graph(4))  # 3 < 4
    # every minimally rigid graph clears the bound
    for g in (k33(), triangle(), three_prism()):
        if is_laman_naive(g):
            assert forces_length_relation(g)


def test_cached_maps_match_the_edges_on_small_connected_graphs():
    # each graph as generated (labels 1..n) and relabeled v -> 100 - 3v,
    # which reverses the vertex order and leaves gaps between labels
    for base in connected_graphs(max_edges=8, max_vertices=9):
        relabeled = build_graph(
            [100 - 3 * v for v in base.vertices],
            [(100 - 3 * a, 100 - 3 * b) for a, b in base.edges],
        )
        for g in (base, relabeled):
            order = sorted(g.vertices)
            assert list(g.vertices) == order
            assert dict(g.position) == {v: order.index(v) for v in order}
            assert g.ends == tuple((order.index(a), order.index(b)) for a, b in g.edges)
            assert all(i < j for i, j in g.ends)
            nbrs, incident = g.bits
            for i, v in enumerate(order):
                near = sorted({b for a, b in g.edges if a == v} | {a for a, b in g.edges if b == v})
                assert g.neighbors(v) == tuple(near)
                assert nbrs[i] == sum(1 << order.index(w) for w in near)
                assert incident[i] == sum(1 << k for k, e in enumerate(g.edges) if v in e)


def test_graph_pickles_and_copies_with_its_cached_maps():
    g = three_prism()
    assert g.position[6] == 5
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert twin == g and twin.bits == g.bits and dict(twin.position) == dict(g.position)
