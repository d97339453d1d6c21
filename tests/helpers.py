"""Small constructors and writers that only the tests use."""

import json
from itertools import combinations
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from sphflex.coloring import EdgeColoring
from sphflex.cuts import Cut, DegreeTable, NormalCut, all_normal_cuts
from sphflex.formats import coloring_to_list, graph_to_dict
from sphflex.graphs import Graph, build_graph
from sphflex.motions import HALF_TURN_X, HALF_TURN_Y, HALF_TURN_Z
from sphflex import spherical
from sphflex.spherical import (
    ON_SPHERE_TOL,
    Rotation,
    SphericalRealization,
    Vec,
    _triples,
    distinct_from,
    random_unit_point,
)
from sphflex.errors import SphflexError

from tables import orbit

Label = tuple[str, int]  # ("P" | "Q", vertex)


def unit_point(x: float, y: float, z: float, tol: float = ON_SPHERE_TOL) -> Vec:
    p = np.array([x, y, z], dtype=float)
    if abs(p @ p - 1.0) > tol:
        raise SphflexError(f"point {p} is off the unit sphere by {abs(p @ p - 1.0):.3e}")
    return p


def is_laman_naive(g: Graph) -> bool:
    """Laman count by exhaustive subgraph counting: |E| = 2|V| - 3 and no
    k vertices span more than 2k - 3 edges.

    Exponential in |V|; meant for the small graphs of the tests.
    """
    n = g.num_vertices
    if g.num_edges != 2 * n - 3:
        return False
    for k in range(2, n + 1):
        for subset in combinations(g.vertices, k):
            sub = set(subset)
            m = sum(1 for a, b in g.edges if a in sub and b in sub)
            if m > 2 * k - 3:
                return False
    return True


def dump_graph(g: Graph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True)


def dump_edge_list(g: Graph) -> str:
    return "\n".join(f"{a} {b}" for a, b in g.edges) + "\n"


def forces_length_relation(g: Graph) -> bool:
    """True iff |E| > 2|V| - 4.

    With this many edges, any flexible spherical length assignment
    satisfies a nontrivial algebraic relation among the edge lengths.
    Minimally rigid graphs qualify, having 2|V| - 3 edges.
    """
    return g.num_edges > 2 * g.num_vertices - 4


def tables_equivalent(a: DegreeTable, b: DegreeTable) -> bool:
    return b.grid in orbit(a.grid)


def dixon2_involutions() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three half-turns (tau, sigma, rho) with tau o sigma o rho = id."""
    return HALF_TURN_X, HALF_TURN_Z, HALF_TURN_Y


def path_graph(n: int) -> Graph:
    verts = range(1, n + 1)
    return build_graph(verts, [(i, i + 1) for i in range(1, n)])


def star(leaves: int) -> Graph:
    return build_graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def apply_rotation(r: Rotation, rho: SphericalRealization) -> SphericalRealization:
    return SphericalRealization({v: r.apply(p) for v, p in rho.placement.items()})


def random_realization(vertices: Iterable[int], rng: np.random.Generator) -> SphericalRealization:
    """Each vertex at a random unit point, drawn from ``rng`` in the given order."""
    return SphericalRealization({v: random_unit_point(rng) for v in vertices})


def restrict_realization(rho: SphericalRealization, keep: Iterable[int]) -> SphericalRealization:
    kept = set(keep)
    return SphericalRealization({v: p for v, p in rho.placement.items() if v in kept})


def distinctness(r1: SphericalRealization, r2: SphericalRealization) -> tuple[bool, float, bool]:
    """``distinct_from`` of ``r2`` against ``r1``, both on one vertex set:
    the verdict, and the two quantities it compares with its thresholds,
    computed as it computes them: the Gram distance, and whether ``r1``
    spans space (some triple's |det| above ``ORIENT_DET_TOL``, read at the
    call so a patched value counts)."""
    order = r1.vertices
    ref = np.stack([r1.point(v) for v in order])
    pts = np.stack([r2.point(v) for v in order])[None]
    gram_dist = np.abs(pts @ np.swapaxes(pts, 1, 2) - ref @ ref.T).max(axis=(1, 2))
    dets = np.linalg.det(ref[_triples(len(ref))])
    spans = bool(dets.size) and bool(np.abs(dets).max() > spherical.ORIENT_DET_TOL)
    return bool(distinct_from(ref, pts)[0]), float(gram_dist[0]), spans


def gram_matrix(rho: SphericalRealization, order: Optional[Sequence[int]] = None) -> Vec:
    order = rho.vertices if order is None else order
    pts = np.stack([rho.point(v) for v in order])
    return pts @ pts.T


def marked_labels(g: Graph | Cut) -> tuple[Label, ...]:
    """The labels of a graph's or a cut's vertices in mask order: label k
    is bit k of a ``Cut``'s mask."""
    return tuple((kind, v) for v in g.vertices for kind in ("P", "Q"))


def cut_sides(c: Cut) -> tuple[frozenset[Label], frozenset[Label]]:
    """The I and J sides of a cut as sets of labels."""
    labels = marked_labels(c)
    I = frozenset(label for k, label in enumerate(labels) if c.mask >> k & 1)
    return I, frozenset(labels) - I


def _full(c: Cut) -> int:
    return (1 << 2 * len(c.vertices)) - 1


def swapped_cut(c: Cut) -> Cut:
    return Cut(c.vertices, c.mask ^ _full(c))


def conjugate_cut(c: Cut) -> Cut:
    p_bits = _full(c) // 3  # 0b0101...: the P label of every vertex
    return Cut(c.vertices, (c.mask & p_bits) << 1 | c.mask >> 1 & p_bits)


def cut_for(g: Graph, i_side: Iterable[Label]) -> Cut:
    """Cut of g's marked labels with the given I side."""
    bit = {label: k for k, label in enumerate(marked_labels(g))}
    return Cut(g.vertices, sum(1 << bit[label] for label in set(i_side)))


def unordered_cut(c: Cut) -> int:
    """The smaller of the masks of the cut and its swap."""
    return min(c.mask, c.mask ^ _full(c))


def normalize_cut(g: Graph, c: Cut) -> NormalCut:
    """Normal form of a surjective-coloring valid cut of K(3,3)."""
    for nc in all_normal_cuts():
        if unordered_cut(Cut(g.vertices, nc.mask)) == unordered_cut(c):
            return nc
    raise SphflexError("cut has no normal form; is its coloring surjective?")


def realization_to_dict(rho: SphericalRealization) -> dict[str, Any]:
    return {
        "placement": {str(v): [float(c) for c in rho.point(v)] for v in rho.vertices}
    }


def coloring_set_to_dict(colorings: tuple[EdgeColoring, ...], modulo_swap: bool) -> dict[str, Any]:
    """The data ``formats.dump_coloring_set`` writes, for the JSON encoder."""
    return {
        "modulo_swap": modulo_swap,
        "count": len(colorings),
        "colorings": [coloring_to_list(c) for c in colorings],
    }
