"""Small constructors and writers that only the tests use."""

import json
from itertools import combinations

import numpy as np

from sphflex.cuts import DegreeTable, orbit
from sphflex.formats import graph_to_dict
from sphflex.graphs import Graph
from sphflex.motions import HALF_TURN_X, HALF_TURN_Y, HALF_TURN_Z
from sphflex.spherical import ON_SPHERE_TOL, Vec
from sphflex.errors import SphflexError


def unit_point(x: float, y: float, z: float, tol: float = ON_SPHERE_TOL) -> Vec:
    p = np.array([x, y, z], dtype=float)
    if abs(p @ p - 1.0) > tol:
        raise SphflexError(f"point {p} is off the unit sphere by {abs(p @ p - 1.0):.3e}")
    return p


def is_laman_naive(g: Graph) -> bool:
    """Oracle variant of ``graphs.is_laman`` by exhaustive subgraph counting.

    Exponential in |V|; intended for cross-checking on small graphs.
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
