"""File formats: structured JSON text plus a plain edge-list format.

All structured output is JSON with sorted keys, so identical inputs give
byte-identical files.  Graphs can also be read from and written to a bare
edge list ("a b" per line, vertices inferred).
"""

from __future__ import annotations

import json
from typing import Any

from .coloring import BLUE, RED, ColoringSet, EdgeColoring
from .graphs import Graph, build_graph
from .motions import MotionTrajectory, make_trajectory
from .spherical import LengthAssignment, SphericalRealization


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def graph_from_dict(data: dict[str, Any]) -> Graph:
    return build_graph(data["vertices"], [tuple(e) for e in data["edges"]])


def dump_graph(g: Graph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True)


def parse_edge_list(text: str) -> Graph:
    """Graph from "a b" lines; the vertex set is the union of endpoints."""
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        a, b = line.split()
        edges.append((int(a), int(b)))
    vertices = sorted({v for e in edges for v in e})
    return build_graph(vertices, edges)


def dump_edge_list(g: Graph) -> str:
    return "\n".join(f"{a} {b}" for a, b in g.edges) + "\n"


def load_graph_text(text: str) -> Graph:
    """Sniff JSON versus edge-list input."""
    if text.lstrip().startswith("{"):
        return graph_from_dict(json.loads(text))
    return parse_edge_list(text)


def lengths_to_dict(lam: LengthAssignment) -> dict[str, Any]:
    return {"lengths": [[a, b, lam.length(a, b)] for a, b in lam.edges()]}


def lengths_from_dict(data: dict[str, Any]) -> LengthAssignment:
    return LengthAssignment({(int(a), int(b)): float(v) for a, b, v in data["lengths"]})


def realization_to_dict(rho: SphericalRealization) -> dict[str, Any]:
    return {
        "placement": {str(v): [float(c) for c in rho.point(v)] for v in rho.vertices}
    }


def realization_from_dict(data: dict[str, Any]) -> SphericalRealization:
    return SphericalRealization(
        {int(v): [float(c) for c in p] for v, p in data["placement"].items()}
    )


def coloring_to_list(c: EdgeColoring) -> list[list[Any]]:
    return [[a, b, c.colors[(a, b)]] for a, b in c.graph.edges]


def coloring_from_list(g: Graph, triples: list[list[Any]]) -> EdgeColoring:
    return EdgeColoring.from_colors(
        g, {(int(a), int(b)): str(col) for a, b, col in triples}
    )


def coloring_set_to_dict(cs: ColoringSet) -> dict[str, Any]:
    return {
        "modulo_swap": cs.modulo_swap,
        "count": len(cs),
        "colorings": [coloring_to_list(c) for c in cs],
    }


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list, as ``dumps`` writes it, of items already encoded at
    the next indent level; ``indent`` is the list's own indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def dump_coloring_set(cs: ColoringSet) -> str:
    """``dumps(coloring_set_to_dict(cs))``, assembled from one text fragment
    per edge and colour instead of through the JSON encoder."""
    items = []
    graph = None
    for c in cs:
        if c.graph is not graph:
            graph = c.graph
            # fragments[i][bit]: edge i's triple, blue for bit 0, red for 1
            fragments = [
                tuple(
                    "      "
                    + _json_list([f"        {json.dumps(x)}" for x in (a, b, col)], "      ")
                    for col in (BLUE, RED)
                )
                for a, b in graph.edges
            ]
        triples = [pair[c.mask >> i & 1] for i, pair in enumerate(fragments)]
        items.append("    " + _json_list(triples, "    "))
    return (
        f'{{\n  "colorings": {_json_list(items, "  ")},\n'
        f'  "count": {json.dumps(len(cs))},\n'
        f'  "modulo_swap": {json.dumps(cs.modulo_swap)}\n}}\n'
    )


def trajectory_to_dict(traj: MotionTrajectory) -> dict[str, Any]:
    return {
        "kind": traj.kind,
        "graph": graph_to_dict(traj.graph),
        "lengths": lengths_to_dict(traj.lengths)["lengths"],
        "samples": [
            {
                "parameter": s.parameter,
                "placement": realization_to_dict(s.realization)["placement"],
                "injective": s.injective,
                "proper": s.proper,
            }
            for s in traj.samples
        ],
    }


def trajectory_from_dict(data: dict[str, Any]) -> MotionTrajectory:
    g = graph_from_dict(data["graph"])
    lam = lengths_from_dict({"lengths": data["lengths"]})
    frames = [
        (float(s["parameter"]), realization_from_dict(s))
        for s in data["samples"]
    ]
    return make_trajectory(g, lam, frames, data["kind"])


def trajectory_to_csv(traj: MotionTrajectory) -> str:
    """Tabular export: parameter, vertex coordinates, worst edge residual."""
    order = traj.graph.vertices
    header = ["parameter"]
    for v in order:
        header += [f"x{v}", f"y{v}", f"z{v}"]
    header.append("residual")
    rows = [",".join(header)]
    for s, worst in zip(traj.samples, traj.worst_edge_residuals()):
        cells = [repr(s.parameter)]
        for v in order:
            cells += [repr(float(c)) for c in s.realization.point(v)]
        cells.append(repr(float(worst)))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
