"""File formats: structured JSON text plus a plain edge-list format.

All structured output is JSON with sorted keys, so identical inputs give
byte-identical files.  Graphs can also be read from a bare edge list
("a b" per line, vertices inferred).
"""

from __future__ import annotations

import json
from numbers import Integral
from typing import Any

import numpy as np

from .coloring import BLUE, RED, EdgeColoring
from .errors import DegenerateTrajectoryError, SphflexError
from .graphs import Graph, build_graph
from .motions import MotionTrajectory
from .spherical import LengthAssignment, SphericalRealization, check_on_sphere


COLORING_SHAPE = '{"coloring": [[a, b, "red"|"blue"], ...]}'


def _field(data: Any, key: str, kind: type, shape: str) -> Any:
    """``data[key]``, a ``kind``, of a file whose top level must be ``shape``."""
    if not (isinstance(data, dict) and isinstance(data.get(key), kind)):
        raise SphflexError(f'expected {shape}: no {kind.__name__} under "{key}"')
    return data[key]


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def graph_from_dict(data: dict[str, Any]) -> Graph:
    shape = '{"vertices": [...], "edges": [[a, b], ...]}'
    vertices, edges = (_field(data, key, list, shape) for key in ("vertices", "edges"))
    return build_graph(vertices, [tuple(e) for e in edges])


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


def load_graph_text(text: str) -> Graph:
    """Sniff JSON versus edge-list input."""
    if text.lstrip().startswith("{"):
        return graph_from_dict(json.loads(text))
    return parse_edge_list(text)


def lengths_to_dict(lam: LengthAssignment) -> dict[str, Any]:
    return {"lengths": [[a, b, lam.length(a, b)] for a, b in lam.edges()]}


def lengths_from_dict(data: dict[str, Any]) -> LengthAssignment:
    triples = _field(data, "lengths", list, '{"lengths": [[a, b, length], ...]}')
    return LengthAssignment({(int(a), int(b)): float(v) for a, b, v in triples})


def realization_to_dict(rho: SphericalRealization) -> dict[str, Any]:
    return {
        "placement": {str(v): [float(c) for c in rho.point(v)] for v in rho.vertices}
    }


def realization_from_dict(data: dict[str, Any]) -> SphericalRealization:
    placement = _field(data, "placement", dict, '{"placement": {"v": [x, y, z], ...}}')
    return SphericalRealization({int(v): [float(c) for c in p] for v, p in placement.items()})


def coloring_to_list(c: EdgeColoring) -> list[list[Any]]:
    return [[a, b, RED if c.mask >> i & 1 else BLUE] for i, (a, b) in enumerate(c.graph.edges)]


def coloring_from_list(g: Graph, triples: list[list[Any]]) -> EdgeColoring:
    """Coloring from one ``[a, b, "red"|"blue"]`` triple per edge of ``g``,
    either end first, in any order."""
    colors = {}
    for triple in triples:
        match triple:
            case [Integral() as a, Integral() as b, str() as color] if color in (RED, BLUE):
                e = (int(min(a, b)), int(max(a, b)))
            case _:
                raise SphflexError(f'coloring triple {triple!r} is not [a, b, "red"|"blue"]')
        if e not in g.edge_set:
            raise SphflexError(f"coloring triple {triple!r} names the non-edge {e}")
        if e in colors:
            raise SphflexError(f"edge {e} is colored more than once")
        colors[e] = color
    if len(colors) < len(g.edges):
        raise SphflexError(f"edges with no color: {[e for e in g.edges if e not in colors]}")
    return EdgeColoring.from_red_edges(g, [e for e, color in colors.items() if color == RED])


def coloring_from_dict(g: Graph, data: Any) -> EdgeColoring:
    return coloring_from_list(g, _field(data, "coloring", list, COLORING_SHAPE))


def coloring_set_to_dict(colorings: tuple[EdgeColoring, ...], modulo_swap: bool) -> dict[str, Any]:
    return {
        "modulo_swap": modulo_swap,
        "count": len(colorings),
        "colorings": [coloring_to_list(c) for c in colorings],
    }


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list, as ``dumps`` writes it, of items already encoded at
    the next indent level; ``indent`` is the list's own indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


_EDGE_BLOCK = 6
_BLOCK_BITS = (1 << _EDGE_BLOCK) - 1


def dump_coloring_set(colorings: tuple[EdgeColoring, ...], modulo_swap: bool) -> str:
    """``dumps(coloring_set_to_dict(colorings, modulo_swap))``, assembled from text fragments
    instead of through the JSON encoder.

    Each block of ``_EDGE_BLOCK`` consecutive edges has one text per
    coloring of its edges, joined from the edges' triples the first time
    a coloring uses it, so a coloring's item joins one text per block.
    """
    items = []
    graph = None
    for c in colorings:
        if c.graph is not graph:
            graph = c.graph
            # fragments[i][bit]: edge i's triple, blue for bit 0, red for 1
            label = {v: json.dumps(v) for v in graph.vertices}
            colors = (json.dumps(BLUE), json.dumps(RED))
            fragments = [
                tuple(
                    f"      [\n        {label[a]},\n        {label[b]},\n        {col}\n      ]"
                    for col in colors
                )
                for a, b in graph.edges
            ]
            # (first edge, its fragments, texts by the block's bits)
            blocks = [
                (start, fragments[start : start + _EDGE_BLOCK], {})
                for start in range(0, len(fragments), _EDGE_BLOCK)
            ]
        parts = []
        for start, pairs, texts in blocks:
            bits = c.mask >> start & _BLOCK_BITS
            text = texts.get(bits)
            if text is None:
                text = texts[bits] = ",\n".join(
                    [pair[bits >> i & 1] for i, pair in enumerate(pairs)]
                )
            parts.append(text)
        items.append(",\n".join(parts))
    tail = (
        f'  "count": {json.dumps(len(colorings))},\n'
        f'  "modulo_swap": {json.dumps(modulo_swap)}\n}}\n'
    )
    if not items:
        return f'{{\n  "colorings": [],\n{tail}'
    # the items joined once, straight into the result: each further copy
    # of a long text costs a fresh allocation
    return "".join(
        ['{\n  "colorings": [\n    [\n', "\n    ],\n    [\n".join(items), f"\n    ]\n  ],\n{tail}"]
    )


def trajectory_to_dict(traj: MotionTrajectory) -> dict[str, Any]:
    keys = [str(v) for v in traj.graph.vertices]
    injective, proper = traj.sample_flags()
    return {
        "kind": traj.kind,
        "graph": graph_to_dict(traj.graph),
        "lengths": lengths_to_dict(traj.lengths)["lengths"],
        "samples": [
            {"parameter": t, "placement": dict(zip(keys, xyz)), "injective": inj, "proper": prop}
            for t, xyz, inj, prop in zip(
                traj.parameters.tolist(), traj.points.tolist(), injective.tolist(), proper.tolist()
            )
        ],
    }


_JSON_BOOL = {False: "false", True: "true"}


def dump_trajectory(traj: MotionTrajectory) -> str:
    """``dumps(trajectory_to_dict(traj))``, with each sample written from
    one text template over its row of the stack instead of through the
    JSON encoder.

    Placement keys sort as strings, as ``dumps`` sorts them ("10" < "2").
    """
    head = dumps(
        {
            "graph": graph_to_dict(traj.graph),
            "kind": traj.kind,
            "lengths": lengths_to_dict(traj.lengths)["lengths"],
        }
    )
    order = traj.graph.vertices
    cols = sorted(range(len(order)), key=lambda i: str(order[i]))
    # "%r" of a float is its repr, as the JSON encoder writes it
    placement = ",\n".join(
        f'        "{order[i]}": [\n          %r,\n          %r,\n          %r\n        ]'
        for i in cols
    )
    coords = traj.points[:, cols].reshape(len(traj.points), -1).tolist()
    injective, proper = traj.sample_flags()
    items = [
        f'    {{\n      "injective": {_JSON_BOOL[inj]},\n      "parameter": {t!r},\n'
        f'      "placement": {{\n{placement % tuple(xyz)}\n      }},\n'
        f'      "proper": {_JSON_BOOL[prop]}\n    }}'
        for t, xyz, inj, prop in zip(
            traj.parameters.tolist(), coords, injective.tolist(), proper.tolist()
        )
    ]
    # the head ends in "\n}\n"; the samples go in as its last key
    return f'{head[:-3]},\n  "samples": {_json_list(items, "  ")}\n}}\n'


def trajectory_from_dict(data: dict[str, Any]) -> MotionTrajectory:
    """Trajectory from ``trajectory_to_dict`` data.

    All placements are parsed into one array and checked on the sphere in
    the order of the file, samples first and then keys, before they are
    put in the graph's vertex order.
    """
    g = graph_from_dict(data["graph"])
    lam = lengths_from_dict({"lengths": data["lengths"]})
    samples = data["samples"]
    placements = [s["placement"] for s in samples]
    labels = [int(v) for p in placements for v in p]
    pts = np.empty((len(labels), 3))
    pts[:] = [c for p in placements for c in p.values()]
    check_on_sphere(pts, labels)
    n = g.num_vertices
    if len(labels) != n * len(placements):
        raise DegenerateTrajectoryError("every sample must place the graph's vertices")
    by_sample = np.array(labels, dtype=np.int64).reshape(-1, n)
    perm = np.argsort(by_sample, axis=1)
    if not (np.take_along_axis(by_sample, perm, axis=1) == g.vertices).all():
        raise DegenerateTrajectoryError("every sample must place the graph's vertices")
    return MotionTrajectory(
        g,
        lam,
        np.take_along_axis(pts.reshape(-1, n, 3), perm[..., None], axis=1),
        [float(s["parameter"]) for s in samples],
        data["kind"],
    )


def trajectory_to_csv(traj: MotionTrajectory) -> str:
    """Tabular export: parameter, vertex coordinates, worst edge residual."""
    order = traj.graph.vertices
    header = ["parameter"]
    for v in order:
        header += [f"x{v}", f"y{v}", f"z{v}"]
    header.append("residual")
    table = np.concatenate(
        [
            traj.parameters[:, None],
            traj.points.reshape(len(traj.points), -1),
            traj.worst_edge_residuals()[:, None],
        ],
        axis=1,
    )
    row = ",".join(["%r"] * table.shape[1])
    return "\n".join([",".join(header), *(row % tuple(r) for r in table.tolist())]) + "\n"


def dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
