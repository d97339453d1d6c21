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
from .spherical import LengthAssignment, SphericalRealization, Vec, check_on_sphere


COLORING_SHAPE = '{"coloring": [[a, b, "red"|"blue"], ...]}'


def _field(data: Any, key: str, kind: type, shape: str) -> Any:
    """``data[key]``, a ``kind``, of a file whose top level must be ``shape``."""
    if not (isinstance(data, dict) and isinstance(data.get(key), kind)):
        raise SphflexError(f'expected {shape}: no {kind.__name__} under "{key}"')
    return data[key]


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def graph_from_dict(data: dict[str, Any]) -> Graph:
    shape = '{"vertices": [v, ...], "edges": [[a, b], ...]}'
    vertices, edges = (_field(data, key, list, shape) for key in ("vertices", "edges"))
    # JSON numbers arrive as int and float; the numbers ABCs would cost
    # microseconds per check
    for v in vertices:
        if not isinstance(v, int):
            raise SphflexError(f"vertex {v!r} is not an integer label")
    if not edges:
        raise SphflexError('graph has no edges: "edges" is empty')
    pairs = []
    for edge in edges:
        match edge:
            case [int() as a, int() as b]:
                pairs.append((a, b))
            case _:
                raise SphflexError(f"edge {edge!r} is not [a, b] with integer labels a, b")
    return build_graph(vertices, pairs)


def parse_edge_list(text: str) -> Graph:
    """Graph from "a b" lines; the vertex set is the union of endpoints."""
    edges = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            a, b = (int(x) for x in line.split())
        except ValueError:
            raise SphflexError(
                f"line {number} {line!r} is not 'a b' with integer labels a, b"
            ) from None
        edges.append((a, b))
    if not edges:
        raise SphflexError("graph has no edges: no 'a b' line")
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
    lengths = {}
    for triple in triples:
        match triple:
            case [int() as a, int() as b, int() | float() as length]:
                e = (int(min(a, b)), int(max(a, b)))
            case _:
                raise SphflexError(
                    f"length entry {triple!r} is not [a, b, length] with integer labels a, b"
                )
        if e in lengths:
            raise SphflexError(f"length entry {triple!r} gives edge {e} a length more than once")
        lengths[e] = float(length)
    return LengthAssignment(lengths)


def realization_to_dict(rho: SphericalRealization) -> dict[str, Any]:
    return {
        "placement": {str(v): [float(c) for c in rho.point(v)] for v in rho.vertices}
    }


def realization_from_dict(data: dict[str, Any]) -> SphericalRealization:
    placement = _field(data, "placement", dict, '{"placement": {"v": [x, y, z], ...}}')
    points = {}
    for key, point in placement.items():
        match point:
            case [int() | float() as x, int() | float() as y, int() | float() as z] if (
                key.removeprefix("-").isdecimal()
            ):
                v = int(key)
            case _:
                raise SphflexError(
                    f'placement entry "{key}": {point!r} is not "v": [x, y, z] '
                    "with an integer label v"
                )
        if v in points:
            raise SphflexError(f'placement entry "{key}" places vertex {v} more than once')
        points[v] = [float(x), float(y), float(z)]
    return SphericalRealization(points)


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


# every bit of a float64 but its sign
_MAGNITUDE_BITS = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _float_texts(table: Vec) -> tuple[str, ...]:
    """``repr`` of every value of a float array in C order, as the JSON
    encoder writes floats, with the repr of each distinct magnitude taken
    once.

    ``repr(-x)`` is ``"-" + repr(x)`` for every float but NaN, whose repr
    drops the sign, so a value with its sign bit set (-0.0 among them)
    takes its magnitude's text with a "-" in front.
    """
    bits = np.ascontiguousarray(table, dtype=float).view(np.int64).ravel()
    distinct, index = np.unique(bits & _MAGNITUDE_BITS, return_inverse=True)
    texts = [repr(x) for x in distinct.view(np.float64).tolist()]
    texts += ["-" + t if t != "nan" else t for t in texts]
    index += len(distinct) * (bits < 0)
    return tuple(np.array(texts, dtype=object)[index].tolist())


_JSON_BOOL = {False: "false", True: "true"}


def dump_trajectory(traj: MotionTrajectory) -> str:
    """``dumps(trajectory_to_dict(traj))``, with the samples filled into
    one text template from the texts of the stack's values instead of
    written through the JSON encoder.

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
    placement = ",\n".join(
        f'        "{order[i]}": [\n          %s,\n          %s,\n          %s\n        ]'
        for i in cols
    )
    # a sample's template by its (injective, proper) flags; its slots take
    # the parameter and then the coordinates
    items = {
        (inj, prop): f'    {{\n      "injective": {_JSON_BOOL[inj]},\n      "parameter": %s,\n'
        f'      "placement": {{\n{placement}\n      }},\n'
        f'      "proper": {_JSON_BOOL[prop]}\n    }}'
        for inj in (False, True)
        for prop in (False, True)
    }
    injective, proper = traj.sample_flags()
    template = ",\n".join([items[flags] for flags in zip(injective.tolist(), proper.tolist())])
    count = len(traj.points)
    table = np.concatenate([traj.parameters[:, None], traj.points[:, cols].reshape(count, -1)], axis=1)
    # the head ends in "\n}\n"; the samples, never fewer than two, go in
    # as its last key
    samples = template % _float_texts(table)
    return f'{head[:-3]},\n  "samples": [\n{samples}\n  ]\n}}\n'


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
    row = ",".join(["%s"] * table.shape[1]) + "\n"
    return ",".join(header) + "\n" + row * len(table) % _float_texts(table)


def dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
