"""File formats: structured JSON text plus a plain edge-list format.

All structured output is JSON with sorted keys, so identical inputs give
byte-identical files.  Graphs can also be read from a bare edge list
("a b" per line, vertices inferred).
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain
from typing import Any, Optional

import numpy as np

from .coloring import BLUE, RED, EdgeColoring
from .errors import SphflexError
from .graphs import Graph, build_graph
from .motions import MotionTrajectory
from .spherical import LengthAssignment, SphericalRealization, Vec, check_on_sphere


GRAPH_SHAPE = '{"vertices": [v, ...], "edges": [[a, b], ...]}'
LENGTHS_SHAPE = '{"lengths": [[a, b, length], ...]}'
PLACEMENT_SHAPE = '{"placement": {"v": [x, y, z], ...}}'
COLORING_SHAPE = '{"coloring": [[a, b, "red"|"blue"], ...]}'

# int() alone would also read "+1", "1_0", " 1" and other scripts' digits
_LABEL_TEXT = re.compile(r"-?[0-9]+")


def _label(entry: Any, text: bool = False) -> Optional[int]:
    """The vertex label a file entry holds, or None if it holds none.

    A JSON label is an integer, and ``true`` and ``false`` are not labels
    though bool is an int.  With ``text``, the entry is a string (a
    placement key, an edge-list word) and its label is ASCII digits after
    an optional minus sign.  Every reader of labels decides through here.
    """
    if text:
        try:
            return int(entry) if _LABEL_TEXT.fullmatch(entry) else None
        except ValueError:  # more digits than int() converts
            return None
    return entry if type(entry) is int else None


def _is_number(entry: Any) -> bool:
    """Whether a file entry is a number that a float holds: not ``true`` or
    ``false``, though bool is an int, nor an integer beyond the largest float."""
    return isinstance(entry, float) or type(entry) is int and abs(entry) <= sys.float_info.max


def read_json(text: str, shape: str) -> Any:
    """The JSON value of ``text``, a file whose top level must be ``shape``.
    Every file reader parses through here, so that nesting too deep for the
    decoder is refused like any other malformed file."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SphflexError(f"expected {shape}: nested too deeply to read") from None


def _field(data: Any, key: str, kind: type, shape: str) -> Any:
    """``data[key]``, a ``kind``, of a file whose top level must be ``shape``."""
    if not (isinstance(data, dict) and isinstance(data.get(key), kind)):
        raise SphflexError(f'expected {shape}: no {kind.__name__} under "{key}"')
    return data[key]


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def graph_from_dict(data: dict[str, Any]) -> Graph:
    vertices, edges = (_field(data, key, list, GRAPH_SHAPE) for key in ("vertices", "edges"))
    for v in vertices:
        if _label(v) is None:
            raise SphflexError(f"vertex {v!r} is not an integer label")
    if not edges:
        raise SphflexError('graph has no edges: "edges" is empty')
    pairs = []
    for edge in edges:
        match edge:
            case [a, b] if _label(a) is not None and _label(b) is not None:
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
        labels = [_label(word, text=True) for word in line.split()]
        if len(labels) != 2 or None in labels:
            raise SphflexError(f"line {number} {line!r} is not 'a b' with integer labels a, b")
        edges.append(tuple(labels))
    if not edges:
        raise SphflexError("graph has no edges: no 'a b' line")
    vertices = sorted({v for e in edges for v in e})
    return build_graph(vertices, edges)


def load_graph_text(text: str) -> Graph:
    """Sniff JSON versus edge-list input."""
    if text.lstrip().startswith("{"):
        return graph_from_dict(read_json(text, GRAPH_SHAPE))
    return parse_edge_list(text)


def lengths_to_dict(lam: LengthAssignment) -> dict[str, Any]:
    return {"lengths": [[a, b, lam.length(a, b)] for a, b in lam.edges()]}


def lengths_from_dict(data: dict[str, Any]) -> LengthAssignment:
    triples = _field(data, "lengths", list, LENGTHS_SHAPE)
    lengths = {}
    for triple in triples:
        match triple:
            case [a, b, length] if (
                _label(a) is not None and _label(b) is not None and _is_number(length)
            ):
                e = (min(a, b), max(a, b))
            case _:
                raise SphflexError(
                    f"length entry {triple!r} is not [a, b, length] with integer labels a, b"
                )
        if e in lengths:
            raise SphflexError(f"length entry {triple!r} gives edge {e} a length more than once")
        lengths[e] = float(length)
    return LengthAssignment(lengths)


def realization_from_dict(data: dict[str, Any]) -> SphericalRealization:
    placement = _field(data, "placement", dict, PLACEMENT_SHAPE)
    points = {}
    for key, point in placement.items():
        v = _label(key, text=True)
        match point:
            case [x, y, z] if v is not None and all(map(_is_number, point)):
                xyz = [float(x), float(y), float(z)]
            case _:
                raise SphflexError(
                    f'placement entry "{key}": {point!r} is not "v": [x, y, z] '
                    "with an integer label v"
                )
        if v in points:
            raise SphflexError(f'placement entry "{key}" places vertex {v} more than once')
        points[v] = xyz
    return SphericalRealization(points)


def coloring_to_list(c: EdgeColoring) -> list[list[Any]]:
    return [[a, b, RED if c.mask >> i & 1 else BLUE] for i, (a, b) in enumerate(c.graph.edges)]


def coloring_from_list(g: Graph, triples: list[list[Any]]) -> EdgeColoring:
    """Coloring from one ``[a, b, "red"|"blue"]`` triple per edge of ``g``,
    either end first, in any order."""
    colors = {}
    for triple in triples:
        match triple:
            case [a, b, str() as color] if (
                _label(a) is not None and _label(b) is not None and color in (RED, BLUE)
            ):
                e = (min(a, b), max(a, b))
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


_EDGE_BLOCK = 6
_BLOCK_BITS = (1 << _EDGE_BLOCK) - 1


def dump_coloring_set(colorings: tuple[EdgeColoring, ...], modulo_swap: bool) -> str:
    """The colorings, all of one graph, as ``dumps`` writes
    ``{"colorings": [coloring_to_list(c) for c in colorings], "count":
    len(colorings), "modulo_swap": modulo_swap}``, assembled from text
    fragments instead of through the JSON encoder.

    Each block of ``_EDGE_BLOCK`` consecutive edges has one text per
    coloring of its edges, joined from the edges' triples the first time
    a coloring uses it, so a coloring's item joins one text per block.
    """
    tail = (
        f'  "count": {json.dumps(len(colorings))},\n'
        f'  "modulo_swap": {json.dumps(modulo_swap)}\n}}\n'
    )
    if not colorings:
        return f'{{\n  "colorings": [],\n{tail}'
    graph = colorings[0].graph
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
    items = []
    for c in colorings:
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


def trajectory_from_dict(data: Any) -> MotionTrajectory:
    """Trajectory from ``trajectory_to_dict`` data.

    Every parameter and coordinate must be a number as the other readers
    take one, and the first sample that breaks this is named with its key.
    All placements are parsed into one array and checked on the sphere in
    the order of the file, samples first and then keys, before they are
    put in the graph's vertex order.
    """
    shape = '{"graph": {...}, "lengths": [...], "samples": [...], "kind": "..."}'
    g = graph_from_dict(_field(data, "graph", dict, shape))
    lam = lengths_from_dict(data)
    samples, kind = _field(data, "samples", list, shape), _field(data, "kind", str, shape)
    try:
        params = [s["parameter"] for s in samples]
        placements = [s["placement"] for s in samples]
        points = [xyz for p in placements for xyz in p.values()]
        # a file of floats passes on the types alone, at C speed; any other,
        # or one these reads fail on, is walked for the first bad entry
        plain = set(map(len, points)) <= {3} and set(map(type, chain(params, *points))) <= {float}
    except (TypeError, KeyError, AttributeError):
        plain = False
    if not plain:
        for k, s in enumerate(samples):
            s = s if isinstance(s, dict) else {}
            if not _is_number(s.get("parameter")):
                raise SphflexError(f'sample {k}: no number under "parameter"')
            if not isinstance(s.get("placement"), dict):
                raise SphflexError(f'sample {k}: no dict under "placement"')
            for key, xyz in s["placement"].items():
                if not (isinstance(xyz, list) and len(xyz) == 3 and all(map(_is_number, xyz))):
                    raise SphflexError(f'sample {k}: placement entry "{key}": {xyz!r} is not [x, y, z]')
    keys = [key for p in placements for key in p]
    # each distinct key is decided once, in the order of the file
    label = {key: _label(key, text=True) for key in dict.fromkeys(keys)}
    for key, v in label.items():
        if v is None:
            raise SphflexError(f'placement key "{key}" is not an integer label')
    labels = list(map(label.__getitem__, keys))
    pts = np.fromiter(chain.from_iterable(points), float, 3 * len(points)).reshape(-1, 3)
    check_on_sphere(pts, labels)
    n = g.num_vertices
    if len(labels) != n * len(placements):
        raise SphflexError("every sample must place the graph's vertices")
    by_sample = np.array(labels, dtype=np.int64).reshape(-1, n)
    perm = np.argsort(by_sample, axis=1)
    if not (np.take_along_axis(by_sample, perm, axis=1) == g.vertices).all():
        raise SphflexError("every sample must place the graph's vertices")
    pts = np.take_along_axis(pts.reshape(-1, n, 3), perm[..., None], axis=1)
    return MotionTrajectory(g, lam, pts, params, kind)


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
