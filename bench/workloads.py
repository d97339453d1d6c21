"""Workload definitions: seeded inputs, the ops that drive the package, and
the checks on every op's output.

A workload builds a list of cycles; a cycle is a list of ``Op``.  Inputs
are generated from the seed once, before timing starts, and the package
sees only the generated graphs, lengths, realizations and files.  Each op's
``run`` is timed; its ``check`` runs after the clock stops and raises
``CheckError`` on a wrong answer.

Run-to-run cost is kept independent of the seed by stratifying what the
seed draws: every cycle has the same graph sizes, the same rigid/flexible
split and the same spread of sample counts; the seed picks the edges,
labels, slopes, rotations and the order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import numpy as np

from sphflex import cli, continuation, coloring, cuts, formats, graphs, motions, quads
from sphflex.spherical import LengthAssignment, SphericalRealization, random_rotation

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)

BUDGET_MESSAGE = "exceeds the exhaustive enumeration budget"


class CheckError(Exception):
    """An op returned a wrong answer."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    refusal: bool = False  # the checked outcome is a budget refusal
    family: str = ""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """``sphflex.cli.run`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# graph generators
# ---------------------------------------------------------------------------


def bipartite(m: int, n: int) -> graphs.Graph:
    """K(m,n) with odd labels on one side and even labels on the other."""
    return graphs.complete_bipartite(range(1, 2 * m, 2), range(2, 2 * n + 1, 2))


def relabel(g: graphs.Graph, rng: np.random.Generator) -> graphs.Graph:
    """Same graph under a seeded injective relabeling into 1..99."""
    labels = rng.choice(np.arange(1, 100), size=g.num_vertices, replace=False)
    mapping = {v: int(x) for v, x in zip(g.vertices, labels)}
    return graphs.build_graph(
        mapping.values(), [(mapping[a], mapping[b]) for a, b in g.edges]
    )


def rigid_graph(n: int, m: int, rng: np.random.Generator) -> graphs.Graph:
    """Connected graph with no NAP-coloring: a random 2-tree plus extra edges.

    Every triangle of a NAP-coloring is monochromatic, so the triangle-
    connected 2-tree gets one color; an extra edge of the other color would
    have no monochromatic endpoint.
    """
    order = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
    edges = {tuple(sorted(p)) for p in combinations(order[:3], 2)}
    for v in order[3:]:
        a, b = sorted(edges)[rng.integers(len(edges))]
        edges |= {tuple(sorted((v, a))), tuple(sorted((v, b)))}
    rest = sorted(set(combinations(range(1, n + 1), 2)) - edges)
    for i in rng.choice(len(rest), size=m - len(edges), replace=False):
        edges.add(rest[i])
    return graphs.build_graph(range(1, n + 1), sorted(edges))


def flexible_graph(
    n: int, m: int, rng: np.random.Generator
) -> tuple[graphs.Graph, list[tuple[int, int]]]:
    """Connected graph with a planted NAP-coloring, and its red edges.

    Vertices split into poles (independent), a red side and a blue side;
    edges join the red side to itself or the poles (red) and the blue side
    to itself or the poles (blue), never red side to blue side.
    """
    splits = []
    for p in (1, 2):
        for r in range(1, n - p):
            b = n - p - r
            room = r * (r - 1) // 2 + b * (b - 1) // 2 + (r + b) * p
            if room >= m:
                splits.append((p, r, b))
    p, r, b = splits[rng.integers(len(splits))]
    verts = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
    poles, red, blue = verts[:p], verts[p : p + r], verts[p + r :]
    allowed = [
        tuple(sorted(e))
        for side in (red, blue)
        for e in list(combinations(side, 2)) + [(s, q) for s in side for q in poles]
    ]
    # random-order Kruskal gives a spanning tree, then extra allowed edges
    parent = {v: v for v in verts}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: set[tuple[int, int]] = set()
    shuffled = [allowed[i] for i in rng.permutation(len(allowed))]
    for a, c in shuffled:
        ra, rc = find(a), find(c)
        if ra != rc:
            parent[ra] = rc
            edges.add((a, c))
    for e in shuffled:
        if len(edges) >= m:
            break
        edges.add(e)
    red_set = set(red)
    red_edges = sorted(e for e in edges if e[0] in red_set or e[1] in red_set)
    return graphs.build_graph(range(1, n + 1), sorted(edges)), red_edges


def coloring_triples(g: graphs.Graph, red_edges) -> list[list[Any]]:
    red = {tuple(sorted(e)) for e in red_edges}
    return [[a, b, "red" if (a, b) in red else "blue"] for a, b in g.edges]


def graph_json(g: graphs.Graph) -> str:
    return json.dumps({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]})


class Files:
    """Input files of one workload process, in its own work directory."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.count = 0

    def write(self, text: str) -> str:
        path = os.path.join(self.workdir, f"in{self.count:05d}.json")
        self.count += 1
        with open(path, "w") as fh:
            fh.write(text)
        return path


# ---------------------------------------------------------------------------
# certify-family: the coloring layer
# ---------------------------------------------------------------------------

RANDOM_EDGE_COUNTS = range(8, 19)
BIPARTITE_SIDES = [(m, n) for m in range(2, 5) for n in range(m, 11) if m * n <= 20]
OVER_BUDGET_SIDES = [(5, 6), (6, 6)]


def _coloring_check(
    g: graphs.Graph,
    expected_count: int | None = None,
    planted: list[tuple[int, int]] | None = None,
) -> Callable[[Any], None]:
    def check(result: Any) -> None:
        (rc_cert, cert_text), (rc_col, col_text) = result
        expect(rc_cert == 0 and rc_col == 0, f"exit codes {rc_cert}, {rc_col}")
        cert = json.loads(cert_text)
        sets = json.loads(col_text)
        count = sets["count"]
        expect(count == len(sets["colorings"]), "count differs from list length")
        expect(sets["modulo_swap"] is True, "colorings not taken modulo swap")
        expect(
            cert["flexible_on_sphere"] == (count > 0),
            f"verdict {cert['flexible_on_sphere']} but {count} colorings",
        )
        if expected_count is not None:
            expect(count == expected_count, f"{count} colorings, expected {expected_count}")
        seen = {_nap_mask(g, triples) for triples in sets["colorings"]}
        expect(len(seen) == count, "duplicate colorings modulo swap")
        if cert["certificate"] is not None:
            expect(_nap_mask(g, cert["certificate"]) in seen, "certificate not enumerated")
        if planted is not None:
            mask = coloring.EdgeColoring.from_red_edges(g, planted).canonical_mask()
            expect(mask in seen, "planted NAP-coloring missing from the enumeration")

    return check


def _nap_mask(g: graphs.Graph, triples: list) -> int:
    """Canonical mask of a returned coloring, after checking it is NAP."""
    c = formats.coloring_from_list(g, triples)
    expect(coloring.is_surjective(c), "coloring is not surjective")
    expect(coloring.find_alternating_path(c) is None, "coloring has an alternating path")
    return c.canonical_mask()


def _certify_op(name: str, graph_args: list[str], check: Callable) -> Op:
    def run():
        rc_cert, cert, _ = cli_call(["certify", *graph_args, "--format", "structured"])
        rc_col, cols, _ = cli_call(
            ["colorings", *graph_args, "--modulo-swap", "--format", "structured"]
        )
        return (rc_cert, cert), (rc_col, cols)

    return Op(name, run, check)


def _refusal_op(name: str, graph_args: list[str]) -> Op:
    def run():
        return cli_call(["certify", *graph_args]), cli_call(
            ["colorings", *graph_args, "--modulo-swap"]
        )

    def check(result):
        for rc, out, err in result:
            expect(rc == 1 and BUDGET_MESSAGE in err, f"expected a budget refusal, got {rc}")

    return Op(name, run, check, refusal=True)


def certify_family(seed: int, cycles: int, files: Files) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 1])
    pinned = EXPECTED["nap_counts"]
    out = []
    for _ in range(cycles):
        ops = []
        for m in RANDOM_EDGE_COUNTS:
            n = min(10, (m + 3) // 2)
            g = rigid_graph(n, m, rng)
            path = files.write(graph_json(g))
            ops.append(_certify_op(f"rigid-e{m}", ["--graph", path], _coloring_check(g, 0)))
            n = min(10, (m + 3) // 2 + 1)
            g, red = flexible_graph(n, m, rng)
            path = files.write(graph_json(g))
            ops.append(
                _certify_op(f"flexible-e{m}", ["--graph", path], _coloring_check(g, planted=red))
            )
        for m, n in BIPARTITE_SIDES:
            g = relabel(bipartite(m, n), rng)
            path = files.write(graph_json(g))
            name = f"K({m},{n})"
            ops.append(_certify_op(name, ["--graph", path], _coloring_check(g, pinned[name])))
        for name in sorted(cli.CORPUS):
            g = cli.CORPUS[name]()
            ops.append(
                _certify_op(f"corpus-{name}", ["--corpus", name], _coloring_check(g, pinned[name]))
            )
        for k in (5, 6):
            g = relabel(graphs.complete(k), rng)
            path = files.write(graph_json(g))
            ops.append(_certify_op(f"K{k}", ["--graph", path], _coloring_check(g, 0)))
        for m, n in OVER_BUDGET_SIDES:
            path = files.write(graph_json(relabel(bipartite(m, n), rng)))
            ops.append(_refusal_op(f"K({m},{n})", ["--graph", path]))
        out.append([ops[i] for i in rng.permutation(len(ops))])
    return out


# ---------------------------------------------------------------------------
# paper-tables: the cut layer, with quads and cli
# ---------------------------------------------------------------------------

CUT_GRAPHS: dict[str, Callable[[], graphs.Graph]] = {
    "K(2,2)": graphs.k22,
    "K(3,2)": graphs.k32,
    "K(3,3)": graphs.k33,
    "prism3": graphs.three_prism,
    "K(3,4)": lambda: bipartite(3, 4),
    "K(4,4)": graphs.k44,
    "C8": lambda: graphs.cycle_graph(8),
}
QUADS_PER_BATCH = 400
LOZENGE_SIGNS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))


def _cli_fact_op(command: str) -> Op:
    def check(result):
        rc, out, _ = result
        expect(rc == 0, f"{command} exited {rc}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        expect(digest == EXPECTED["digests"][command], f"{command} output digest changed")
        if command == "verify":
            failed = [f["name"] for f in json.loads(out) if not f["passed"]]
            expect(not failed, f"verify facts failed: {failed}")

    return Op(command, lambda: cli_call([command, "--format", "structured"]), check)


def _cuts_op(name: str, g: graphs.Graph) -> Op:
    def check(result):
        expect(len(result) == EXPECTED["cut_counts"][name], f"{len(result)} cuts")
        for c in result:
            verdict, witness = cuts.nap_iff_separated_nonedge(g, c)
            expect(verdict == coloring.is_nap(cuts.coloring_from_cut(g, c)), "NAP verdict")
            expect(verdict == (witness is not None), "separated non-edge witness")

    return Op(f"cuts-{name}", lambda: cuts.enumerate_valid_cuts(g), check)


def _magnitudes(rng: np.random.Generator, k: int) -> list[float]:
    """k nonzero values in (0.05, 0.95) whose magnitudes differ by > 0.02."""
    while True:
        vals = rng.uniform(0.05, 0.95, k)
        if k == 1 or np.min(np.diff(np.sort(vals))) > 0.02:
            return [float(v) for v in vals]


def quad_batch(kind: str, rng: np.random.Generator) -> list[tuple[quads.QuadLengths, tuple]]:
    """Quadrilaterals built as ``kind``, with the sign profile they were built with."""
    out = []
    for _ in range(QUADS_PER_BATCH):
        signs = rng.choice((-1.0, 1.0), size=4)
        if kind == quads.GENERAL:
            x = _magnitudes(rng, 4)
            d = [s * v for s, v in zip(signs, x)]
            profile = ()
        elif kind == quads.LOZENGE:
            (x,) = _magnitudes(rng, 1)
            alpha, beta, gamma = LOZENGE_SIGNS[rng.integers(4)]
            d12 = signs[0] * x
            d = [d12, alpha * d12, beta * d12, gamma * d12]
            profile = (alpha, beta, gamma)
        else:
            x, y = _magnitudes(rng, 2)
            a = int(signs[2])
            u, v = signs[0] * x, signs[1] * y
            # positions (d12, d23, d34, d14) tied by d_first = a * d_second
            if kind == quads.ODD_DELTOID:  # d12 = a d23, d34 = a d14
                d = [a * u, u, a * v, v]
            elif kind == quads.EVEN_DELTOID:  # d12 = a d14, d23 = a d34
                d = [a * u, a * v, v, u]
            else:  # rhomboid: d12 = a d34, d14 = a d23
                d = [a * u, v, u, a * v]
            profile = (a,)
        out.append((quads.QuadLengths(*d), profile))
    return out


def _quads_op(kind: str, batch: list) -> Op:
    def run():
        return [quads.classify(q) for q, _ in batch]

    def check(result):
        for qt, (_, profile) in zip(result, batch):
            expect(qt.tag == kind, f"classified {qt.tag}, built {kind}")
            expect(tuple(qt.sign_profile) == profile, f"sign profile {qt.sign_profile}")

    return Op(f"classify-{kind}", run, check)


def paper_tables(seed: int, cycles: int, files: Files) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 2])
    kinds = (quads.GENERAL, quads.ODD_DELTOID, quads.EVEN_DELTOID, quads.RHOMBOID, quads.LOZENGE)
    out = []
    for _ in range(cycles):
        ops = [_cli_fact_op("verify"), _cli_fact_op("tables")]
        for name, build in CUT_GRAPHS.items():
            ops.append(_cuts_op(name, relabel(build(), rng)))
        for kind in kinds:
            ops.append(_quads_op(kind, quad_batch(kind, rng)))
        out.append([ops[i] for i in rng.permutation(len(ops))])
    return out


# ---------------------------------------------------------------------------
# trace-loops: continuation and linalg
# ---------------------------------------------------------------------------

DIXON1_SIDES = [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (6, 6)]
# the acceptance-test slopes; empirical_map_degree gives 4 on this loop
CANONICAL_C = (0.2, 0.4, 0.6)
CANONICAL_D = (0.3, 0.5, 0.7)
MAX_STEPS = 4000


def _slopes(rng: np.random.Generator, k: int, lo: float = 0.15, hi: float = 0.75) -> np.ndarray:
    """k increasing slopes from lo to hi, the inner ones jittered.

    The slope order is kept: the gauge anchors the first vertex, and which
    slope it carries changes the traced step count by up to 2.5x, while
    the jitter of inner slopes changes it by about 1 %.
    """
    vals = np.linspace(lo, hi, k)
    vals[1:-1] += rng.uniform(-0.3, 0.3, k - 2) * (hi - lo) / (k - 1)
    return vals


def dixon1_seed(
    m: int, n: int, c: Any, d: Any
) -> tuple[graphs.Graph, LengthAssignment, SphericalRealization]:
    """Odd side on the great circle {y = 0}, even side on {x = 0}."""
    g = bipartite(m, n)
    odd = [v for v in g.vertices if v % 2 == 1]
    even = [v for v in g.vertices if v % 2 == 0]
    placement = {}
    for v, ci in zip(odd, c):
        placement[v] = np.array([np.sqrt(1.0 - ci * ci), 0.0, ci])
    for v, dj in zip(even, d):
        placement[v] = np.array([0.0, np.sqrt(1.0 - dj * dj), dj])
    rho = SphericalRealization(placement)
    return g, LengthAssignment.induced(g, rho), rho


def rotated(rho: SphericalRealization, rng: np.random.Generator) -> SphericalRealization:
    rot = random_rotation(rng)
    return SphericalRealization({v: rot.apply(p) for v, p in rho.placement.items()})


def _trace_op(name: str, g, lam, rho, step: float, state: dict, cda: bool = False) -> Op:
    cfg = continuation.TraceConfig(step_size=step, max_steps=MAX_STEPS)

    def run():
        res = continuation.trace(g, lam, rho, config=cfg)
        state[name] = res
        return res

    def check(res):
        expect(res.closed and res.stop_reason == "loop_closed", f"stopped: {res.stop_reason}")
        if cda:
            drift = max(
                abs(float(s.realization.point(5) @ s.realization.point(6)) - 0.75)
                for s in res.trajectory.samples
            )
            expect(drift <= 1e-8, f"d(5,6) drift {drift:.2e}")

    return Op(f"trace-{name}", run, check)


def _degree_op(state: dict) -> Op:
    def run():
        return continuation.empirical_map_degree(state["K(3,3)"].trajectory, {5, 6})

    def check(deg):
        expect(deg == 4, f"projection degree {deg}")

    return Op("map-degree", run, check)


def trace_loops(seed: int, cycles: int, files: Files) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 3])
    cda_params = motions.cda_params_from_e(0.75)
    cda_gen = motions.cda_motion(cda_params, [8.0, 8.2])
    d2_gen = motions.dixon2_motion(motions.Dixon2Params(0.2, 0.15, 0.1), [0.45, 0.5])
    out = []
    for _ in range(cycles):
        state: dict = {}
        ops = []
        for m, n in DIXON1_SIDES:
            name = f"K({m},{n})"
            if (m, n) == (3, 3):
                g, lam, rho = dixon1_seed(3, 3, CANONICAL_C, CANONICAL_D)
                rho = rotated(rho, rng)
            else:
                g, lam, rho = dixon1_seed(m, n, _slopes(rng, m), _slopes(rng, n))
            ops.append(_trace_op(name, g, lam, rho, 0.05, state))
            if (m, n) == (3, 3):
                ops.append(_degree_op(state))
        rho = rotated(cda_gen.samples[0].realization, rng)
        ops.append(_trace_op("cda", cda_gen.graph, cda_gen.lengths, rho, 0.03, state, cda=True))
        rho = rotated(d2_gen.samples[0].realization, rng)
        ops.append(_trace_op("dixon2-K(4,4)", d2_gen.graph, d2_gen.lengths, rho, 0.05, state))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# realize-export: motions, spherical and formats
# ---------------------------------------------------------------------------

MIN_SAMPLES, MAX_SAMPLES = 50, 500
K33_KINDS = {"dixon1": motions.KIND_DIXON1, "dixon2": motions.KIND_DIXON2, "cda": motions.KIND_CDA}
FLEXIBLE_PER_CYCLE = 2


def k33_nap_colorings() -> list[list[tuple[int, int]]]:
    """Red edges of the K(3,3) NAP-colorings modulo swap, by brute force.

    A coloring is NAP when every edge has an endpoint whose edges share
    one color; this is the definition, independent of the package.
    """
    g_edges = [(a, b) for a in (1, 3, 5) for b in (2, 4, 6)]
    g_edges = sorted(tuple(sorted(e)) for e in g_edges)
    full = (1 << len(g_edges)) - 1
    found = []
    for mask in range(1, full):
        if mask > mask ^ full:
            continue
        red = {e for i, e in enumerate(g_edges) if mask >> i & 1}
        colors: dict[int, set] = {}
        for e in g_edges:
            for v in e:
                colors.setdefault(v, set()).add(e in red)
        if all(len(colors[a]) == 1 or len(colors[b]) == 1 for a, b in g_edges):
            found.append(sorted(red))
    return found


def _sample_counts(rng: np.random.Generator, slots: int, cycles: int) -> np.ndarray:
    """counts[cycle, slot]: each slot covers [50, 500] evenly over the cycles."""
    span = MAX_SAMPLES - MIN_SAMPLES
    out = np.empty((cycles, slots), dtype=int)
    for s in range(slots):
        strata = (rng.permutation(cycles) + rng.uniform(0, 1, cycles)) / cycles
        out[:, s] = MIN_SAMPLES + np.floor(strata * span).astype(int)
    return out


def _export_check(fmt: str, samples: int, vertices: int, kind: str | None) -> Callable:
    def check(result):
        (rc, text, _), parsed = result
        expect(rc == 0, f"exit code {rc}")
        if fmt == "tabular":
            rows = text.splitlines()
            expect(len(rows) == samples + 1, f"{len(rows)} CSV rows for {samples} samples")
            expect(all(r.count(",") == 3 * vertices + 1 for r in rows), "CSV column count")
            return
        traj, detected = parsed
        expect(len(traj.samples) == samples, f"{len(traj.samples)} samples")
        again = formats.dumps(formats.trajectory_to_dict(traj))
        expect(again == text, "JSON round trip is not byte-identical")
        if kind is not None:
            expect(detected == kind, f"detector says {detected}, generator {kind}")

    return check


def _export_op(name: str, argv: list[str], fmt: str, samples: int, vertices: int, kind) -> Op:
    def run():
        rc, text, err = cli_call([*argv, "--samples", str(samples), "--format", fmt])
        parsed = None
        if fmt == "structured" and rc == 0:
            traj = formats.trajectory_from_dict(json.loads(text))
            detected = motions.detect_k33_motion_kind(traj) if kind else None
            parsed = (traj, detected)
        return (rc, text, err), parsed

    return Op(name, run, _export_check(fmt, samples, vertices, kind))


def realize_export(seed: int, cycles: int, files: Files) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 4])
    k33_file = files.write(graph_json(graphs.k33()))
    k33_colorings = [
        files.write(json.dumps({"coloring": coloring_triples(graphs.k33(), red)}))
        for red in k33_nap_colorings()
    ]
    expect(len(k33_colorings) == EXPECTED["nap_counts"]["K(3,3)"], "K(3,3) colorings")
    slots = len(k33_colorings) + FLEXIBLE_PER_CYCLE + 2 * len(K33_KINDS)
    counts = _sample_counts(rng, slots, cycles)
    out = []
    for k in range(cycles):
        ops = []
        for i, path in enumerate(k33_colorings):
            fmt = ("structured", "tabular")[(i + k) % 2]
            argv = ["realize", "--graph", k33_file, "--coloring", path, "--seed", str(seed)]
            ops.append(_export_op(f"realize-K(3,3)-{i}", argv, fmt, counts[k, i], 6, None))
        for j in range(FLEXIBLE_PER_CYCLE):
            m = int(rng.integers(10, 19))
            g, red = flexible_graph(min(10, (m + 3) // 2 + 1), m, rng)
            argv = [
                "realize",
                "--graph",
                files.write(graph_json(g)),
                "--coloring",
                files.write(json.dumps({"coloring": coloring_triples(g, red)})),
                "--seed",
                str(seed),
            ]
            fmt = ("structured", "tabular")[(j + k) % 2]
            slot = len(k33_colorings) + j
            ops.append(_export_op(f"realize-e{m}", argv, fmt, counts[k, slot], g.num_vertices, None))
        slot = len(k33_colorings) + FLEXIBLE_PER_CYCLE
        for kind, label in K33_KINDS.items():
            argv = ["k33", "--kind", kind]
            if kind == "dixon1":
                # |c * s| <= 1 over the default s range [1, 1.25]
                c, d = _slopes(rng, 3, 0.15, 0.6), _slopes(rng, 3, 0.15, 0.6)
                argv += ["--c", ",".join(map(str, c.tolist())), "--d", ",".join(map(str, d.tolist()))]
            for fmt in ("structured", "tabular"):
                ops.append(_export_op(f"k33-{kind}", argv, fmt, counts[k, slot], 6, label))
                slot += 1
        out.append([ops[i] for i in rng.permutation(len(ops))])
    return out


Builder = Callable[[int, int, Files], list[list[Op]]]


FAMILIES: dict[str, Builder] = {
    "certify-family": certify_family,
    "paper-tables": paper_tables,
    "trace-loops": trace_loops,
    "realize-export": realize_export,
}


def joined(*families: str) -> Builder:
    """A workload whose cycle runs each family's cycle in turn."""

    def build(seed: int, cycles: int, files: Files) -> list[list[Op]]:
        parts = []
        for family in families:
            part = FAMILIES[family](seed, cycles, files)
            for op in (op for ops in part for op in ops):
                op.family = family
            parts.append(part)
        return [[op for part in parts for op in part[k]] for k in range(cycles)]

    return build


# Two workloads of two op families each: runs long enough to average over
# the host's speed drift leave room for no more than two in the run budget.
WORKLOADS: dict[str, Builder] = {
    "certify-tables": joined("certify-family", "paper-tables"),
    "trace-realize": joined("trace-loops", "realize-export"),
}
