"""The command corpus, and every input file that a CLI invocation of the
tests reads.

A ``Command`` is an argv, the error it exits 1 with (None: it exits 0),
and the arguments a drawn number can take, ``{}`` marking where it goes.
An argv names an input file by its key in ``FILES``, which
``write_files`` writes and ``filled`` swaps for a path.
"""

import contextlib
import io
import json
import sys
from dataclasses import dataclass

from sphflex.cli import run
from sphflex.coloring import EdgeColoring
from sphflex.formats import coloring_to_list, graph_to_dict, lengths_to_dict
from sphflex.graphs import complete, complete_bipartite, cycle_graph, k33, triangle
from sphflex.spherical import LengthAssignment, SphericalRealization

from helpers import dump_edge_list, realization_to_dict
from reference import cda_seed, dixon1_seed

# numpy.ma loads lazily (np.unique pulls it in) and adds to peak memory;
# continuation is the one module on numpy's private _umath_linalg
TRACKED = ("numpy.ma", "sphflex.continuation")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    error: str | None = None
    numbers: tuple[str, ...] = ()


STAR = coloring_to_list(EdgeColoring.from_red_edges(k33(), [(1, 2), (1, 4), (1, 6)]))
_, CDA_LENGTHS, CDA_SEED = cda_seed()
_, DIXON1_LENGTHS, DIXON1_SEED = dixon1_seed(3, 3)
K55, K55_LENGTHS, K55_SEED = dixon1_seed(5, 5)
# K(3,7): vertices 10, 12 and 14 sort before 2 as JSON keys
K37 = complete_bipartite((1, 3, 5), (2, 4, 6, 8, 10, 12, 14))
RIGID = SphericalRealization({1: [1.0, 0.0, 0.0], 2: [0.0, 1.0, 0.0], 3: [0.0, 0.0, 1.0]})


def nested(key):
    """A JSON object whose ``key`` holds lists nested 1100 deep, past the
    decoder's recursion limit: text, as ``json.dumps`` cannot write it either."""
    return f'{{"{key}": {"[" * 1100}{"]" * 1100}}}'


TOO_DEEP = ": nested too deeply to read"


# JSON files as their data, edge lists and over-nested files as their text
FILES = {
    "K33": graph_to_dict(k33()),
    "K33_EDGES": dump_edge_list(k33()),
    "K8": dump_edge_list(complete(8)),
    "K37": graph_to_dict(K37),
    "C12": graph_to_dict(cycle_graph(12)),
    "K55": graph_to_dict(K55),
    "K55_LENGTHS": lengths_to_dict(K55_LENGTHS),
    "K55_SEED": realization_to_dict(K55_SEED),
    "STAR": {"coloring": STAR},
    "CDA_LENGTHS": lengths_to_dict(CDA_LENGTHS),
    "CDA_SEED": realization_to_dict(CDA_SEED),
    "DIXON1_LENGTHS": lengths_to_dict(DIXON1_LENGTHS),
    "DIXON1_SEED": realization_to_dict(DIXON1_SEED),
    "RIGID_LENGTHS": lengths_to_dict(LengthAssignment.induced(triangle(), RIGID)),
    "RIGID_SEED": realization_to_dict(RIGID),
    "DEEP_GRAPH": nested("vertices"),
    "DEEP_COLORING": nested("coloring"),
    "DEEP_LENGTHS": nested("lengths"),
    "DEEP_SEED": nested("placement"),
}

# the Dixon 1 K(3,3) loop traced to closure, and 40 steps of the CDA one
TRACE = ("trace", "--corpus", "k33", "--lengths", "DIXON1_LENGTHS", "--seed-realization", "DIXON1_SEED")
CDA_TRACE = (
    "trace", "--graph", "K33", "--lengths", "CDA_LENGTHS", "--seed-realization", "CDA_SEED", "--max-steps", "40"
)
RIGID_TRACE = ("trace", "--corpus", "k3", "--lengths", "RIGID_LENGTHS", "--seed-realization", "RIGID_SEED")
REALIZE_STAR = ("realize", "--corpus", "k33", "--samples", "4", "--format", "structured", "--coloring", "STAR")
LAMBDAS = ("classify-quad", "--lambdas", "0.35,0.35,0.15,0.15", "--format", "structured")
DIXON1_NUMBERS = ("--samples={}", "--c={},0.4,0.6", "--d={},0.5,0.7", "--s-min={}", "--s-max={}")
DIXON2_NUMBERS = ("--samples={}", "--alpha={}", "--beta={}", "--gamma={}", "--p1-min={}", "--p1-max={}")
CDA_NUMBERS = ("--samples={}", "--t-min={}", "--t-max={}", "--y2-sign={}", "--z5-sign={}")

COMMANDS = (
    Command(("verify",)),
    Command(("verify", "--format", "structured")),
    Command(("tables",)),
    Command(("tables", "--format", "structured")),
    Command(("colorings", "--corpus", "k33")),
    Command(("colorings", "--graph", "K33_EDGES", "--modulo-swap", "--format", "structured")),
    Command(("certify", "--corpus", "k33")),
    Command(("certify", "--graph", "K33", "--format", "structured")),
    Command(("certify", "--graph", "K8"), "28 edges exceeds the exhaustive enumeration budget of 25"),
    Command(("certify",), "no graph given; use --graph FILE or --corpus NAME"),
    Command(
        ("certify", "--graph", "DEEP_GRAPH"),
        'expected {"vertices": [v, ...], "edges": [[a, b], ...]}' + TOO_DEEP,
    ),
    Command(("realize", "--corpus", "k33", "--samples", "3"), numbers=("--samples={}", "--seed={}")),
    Command(REALIZE_STAR),
    Command(("realize", "--corpus", "k33", "--samples", "3", "--format", "tabular")),
    Command(("realize", "--corpus", "k33", "--seed=-1"), "--seed must be a non-negative integer, got -1"),
    Command(("realize", "--corpus", "k3"), "graph admits no NAP-coloring, nothing to realize"),
    Command(
        ("realize", "--corpus", "k33", "--coloring", "DEEP_COLORING"),
        'expected {"coloring": [[a, b, "red"|"blue"], ...]}' + TOO_DEEP,
    ),
    Command(("k33", "--kind", "dixon1", "--samples", "3"), numbers=DIXON1_NUMBERS),
    Command(("k33", "--kind", "dixon1", "--c", "0.2,,0.4,0.6"), "--c field 2 of '0.2,,0.4,0.6' is empty"),
    Command(("k33", "--kind", "dixon2", "--samples", "3", "--format", "structured"), numbers=DIXON2_NUMBERS),
    Command(("k33", "--kind", "cda", "--samples", "3", "--format", "tabular"), numbers=CDA_NUMBERS),
    Command(("classify-quad", "--deltas", "0.3,0.3,0.7,0.7"), numbers=("--deltas={},0.3,0.7,0.7", "--tol={}")),
    Command(LAMBDAS, numbers=("--lambdas={},0.35,0.15,0.15",)),
    Command(("classify-quad", "--deltas", "0.3,0.3,0.7,0.7,"), "--deltas field 5 of '0.3,0.3,0.7,0.7,' is empty"),
    Command(("classify-quad", "--deltas", "0.3,0.3,0.7"), "need four edge values (d12, d23, d34, d14)"),
    Command(CDA_TRACE),
    Command(TRACE, numbers=("--step={}", "--max-steps={}")),
    Command((*TRACE, "--max-steps", "3", "--format", "structured")),
    Command((*CDA_TRACE, "--format", "tabular")),
    Command(RIGID_TRACE, "corank 0 at seed: framework is rigid"),
    Command(
        ("trace", "--corpus", "k33", "--lengths", "DEEP_LENGTHS", "--seed-realization", "DIXON1_SEED"),
        'expected {"lengths": [[a, b, length], ...]}' + TOO_DEEP,
    ),
    Command(
        ("trace", "--corpus", "k33", "--lengths", "DIXON1_LENGTHS", "--seed-realization", "DEEP_SEED"),
        'expected {"placement": {"v": [x, y, z], ...}}' + TOO_DEEP,
    ),
)
# continuation stays loaded once a trace has run, so every trace command
# runs after every other one, or their checks would pass on nothing
assert list(COMMANDS) == sorted(COMMANDS, key=lambda command: command.argv[0] == "trace"), "a trace runs early"


def write_files(folder):
    """``{key: path}`` of the files of ``FILES``, written to ``folder``."""
    for key, data in FILES.items():
        (folder / key).write_text(data if isinstance(data, str) else json.dumps(data))
    return {key: str(folder / key) for key in FILES}


def filled(argv, paths):
    return [paths.get(arg, arg) for arg in argv]


def own_copy(argv, paths, folder, flag, data):
    """``argv`` filled from ``paths``, but with its own JSON file of ``data`` after ``flag``."""
    path = folder / argv[argv.index(flag) + 1]
    path.write_text(json.dumps(data))
    return filled(argv, {**paths, path.name: str(path)})


def outcome(argv):
    """``(exit code, stdout, stderr)`` of ``argv`` run in this process; a
    usage error raises ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_corpus(paths):
    """Run every command in this process, in order: the exit code and
    stderr of each, and the tracked modules loaded once it has run."""
    runs = []
    for command in COMMANDS:
        code, _, err = outcome(filled(command.argv, paths))
        runs.append((code, err, [module for module in TRACKED if module in sys.modules]))
    return runs
