import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphflex import formats
from sphflex.cli import MAX_SAMPLES, run, verify_suite
from sphflex.coloring import enumerate_nap
from sphflex.errors import SphflexError
from sphflex.graphs import k33, three_prism
from sphflex.motions import cda_motion, cda_params_from_e
from sphflex.spherical import LengthAssignment, SphericalRealization

from commands import CDA_TRACE, COMMANDS, FILES, REALIZE_STAR, STAR, TRACE
from commands import filled, outcome, own_copy, run_corpus
from enumeration import NAMED_GRAPHS, relabelled_pairs
from helpers import coloring_set_to_dict, dump_edge_list, dump_graph, realization_to_dict


LENGTHS, PLACEMENT = FILES["CDA_LENGTHS"]["lengths"], FILES["CDA_SEED"]["placement"]


def test_graph_round_trips():
    for g in (k33(), three_prism()):
        assert formats.load_graph_text(dump_graph(g)) == g
        assert formats.parse_edge_list(dump_edge_list(g)) == g


def test_lengths_round_trip():
    lam = LengthAssignment({(1, 2): 0.25, (2, 3): 0.5})
    again = formats.lengths_from_dict(formats.lengths_to_dict(lam))
    assert again.lengths == lam.lengths


def test_realization_round_trip():
    rho = SphericalRealization({1: [1.0, 0.0, 0.0], 2: [0.0, 1.0, 0.0]})
    again = formats.realization_from_dict(realization_to_dict(rho))
    for v in (1, 2):
        assert np.array_equal(again.point(v), rho.point(v))


def test_trajectory_round_trip_and_csv():
    traj = cda_motion(cda_params_from_e(0.75), [8.0, 9.0, 10.0])
    again = formats.trajectory_from_dict(formats.trajectory_to_dict(traj))
    assert again.kind == traj.kind
    assert again.max_residual() <= 1e-9
    csv = formats.trajectory_to_csv(traj)
    header = csv.splitlines()[0].split(",")
    assert header[0] == "parameter" and header[-1] == "residual"
    assert len(header) == 1 + 3 * 6 + 1
    assert len(csv.splitlines()) == 4


def test_cli_colorings_counts(capsys):
    assert run(["colorings", "--corpus", "k33", "--modulo-swap"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("6 NAP-colorings")


def test_cli_certify_triangle(capsys):
    assert run(["certify", "--corpus", "k3"]) == 0
    assert "not flexible on the sphere" in capsys.readouterr().out


def test_cli_certify_k33(capsys):
    assert run(["certify", "--corpus", "k33"]) == 0
    assert "flexible on the sphere" in capsys.readouterr().out


def test_cli_realize(capsys):
    assert run(["realize", "--corpus", "k33", "--samples", "6"]) == 0
    out = capsys.readouterr().out
    assert "kind: polar_nap" in out


def test_cli_k33_kinds(capsys):
    for kind in ("dixon1", "dixon2", "cda"):
        assert run(["k33", "--kind", kind, "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "max edge residual" in out


def test_cli_cda_off_the_reference_pair_names_the_supported_pair():
    # the CLI builds the reference pair only; the library names it
    with pytest.raises(SystemExit) as exit_:
        run(["k33", "--kind", "cda", "--e", "0.7"])
    assert exit_.value.code == 2
    with pytest.raises(SphflexError, match=r"available at \(a, e\) = \(3/5, 3/4\) only"):
        cda_motion(cda_params_from_e(0.7), [8.0, 8.2])


def test_cli_classify_quad(capsys):
    assert run(["classify-quad", "--deltas", "0.3,0.3,0.7,0.7"]) == 0
    assert "odd_deltoid" in capsys.readouterr().out
    assert run(["classify-quad", "--lambdas", "0.35,0.35,0.15,0.15"]) == 0
    assert "odd_deltoid" in capsys.readouterr().out


def test_cli_classify_quad_usage_error(capsys):
    assert run(["classify-quad"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_tables(capsys):
    assert run(["tables"]) == 0
    out = capsys.readouterr().out
    assert "degree-table orbits: 26" in out
    assert "infeasible" in out


def test_cli_verify_passes(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    with pytest.raises(SystemExit) as exit_:
        run(["verify", "--suite", "paper"])
    assert exit_.value.code == 2


def test_cli_trace_subcommand(inputs, capsys):
    assert run(filled(CDA_TRACE, inputs)) == 0
    assert "traced" in capsys.readouterr().out


@pytest.mark.parametrize("flag, field", [("--step", "step_size")])
def test_cli_trace_rejects_nan_settings(inputs, capsys, flag, field):
    assert run(filled(CDA_TRACE, inputs) + [flag, "nan"]) == 1
    err = capsys.readouterr().err
    assert f"trace configuration {field} must be finite and positive, got nan" in err


def test_cli_trace_names_missing_edge_length_and_seed_vertex(inputs, tmp_path, capsys):
    lengths = [row for row in LENGTHS if row[:2] != [5, 6]]
    assert run(own_copy(CDA_TRACE, inputs, tmp_path, "--lengths", {"lengths": lengths})) == 1
    assert capsys.readouterr().err == "error: lengths give no length for edge (5, 6)\n"
    placement = {v: p for v, p in PLACEMENT.items() if v != "6"}
    assert run(own_copy(CDA_TRACE, inputs, tmp_path, "--seed-realization", {"placement": placement})) == 1
    assert capsys.readouterr().err == "error: seed realization does not place vertex 6\n"


@pytest.mark.parametrize("flag", ["--c", "--d"])
@pytest.mark.parametrize("values", ["0.2,0.4,0.6,0.8", "0.3,0.5"])
def test_cli_dixon1_needs_three_slopes_per_flag(flag, values, capsys):
    assert run(["k33", "--kind", "dixon1", "--samples", "5", flag, values]) == 1
    count = len(values.split(","))
    assert capsys.readouterr().err == f"error: {flag} needs three slopes, got {count}\n"


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["k33"])  # missing required --kind
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["k33", "--kind", "dixon1", "--s-min", "nan"], "--s-min/--s-max must be finite, got nan and 1.25"),
        (["k33", "--kind", "dixon1", "--s-min", "inf"], "--s-min/--s-max must be finite, got inf and 1.25"),
        (["k33", "--kind", "dixon1", "--c", "nan,0.4,0.6"], "products c_i*d_j must lie in (-1,1) minus 0"),
        (["k33", "--kind", "dixon2", "--alpha", "1e308"], "alpha = 1e+308 must lie in (-1, 1) minus 0"),
        (["k33", "--kind", "dixon2", "--beta", "nan"], "beta = nan must lie in (-1, 1) minus 0"),
        (["k33", "--kind", "dixon2", "--gamma", "inf"], "gamma = inf must lie in (-1, 1) minus 0"),
        (["k33", "--kind", "dixon2", "--gamma", "0"], "gamma = 0 would park a vertex on an axis"),
        (["k33", "--kind", "cda", "--t-min", "1e308"], "the radicands overflow at t=1e+308"),
        (["k33", "--kind", "cda", "--t-min", "nan"], "--t-min/--t-max must be finite, got nan and 30.0"),
        (
            ["classify-quad", "--deltas", "0.3,0.3,0.7,0.7", "--tol", "nan"],
            "tol must be finite and positive, got nan",
        ),
        (
            ["classify-quad", "--deltas", "0.3,0.3,0.7,0.7", "--tol=-1"],
            "tol must be finite and positive, got -1.0",
        ),
    ],
)
def test_cli_names_the_bad_numeric_input(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# messages of a value that got past its check and failed downstream
LEAKED = re.compile(r"placed off the sphere|length .* for edge|Number of samples")
# an integer beyond the largest float: an int flag keeps it, a float flag reads inf
HUGE = "1" + "0" * 400
# realize --corpus k33 and each k33 --kind
SAMPLED = [c.argv for c in COMMANDS if "--samples={}" in c.numbers]


@pytest.mark.parametrize("argv", SAMPLED)
@pytest.mark.parametrize("count", ["-3", "0", "1", "x"])
def test_cli_samples_below_two_is_a_usage_error(argv, count, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, f"--samples={count}"])
    assert exc.value.code == 2
    assert "argument --samples:" in capsys.readouterr().err


# MAX_SAMPLES itself is never run, for the memory its stack takes
@pytest.mark.parametrize("argv", SAMPLED)
@pytest.mark.parametrize("count", [HUGE, str(MAX_SAMPLES + 1)], ids=["401 digits", "limit + 1"])
def test_cli_samples_above_the_limit_is_a_usage_error(argv, count, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, f"--samples={count}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"argument --samples: at most {MAX_SAMPLES} samples are allowed, got {count}\n")
    assert "Maximum allowed size" not in err


@settings(max_examples=60)
@given(
    st.builds(
        lambda case, value: [*case[0], case[1].format(value)],
        st.sampled_from([(command.argv, number) for command in COMMANDS for number in command.numbers]),
        st.sampled_from(("nan", "inf", "-inf", "0", "-1", "1e308", "-0.5", "2", HUGE)),
    )
)
# the step that overflowed the predictor before step_size had a bound
@example([*TRACE, "--step=1e308"])
# the step count that overflowed the check's conversion to a float
@example([*TRACE, f"--max-steps={HUGE}"])
def test_cli_numeric_flags_exit_cleanly(inputs, argv):
    try:
        code, _, err = outcome(filled(argv, inputs))
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert code in (0, 1), argv
    if code == 1:
        assert err.startswith("error: ") and not LEAKED.search(err), (argv, err)


def test_cli_trace_step_is_at_most_pi(inputs, capsys):
    argv = filled(TRACE, inputs)
    assert run([*argv, "--step=3.2"]) == 1
    assert capsys.readouterr().err == "error: trace configuration step_size must be at most pi, got 3.2\n"
    assert run([*argv, "--step=3.0"]) == 0
    assert "stop: loop_closed" in capsys.readouterr().out


def test_cli_trace_takes_a_step_count_beyond_the_largest_float(inputs, capsys):
    assert run([*filled(TRACE, inputs), f"--max-steps={HUGE}"]) == 0
    assert "stop: loop_closed" in capsys.readouterr().out


@pytest.mark.parametrize("coordinate", [1e155, 1e200, 1e308])
def test_cli_trace_refuses_a_huge_seed_coordinate_without_a_warning(inputs, tmp_path, capsys, coordinate):
    # the coordinate's square overflows to inf, which is off the sphere;
    # the overflow must not surface as a numpy warning (an error in the tests)
    seed = {"placement": {**PLACEMENT, "1": [coordinate, *PLACEMENT["1"][1:]]}}
    argv = own_copy(CDA_TRACE, inputs, tmp_path, "--seed-realization", seed)
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: vertex 1 placed off the sphere by inf\n"


def test_cli_list_flag_refuses_an_empty_field(capsys):
    for deltas, field in (("0.3, ,0.7,0.7", 2), ("", 1)):
        assert run(["classify-quad", "--deltas", deltas]) == 1
        assert capsys.readouterr().err == f"error: --deltas field {field} of {deltas!r} is empty\n"
    for deltas in ("0.3 0.3 0.7 0.7", "0.3, 0.3, 0.7, 0.7"):
        assert run(["classify-quad", "--deltas", deltas]) == 0
        assert "odd_deltoid" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["inf", "0", "1", "-0.5", "nan"])
def test_cli_classify_quad_names_bad_lambda(capsys, value):
    assert run(["classify-quad", f"--lambdas={value},0.35,0.15,0.15"]) == 1
    assert f"--lambdas value {float(value)} outside (0, 1)" in capsys.readouterr().err


def test_cli_cda_names_t_where_the_closed_form_leaves_the_sphere(capsys):
    argv = ["k33", "--kind", "cda", "--t-min", "1e6", "--t-max", "1e8", "--samples", "5"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "at t=1000000.0" in err
    assert not LEAKED.search(err), err


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

# one more than the largest float, as a JSON integer
BEYOND_FLOAT = int(sys.float_info.max) + 1

def test_cli_realize_reads_coloring_pairs_either_end_first(inputs, tmp_path, capsys):
    assert run(filled(REALIZE_STAR, inputs)) == 0
    expected = capsys.readouterr().out
    flipped = [[b, a, color] for a, b, color in reversed(STAR)]
    assert flipped[-1] == [2, 1, "red"]
    assert run(own_copy(REALIZE_STAR, inputs, tmp_path, "--coloring", {"coloring": flipped})) == 0
    assert capsys.readouterr().out == expected


def test_cli_realize_help_shows_the_coloring_file_shape(capsys):
    with pytest.raises(SystemExit):
        run(["realize", "--help"])
    assert formats.COLORING_SHAPE in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "flag, data, message",
    [
        ("--graph", {"vertices": 5, "edges": []}, 'no list under "vertices"'),
        ("--graph", {"vertices": [1, 2]}, 'no list under "edges"'),
        ("--lengths", [[1, 2, 0.3]], 'expected {"lengths": [[a, b, length], ...]}'),
        ("--seed-realization", {"placement": [1, 2]}, 'no dict under "placement"'),
        ("--coloring", STAR, formats.COLORING_SHAPE),
        ("--coloring", {"coloring": {"1": "red"}}, formats.COLORING_SHAPE),
    ],
)
def test_cli_input_file_of_the_wrong_shape_names_the_expected_key(inputs, tmp_path, capsys, flag, data, message):
    # an exception escaping run, as a traceback would, fails the test
    argv = REALIZE_STAR if flag == "--coloring" else CDA_TRACE
    assert run(own_copy(argv, inputs, tmp_path, flag, data)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expected {") and message in err, err
    assert not LEAKED.search(err), err


@pytest.mark.parametrize(
    "flag, data, message",
    [
        ("--lengths", {"lengths": [[1, 2, None]]}, "length entry [1, 2, None] is not [a, b, length]"),
        ("--lengths", {"lengths": [[1, 2]]}, "length entry [1, 2] is not [a, b, length]"),
        ("--lengths", {"lengths": [[1.5, 2, 0.3]]}, "length entry [1.5, 2, 0.3] is not [a, b, length]"),
        ("--seed-realization", {"placement": {"1": 5}}, 'placement entry "1": 5 is not "v": [x, y, z]'),
        ("--seed-realization", {"placement": {"a": [1, 0, 0]}}, 'placement entry "a": [1, 0, 0] is not'),
        ("--graph", {"vertices": [1, 2], "edges": [5]}, "edge 5 is not [a, b]"),
        ("--graph", {"vertices": [1, 2], "edges": [[1, None]]}, "edge [1, None] is not [a, b]"),
        ("--graph", {"vertices": [1, None], "edges": [[1, 2]]}, "vertex None is not an integer label"),
        (
            "--lengths",
            {"lengths": [[1, 2, 0.3], [2, 1, 0.4]]},
            "length entry [2, 1, 0.4] gives edge (1, 2) a length more than once",
        ),
        ("--graph", {"vertices": [1, 2, 2, 3], "edges": [[1, 2], [2, 3]]}, "vertex 2 is listed more than once"),
        (
            "--seed-realization",
            {"placement": {"1": [1, 0, 0], "01": [1, 0, 0]}},
            'placement entry "01" places vertex 1 more than once',
        ),
        ("--lengths", {"lengths": [*LENGTHS, [1, 3, 0.3]]}, "lengths name the non-edge (1, 3)"),
        (
            "--seed-realization",
            {"placement": {**PLACEMENT, "9": [0, 0, 1]}},
            "seed realization places vertex 9, which the graph lacks",
        ),
        # a JSON true is no label, though bool is an int
        (
            "--graph",
            {"vertices": [True, 2, 3], "edges": [[True, 2], [2, 3], [3, True]]},
            "vertex True is not an integer label",
        ),
        ("--lengths", {"lengths": [[True, *LENGTHS[0][1:]], *LENGTHS[1:]]}, "length entry [True, 2, "),
        # an Arabic-Indic one is a decimal digit, but no ASCII one
        (
            "--seed-realization",
            {"placement": {("١" if v == "1" else v): p for v, p in PLACEMENT.items()}},
            'placement entry "١": ',
        ),
        # nor is a JSON true a number
        (
            "--lengths",
            {"lengths": [[*LENGTHS[0][:2], True], *LENGTHS[1:]]},
            "length entry [1, 2, True] is not [a, b, length]",
        ),
        (
            "--seed-realization",
            {"placement": {**PLACEMENT, "1": [True, 0, 0]}},
            'placement entry "1": [True, 0, 0] is not "v": [x, y, z]',
        ),
        # nor is an integer beyond the largest float, which float() refuses
        pytest.param(
            "--lengths",
            {"lengths": [[*LENGTHS[0][:2], 10**400], *LENGTHS[1:]]},
            f"length entry [1, 2, {10**400}] is not [a, b, length]",
            id="400-digit-length",
        ),
        pytest.param(
            "--seed-realization",
            {"placement": {**PLACEMENT, "1": [0, -(10**400), 0]}},
            f'placement entry "1": [0, {-(10**400)}, 0] is not "v": [x, y, z]',
            id="400-digit-coordinate",
        ),
        pytest.param(
            "--seed-realization",
            {"placement": {**PLACEMENT, "1": [BEYOND_FLOAT, 0, 0]}},
            f'placement entry "1": [{BEYOND_FLOAT}, 0, 0] is not "v": [x, y, z]',
            id="largest-float-plus-one",
        ),
    ],
)
def test_cli_malformed_file_entry_is_named(inputs, tmp_path, capsys, flag, data, message):
    # an exception escaping run, as a traceback would, fails the test
    argv = ("certify", "--graph", "K33") if flag == "--graph" else CDA_TRACE
    assert run(own_copy(argv, inputs, tmp_path, flag, data)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err and not LEAKED.search(err), err


def test_largest_float_written_as_an_integer_is_a_number():
    # it reads as the largest float, whose square is off the sphere; one
    # more is no number at all
    with pytest.raises(SphflexError, match="^vertex 1 placed off the sphere by inf$"):
        formats.realization_from_dict({"placement": {"1": [BEYOND_FLOAT - 1, 0, 0]}})
    with pytest.raises(SphflexError, match='^placement entry "1": '):
        formats.realization_from_dict({"placement": {"1": [BEYOND_FLOAT, 0, 0]}})


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2\n2 3 4\n", "line 2 '2 3 4' is not 'a b' with integer labels a, b"),
        ("1 2\n2 x\n", "line 2 '2 x' is not 'a b' with integer labels a, b"),
        ("1 2\n2 3\n3 +1\n", "line 3 '3 +1' is not 'a b' with integer labels a, b"),
        # more digits than int() converts
        pytest.param(
            f"1 2\n2 {'1' * 5000}\n",
            f"line 2 '2 {'1' * 5000}' is not 'a b' with integer labels a, b",
            id="5000-digit-label",
        ),
    ],
)
def test_cli_edge_list_names_the_bad_line(tmp_path, capsys, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert run(["certify", "--graph", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n", err


@pytest.mark.parametrize("command", ["certify", "colorings"])
@pytest.mark.parametrize(
    "name, text, message",
    [
        ("g.txt", "# nothing\n", "graph has no edges: no 'a b' line"),
        ("g.json", '{"vertices": [7], "edges": []}', 'graph has no edges: "edges" is empty'),
    ],
)
def test_cli_graph_file_without_edges_is_refused(tmp_path, capsys, command, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert run([command, "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "triples, message",
    [
        ([*STAR[:-1], [5, 6, "green"]], """coloring triple [5, 6, 'green'] is not [a, b, "red"|"blue"]"""),
        ([*STAR[:-1], [5, 6]], "coloring triple [5, 6] is not"),
        ([*STAR[:-1], [None, 6, "red"]], "coloring triple [None, 6, 'red'] is not"),
        ([*STAR, [3, 1, "red"]], "coloring triple [3, 1, 'red'] names the non-edge (1, 3)"),
        ([*STAR, [6, 5, "red"]], "edge (5, 6) is colored more than once"),
        (STAR[1:-1], "edges with no color: [(1, 2), (5, 6)]"),
        ([[True, 2, "red"], *STAR[1:]], "coloring triple [True, 2, 'red'] is not"),
    ],
)
def test_coloring_reader_names_the_bad_triple_or_edges(triples, message, inputs, tmp_path, capsys):
    with pytest.raises(SphflexError, match=re.escape(message)):
        formats.coloring_from_list(k33(), triples)
    assert run(own_copy(REALIZE_STAR, inputs, tmp_path, "--coloring", {"coloring": triples})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_cli_structured_output_reproducible(inputs, tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run([*filled(REALIZE_STAR, inputs), "--seed", "3", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def realize_output(capsys, *extra):
    argv = ["realize", "--corpus", "k33", "--samples", "4", "--format", "structured"]
    assert run([*argv, *extra]) == 0
    return capsys.readouterr().out


def test_seed_variable_read_on_each_run(monkeypatch, capsys):
    monkeypatch.setenv("SPHFLEX_SEED", "1")
    first = realize_output(capsys)
    monkeypatch.setenv("SPHFLEX_SEED", "2")
    second = realize_output(capsys)
    assert first != second
    monkeypatch.delenv("SPHFLEX_SEED")
    assert realize_output(capsys) == realize_output(capsys, "--seed", "0")


def test_explicit_seed_beats_seed_variable(monkeypatch, capsys):
    monkeypatch.setenv("SPHFLEX_SEED", "3")
    from_variable = realize_output(capsys)
    monkeypatch.setenv("SPHFLEX_SEED", "5")
    assert realize_output(capsys, "--seed", "3") == from_variable
    assert realize_output(capsys) != from_variable


def test_bad_seed_variable_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("SPHFLEX_SEED", "soon")
    assert run(["realize", "--corpus", "k33"]) == 1
    assert "SPHFLEX_SEED" in capsys.readouterr().err
    monkeypatch.setenv("SPHFLEX_SEED", "-5")
    assert run(["realize", "--corpus", "k33"]) == 1
    assert capsys.readouterr().err == "error: SPHFLEX_SEED must be a non-negative integer, got '-5'\n"


def test_usage_errors_repeat(capsys):
    for argv in (["k33"], ["colorings", "--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert run(["certify", "--corpus", "k3"]) == 0


# ---------------------------------------------------------------------------
# byte-identical structured output
# ---------------------------------------------------------------------------

# a fresh interpreter imports graphs and coloring, lists the modules loaded,
# then runs the corpus in process
FRESH = f"""
import json, sys
import sphflex.graphs, sphflex.coloring
imported = sorted(m for m in sys.modules if m == "numpy" or m.startswith("sphflex"))
import commands
print(json.dumps([imported, commands.{run_corpus.__name__}(json.loads(sys.argv[1]))]))
"""


@pytest.fixture(scope="module")
def fresh(inputs):
    """``(imported, runs)`` of ``FRESH``: the one subprocess of the tests."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    argv = [sys.executable, "-c", FRESH, json.dumps(inputs)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_corpus_in_one_fresh_interpreter(fresh):
    for command, (code, err, _) in zip(COMMANDS, fresh[1], strict=True):
        assert (code, err) == ((1, f"error: {command.error}\n") if command.error else (0, "")), command.argv


def test_graphs_and_coloring_load_without_numpy(fresh):
    # the package itself imports nothing, so a module loads only its imports
    imported, _ = fresh
    assert imported == ["sphflex", "sphflex.coloring", "sphflex.errors", "sphflex.graphs"]


def test_fact_commands_do_not_import_numpy_ma(fresh):
    # verify, tables and colorings among them; no corpus command loads it
    for command, (_, _, modules) in zip(COMMANDS, fresh[1], strict=True):
        assert "numpy.ma" not in modules, command.argv


def test_only_trace_loads_continuation(fresh):
    traced = False
    for command, (_, _, modules) in zip(COMMANDS, fresh[1], strict=True):
        traced = traced or command.argv[0] == "trace"
        assert ("sphflex.continuation" in modules) == traced, command.argv


def assert_writer_matches_encoder(g):
    for modulo_swap in (False, True):
        colorings = enumerate_nap(g, modulo_swap=modulo_swap)
        expected = formats.dumps(coloring_set_to_dict(colorings, modulo_swap))
        assert formats.dump_coloring_set(colorings, modulo_swap) == expected


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_coloring_set_writer_matches_encoder(name):
    assert_writer_matches_encoder(NAMED_GRAPHS[name]())


def test_coloring_set_writer_on_rigid_graph():
    assert enumerate_nap(three_prism()) == ()
    assert_writer_matches_encoder(three_prism())
    empty = formats.dump_coloring_set(enumerate_nap(three_prism()), True)
    assert json.loads(empty)["colorings"] == []


@given(relabelled_pairs())
def test_coloring_set_writer_on_random_graphs(pair):
    for g in pair:
        assert_writer_matches_encoder(g)


def test_cli_colorings_structured_uses_identical_text(capsys):
    for flag in ([], ["--modulo-swap"]):
        assert run(["colorings", "--corpus", "k33", "--format", "structured", *flag]) == 0
        colorings = enumerate_nap(k33(), modulo_swap=bool(flag))
        expected = formats.dumps(coloring_set_to_dict(colorings, bool(flag)))
        assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# per-fact timing records
# ---------------------------------------------------------------------------


def test_verify_logs_one_timing_record_per_fact(caplog, capsys):
    # the records go to the log only: the structured output is the same
    # without them
    assert run(["verify", "--format", "structured"]) == 0
    unlogged = capsys.readouterr().out
    with caplog.at_level(logging.DEBUG, logger="sphflex"):
        facts = verify_suite()
        records = [r for r in caplog.records if r.name == "sphflex"]
        assert [r.fact for r in records] == [f.name for f in facts]
        assert all(r.levelno == logging.DEBUG for r in records)
        assert all(isinstance(r.elapsed_s, float) and r.elapsed_s >= 0 for r in records)
        assert run(["verify", "--format", "structured"]) == 0
    assert capsys.readouterr().out == unlogged
