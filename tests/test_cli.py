import contextlib
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphflex import formats
from sphflex.cli import CORPUS, run, verify_suite
from sphflex.coloring import EdgeColoring, enumerate_nap
from sphflex.errors import OutOfRangeError, SphflexError
from sphflex.graphs import complete_bipartite, k33, three_prism
from sphflex.motions import Dixon1Params, cda_motion, cda_params_from_e, dixon1_motion
from sphflex.spherical import LengthAssignment, SphericalRealization

from enumeration import relabeled_graphs
from helpers import coloring_set_to_dict, dump_edge_list, dump_graph, realization_to_dict


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
    with pytest.raises(OutOfRangeError, match=r"available at \(a, e\) = \(3/5, 3/4\) only"):
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


def trace_argv(tmp_path):
    traj = cda_motion(cda_params_from_e(0.75), [8.0, 8.2])
    graph_file = tmp_path / "g.json"
    graph_file.write_text(dump_graph(k33()))
    lengths_file = tmp_path / "lengths.json"
    lengths_file.write_text(json.dumps(formats.lengths_to_dict(traj.lengths)))
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(
        json.dumps(realization_to_dict(traj.samples[0].realization))
    )
    return [
        "trace",
        "--graph",
        str(graph_file),
        "--lengths",
        str(lengths_file),
        "--seed-realization",
        str(seed_file),
        "--max-steps",
        "40",
    ]


def test_cli_trace_subcommand(tmp_path, capsys):
    assert run(trace_argv(tmp_path)) == 0
    assert "traced" in capsys.readouterr().out


def test_cli_trace_rejects_tol_above_on_sphere_tol(tmp_path, capsys):
    assert run(trace_argv(tmp_path) + ["--tol", "1e-11"]) == 1
    assert "newton_tol above 1e-12" in capsys.readouterr().err


@pytest.mark.parametrize("flag, field", [("--step", "step_size"), ("--tol", "newton_tol")])
def test_cli_trace_rejects_nan_settings(tmp_path, capsys, flag, field):
    assert run(trace_argv(tmp_path) + [flag, "nan"]) == 1
    err = capsys.readouterr().err
    assert f"trace configuration {field} must be finite and positive, got nan" in err


def test_cli_trace_names_missing_edge_length_and_seed_vertex(tmp_path, capsys):
    argv = trace_argv(tmp_path)
    lengths = json.loads((tmp_path / "lengths.json").read_text())
    lengths["lengths"] = [row for row in lengths["lengths"] if row[:2] != [5, 6]]
    (tmp_path / "lengths.json").write_text(json.dumps(lengths))
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: lengths give no length for edge (5, 6)\n"
    argv = trace_argv(tmp_path)
    seed = json.loads((tmp_path / "seed.json").read_text())
    del seed["placement"]["6"]
    (tmp_path / "seed.json").write_text(json.dumps(seed))
    assert run(argv) == 1
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


@pytest.mark.parametrize("argv", [["realize", "--corpus", "k33"], ["k33", "--kind", "cda"]])
@pytest.mark.parametrize("count", ["-3", "0", "1", "x"])
def test_cli_samples_below_two_is_a_usage_error(argv, count, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, f"--samples={count}"])
    assert exc.value.code == 2
    assert "argument --samples:" in capsys.readouterr().err


# trace from the Dixon 1 K(3,3) seed; the file names are filled in by the
# dixon1_trace_files fixture
TRACE = ["trace", "--corpus", "k33", "--lengths", "LENGTHS", "--seed-realization", "SEED"]
# every numeric flag of k33, classify-quad and trace with the arguments it
# joins; a drawn value replaces the first entry of a list flag
NUMERIC_FLAGS = (
    *((["k33", "--kind", "dixon1"], flag, rest) for flag, rest in (("--c", ",0.4,0.6"), ("--d", ",0.5,0.7"))),
    *((["k33", "--kind", "dixon1"], flag, "") for flag in ("--s-min", "--s-max")),
    *(
        (["k33", "--kind", "dixon2"], flag, "")
        for flag in ("--alpha", "--beta", "--gamma", "--p1-min", "--p1-max")
    ),
    *((["k33", "--kind", "cda"], flag, "") for flag in ("--t-min", "--t-max", "--y2-sign", "--z5-sign")),
    (["classify-quad"], "--deltas", ",0.3,0.7,0.7"),
    (["classify-quad"], "--lambdas", ",0.35,0.15,0.15"),
    (["classify-quad", "--deltas", "0.3,0.3,0.7,0.7"], "--tol", ""),
    *((TRACE, flag, "") for flag in ("--step", "--tol", "--max-steps")),
)
SAMPLED = (["realize", "--corpus", "k33"], *(["k33", "--kind", k] for k in ("dixon1", "dixon2", "cda")))
# messages of a value that got past its check and failed downstream
LEAKED = re.compile(r"placed off the sphere|length .* for edge|Number of samples")


@pytest.fixture(scope="module")
def dixon1_trace_files(tmp_path_factory):
    """Lengths and seed files of the Dixon 1 K(3,3) motion at s = 1, by the
    names ``TRACE`` gives them."""
    traj = dixon1_motion(Dixon1Params({1: 0.2, 3: 0.4, 5: 0.6}, {2: 0.3, 4: 0.5, 6: 0.7}), [1.0, 1.1])
    folder = tmp_path_factory.mktemp("dixon1")
    files = {"LENGTHS": folder / "lengths.json", "SEED": folder / "seed.json"}
    files["LENGTHS"].write_text(json.dumps(formats.lengths_to_dict(traj.lengths)))
    files["SEED"].write_text(json.dumps(realization_to_dict(traj.realizations()[0])))
    return {name: str(path) for name, path in files.items()}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.one_of(
        st.builds(
            lambda case, value: [*case[0], f"{case[1]}={value}{case[2]}"],
            st.sampled_from(NUMERIC_FLAGS),
            st.sampled_from(("nan", "inf", "-inf", "0", "-1", "1e308", "-0.5", "2")),
        ),
        st.builds(
            lambda argv, count: [*argv, f"--samples={count}"],
            st.sampled_from(SAMPLED),
            st.sampled_from(("-3", "0", "1")),
        ),
    )
)
# the step that overflowed the predictor before step_size had a bound
@example([*TRACE, "--step=1e308"])
def test_cli_numeric_flags_exit_cleanly(dixon1_trace_files, argv):
    argv = [dixon1_trace_files.get(arg, arg) for arg in argv]
    err = io.StringIO()
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = run(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1), argv
    if code == 1:
        assert err.getvalue().startswith("error: "), argv
        assert not LEAKED.search(err.getvalue()), (argv, err.getvalue())


def test_cli_trace_step_is_at_most_pi(dixon1_trace_files, capsys):
    argv = [dixon1_trace_files.get(arg, arg) for arg in TRACE]
    assert run([*argv, "--step=3.2"]) == 1
    assert capsys.readouterr().err == "error: trace configuration step_size must be at most pi, got 3.2\n"
    assert run([*argv, "--step=3.0"]) == 0
    assert "stop: loop_closed" in capsys.readouterr().out


@pytest.mark.parametrize("coordinate", [1e155, 1e200, 1e308])
def test_cli_trace_refuses_a_huge_seed_coordinate_without_a_warning(tmp_path, capsys, coordinate):
    # the coordinate's square overflows to inf, which is off the sphere;
    # the overflow must not surface as a numpy warning
    argv = trace_argv(tmp_path)
    seed_file = Path(argv[argv.index("--seed-realization") + 1])
    seed = json.loads(seed_file.read_text())
    seed["placement"]["1"][0] = coordinate
    seed_file.write_text(json.dumps(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 1
    assert capsys.readouterr().err == "error: vertex 1 placed off the sphere by inf\n"


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

# the lengths file of trace_argv, the CDA K(3,3) motion at e = 3/4
CDA_LENGTHS = formats.lengths_to_dict(
    cda_motion(cda_params_from_e(0.75), [8.0, 8.2]).lengths
)["lengths"]
CDA_SEED = realization_to_dict(
    cda_motion(cda_params_from_e(0.75), [8.0, 8.2]).samples[0].realization
)

# the K(3,3) coloring with the star at vertex 1 red, as certify writes it
STAR = formats.coloring_to_list(EdgeColoring.from_red_edges(k33(), [(1, 2), (1, 4), (1, 6)]))


def realize_coloring_argv(tmp_path, data):
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(data))
    return ["realize", "--corpus", "k33", "--samples", "4", "--format", "structured", "--coloring", str(path)]


def test_cli_realize_reads_coloring_pairs_either_end_first(tmp_path, capsys):
    assert run(realize_coloring_argv(tmp_path, {"coloring": STAR})) == 0
    expected = capsys.readouterr().out
    flipped = [[b, a, color] for a, b, color in reversed(STAR)]
    assert flipped[-1] == [2, 1, "red"]
    assert run(realize_coloring_argv(tmp_path, {"coloring": flipped})) == 0
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
def test_cli_input_file_of_the_wrong_shape_names_the_expected_key(tmp_path, capsys, flag, data, message):
    # an exception escaping run, as a traceback would, fails the test
    argv = realize_coloring_argv(tmp_path, {}) if flag == "--coloring" else trace_argv(tmp_path)
    Path(argv[argv.index(flag) + 1]).write_text(json.dumps(data))
    assert run(argv) == 1
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
        ("--lengths", {"lengths": [*CDA_LENGTHS, [1, 3, 0.3]]}, "lengths name the non-edge (1, 3)"),
        (
            "--seed-realization",
            {"placement": {**CDA_SEED["placement"], "9": [0, 0, 1]}},
            "seed realization places vertex 9, which the graph lacks",
        ),
        # a JSON true is no label, though bool is an int
        (
            "--graph",
            {"vertices": [True, 2, 3], "edges": [[True, 2], [2, 3], [3, True]]},
            "vertex True is not an integer label",
        ),
        ("--lengths", {"lengths": [[True, *CDA_LENGTHS[0][1:]], *CDA_LENGTHS[1:]]}, "length entry [True, 2, "),
        # an Arabic-Indic one is a decimal digit, but no ASCII one
        (
            "--seed-realization",
            {"placement": {("١" if v == "1" else v): p for v, p in CDA_SEED["placement"].items()}},
            'placement entry "١": ',
        ),
        # nor is a JSON true a number
        (
            "--lengths",
            {"lengths": [[*CDA_LENGTHS[0][:2], True], *CDA_LENGTHS[1:]]},
            "length entry [1, 2, True] is not [a, b, length]",
        ),
        (
            "--seed-realization",
            {"placement": {**CDA_SEED["placement"], "1": [True, 0, 0]}},
            'placement entry "1": [True, 0, 0] is not "v": [x, y, z]',
        ),
    ],
)
def test_cli_malformed_file_entry_is_named(tmp_path, capsys, flag, data, message):
    # an exception escaping run, as a traceback would, fails the test
    if flag == "--graph":
        argv = ["certify", "--graph", str(tmp_path / "g.json")]
    else:
        argv = trace_argv(tmp_path)
    Path(argv[argv.index(flag) + 1]).write_text(json.dumps(data))
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err and not LEAKED.search(err), err


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
def test_coloring_reader_names_the_bad_triple_or_edges(triples, message, tmp_path, capsys):
    with pytest.raises(SphflexError, match=re.escape(message)):
        formats.coloring_from_list(k33(), triples)
    assert run(realize_coloring_argv(tmp_path, {"coloring": triples})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_cli_structured_output_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert (
            run(
                [
                    "realize",
                    "--corpus",
                    "k33",
                    "--samples",
                    "5",
                    "--seed",
                    "3",
                    "--format",
                    "structured",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_suite_all_pass():
    facts = verify_suite()
    assert all(f.passed for f in facts)
    names = {f.name for f in facts}
    assert "degree-table-orbits" in names
    assert "three-rhomboids-type1-unique" in names


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

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text()
)


@pytest.mark.parametrize("command", ["verify", "tables"])
def test_structured_fact_output_matches_pinned_digest(command, capsys):
    assert run([command, "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED["digests"][command]


def test_fact_commands_do_not_import_numpy_ma(tmp_path):
    # numpy.ma loads lazily (np.unique pulls it in) and adds to peak memory
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from sphflex.cli import run\n"
        "for command in ('verify', 'tables', 'colorings'):\n"
        "    run([command, '--corpus', 'k33'] if command == 'colorings' else [command])\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


def run_in_fresh_process(code):
    """stderr of ``code`` run by a fresh interpreter on the package source."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip()


def test_graphs_and_coloring_load_without_numpy():
    # the package itself imports nothing, so a module loads only its imports
    code = (
        "import sys\n"
        "import sphflex.graphs, sphflex.coloring\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('sphflex')), "
        "file=sys.stderr)\n"
    )
    assert run_in_fresh_process(code) == str(
        ["sphflex", "sphflex.coloring", "sphflex.errors", "sphflex.graphs"]
    )


def test_only_trace_loads_continuation(tmp_path):
    # continuation is the one module on numpy's private _umath_linalg
    commands = [
        ["certify", "--corpus", "k33"],
        ["colorings", "--corpus", "k33"],
        ["realize", "--corpus", "k33", "--samples", "3"],
        ["k33", "--kind", "dixon1", "--samples", "3"],
        ["classify-quad", "--deltas", "0.3,0.3,0.7,0.7"],
        ["tables"],
        ["verify"],
    ]
    code = (
        "import sys\n"
        "from sphflex.cli import run\n"
        f"for argv in {commands!r}:\n"
        "    assert run(argv) == 0, argv\n"
        "print('sphflex.continuation' in sys.modules, file=sys.stderr)\n"
        f"assert run({trace_argv(tmp_path)!r}) == 0\n"
        "print('sphflex.continuation' in sys.modules, file=sys.stderr)\n"
    )
    assert run_in_fresh_process(code).split() == ["False", "True"]


def assert_writer_matches_encoder(g):
    for modulo_swap in (False, True):
        colorings = enumerate_nap(g, modulo_swap=modulo_swap)
        expected = formats.dumps(coloring_set_to_dict(colorings, modulo_swap))
        assert formats.dump_coloring_set(colorings, modulo_swap) == expected


WRITER_GRAPHS = {
    **{f"corpus-{name}": builder for name, builder in CORPUS.items()},
    **{
        f"K({m},{n})": (
            lambda m=m, n=n: complete_bipartite(range(1, m + 1), range(m + 1, m + n + 1))
        )
        for m in range(2, 5)
        for n in range(m, 20 // m + 1)
    },
}


@pytest.mark.parametrize("name", sorted(WRITER_GRAPHS))
def test_coloring_set_writer_matches_encoder(name):
    assert_writer_matches_encoder(WRITER_GRAPHS[name]())


def test_coloring_set_writer_on_rigid_graph():
    assert enumerate_nap(three_prism()) == ()
    assert_writer_matches_encoder(three_prism())
    empty = formats.dump_coloring_set(enumerate_nap(three_prism()), True)
    assert json.loads(empty)["colorings"] == []


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(relabeled_graphs())
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
    with caplog.at_level(logging.DEBUG, logger="sphflex"):
        facts = verify_suite()
        records = [r for r in caplog.records if r.name == "sphflex"]
        assert [r.fact for r in records] == [f.name for f in facts]
        assert all(r.levelno == logging.DEBUG for r in records)
        assert all(isinstance(r.elapsed_s, float) and r.elapsed_s >= 0 for r in records)
        assert run(["verify", "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED["digests"]["verify"]
