"""The benchmark runs and passes its own checks, and every public name of
the package has a caller.

One cycle of each benchmark workload runs in process with the span
recorder of ``bench/tracer.py`` installed, the way a traced phase of
``bench/worker.py`` runs it, and every op's own check must pass.  So a
name the benchmark uses that the package renamed or removed, or an answer
that drifted from ``bench/expected.json``, fails here and not first in a
benchmark run; the digests of the structured ``verify`` and ``tables``
output there are pinned nowhere else.  Each per-layer metric that
``BENCHMARK.json`` declares must read nonzero on one workload or more,
unless one of two commented lists names it.  Every other guard reads
code with ``ast``, not by running it: ``parsed`` parses each file once,
and ``modules`` gives the trees of the package, of ``bench/`` or of
``tests/``.

In the package, a guard fails on each of these unless the README's
``KEPT_HEADING`` table keeps it; "there" means the package and ``bench/``.
A dead helper (``dead_names``) is a public module-level function or class,
or a public method of a class, that nothing there refers to outside its
own definition; a row ``module.name`` keeps it, and a kept class keeps its
methods.  A dead knob (``unset_parameters``) is a defaulted parameter of a
public function or method, or a defaulted field of a public dataclass,
that no call of its function's name there sets, by position or keyword.
A constant parameter (``constant_arguments``) is a parameter of any
function or method, private ones too, to which every call of its name
there, and at least two, passes one literal or UPPER_CASE constant: it is
that constant.  A row ``module.function(parameter)`` keeps that parameter
alone.  A name on a message (``uncaught_errors``) is an exception class of
``errors.py`` that no ``except`` clause there names and none of whose
``__init__`` fields code there outside ``errors.py`` reads as an
attribute.  A row that no guard flags once it is gone shields nothing and
goes.  No row keeps a field of a public dataclass or ``NamedTuple`` that
nothing there reads as an attribute or through ``getattr`` with its name
written out (``unread_fields``).  Names are matched, not owners.  The
package's ``__init__`` binds no name, so each public name has one import
path: its module.  In ``tests/``, each public function and class of a
helper module (one not named ``test_*``) needs a reference there outside
its own definition that comes through its module: from the module
itself, ``from module import name``, ``module.name`` after ``import
module``, or for a fixture of ``conftest.py`` a parameter of its name
(``unused_test_helpers``).  Each subcommand of the CLI, with
each of its ``--format`` choices, has a command in ``tests/commands.py``.
Every property draws the same examples on every run: the Hypothesis
profile of ``conftest.py`` is derandomized, with no example database and
no deadline, and no module of ``tests/`` passes those to ``settings``.
"""

import argparse
import ast
import dataclasses
import functools
import importlib
import json
import math
import pkgutil
import re
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

from sphflex import cli

from commands import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "sphflex"
TESTS = ROOT / "tests"
README = ROOT / "README.md"
KEPT_HEADING = "## Public API without an internal caller"
# fewer files than this means a guard is looking in the wrong place and
# would pass on nothing
MODULES_AT_LEAST = {PACKAGE: 9, BENCH: 4, TESTS: 16}


@functools.cache
def parsed(path):
    return ast.parse(path.read_text())


def modules(directory):
    """``{stem: tree}`` of the Python files of ``PACKAGE``, ``BENCH`` or
    ``TESTS``, in path order."""
    trees = {path.stem: parsed(path) for path in sorted(directory.glob("*.py"))}
    assert len(trees) >= MODULES_AT_LEAST[directory], directory
    return trees


def bindings():
    """``{(owner, name): value}`` over the modules and classes of the
    package and ``numpy.linalg``: every place the tracer patches."""
    owners = [m for n, m in sys.modules.items() if n.startswith("sphflex") or n == "numpy.linalg"]
    owners += [c for m in list(owners) for c in vars(m).values() if isinstance(c, type)]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


@pytest.fixture(scope="module")
def traced_cycle(tmp_path_factory):
    """One seed-1 cycle of each workload, run as a traced phase of
    ``bench/worker.py`` runs it, less its ``gc.collect()`` before each op,
    which keeps timings clean and checks nothing.  Every op runs in a
    ``bench.op`` span, then its own check runs; an op or check that raises
    is recorded, as a ``CheckError`` is."""
    path = list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    out = SimpleNamespace(tracer=tracer, workloads=workloads, path_restored=sys.path == path)
    # families: the names of the ops each family ran
    out.ran, out.spans, out.families, out.ops, out.checked = [], {}, defaultdict(list), 0, 0
    out.run_errors, out.check_errors, out.metrics = [], [], {}
    before, tmp = bindings(), tmp_path_factory.mktemp("bench")
    for name, build in workloads.WORKLOADS.items():
        (tmp / name).mkdir()
        (ops,) = build(1, 1, workloads.Files(str(tmp / name)))
        tr = tracer.Tracer()
        try:
            tr.install()  # resolves every TARGETS entry or raises
            for k, op in enumerate(ops):
                out.ops += 1
                out.families[op.family].append(op.name)
                tr.op_id, tr.active = k, True
                try:
                    result = tr.span(tracer.OP_SPAN, op.run)
                except Exception as exc:
                    out.run_errors.append(f"{name} {op.name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    tr.active = False
                try:
                    op.check(result)
                    out.checked += 1
                except Exception as exc:
                    out.check_errors.append(f"{name} {op.name}: {type(exc).__name__}: {exc}")
        finally:
            tr.uninstall()
        out.ran.append(name)
        out.spans[name] = set(tr.names)
        out.metrics[name] = tr.metrics()
    after = bindings()
    out.left_patched = [key for key, value in before.items() if after.get(key) is not value]
    return out


def test_every_tracer_target_resolves(traced_cycle):
    # Tracer.install raised in the fixture if a TARGETS entry did not resolve
    tracer = traced_cycle.tracer
    assert len(tracer.TARGETS) > 30
    # spans of package functions: the patches were live during the ops
    for name, spans in traced_cycle.spans.items():
        assert spans > {tracer.OP_SPAN}, name
    # no later test sees a wrapped function or bench/ on sys.path
    assert traced_cycle.left_patched == []
    assert traced_cycle.path_restored


def test_every_name_the_workloads_use_resolves(traced_cycle):
    # every op of both workloads ran the package calls bench/workloads.py makes
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(traced_cycle.ran) == sorted(declared)
    assert sorted(traced_cycle.families) == sorted(traced_cycle.workloads.FAMILIES)
    assert traced_cycle.run_errors == []


def test_every_method_the_workloads_call_on_returned_objects_resolves(traced_cycle):
    # each op's check reads the returned objects and compares them with
    # bench/expected.json; every op that ran was checked
    assert traced_cycle.check_errors == []
    assert traced_cycle.checked == traced_cycle.ops > 0


def test_the_fact_commands_run_against_their_pinned_digests(traced_cycle):
    # their checks compare the structured output with the digests of
    # bench/expected.json and fail on a failed verify fact
    assert {"verify", "tables"} <= set(traced_cycle.families["paper-tables"])


# declared per-layer metrics that read 0 on both workloads by design: every
# corrector of the traced loops converges, their seeds need no unbordered
# Newton step, and no bordered solve falls back to numpy's lstsq
ZERO_BY_DESIGN = {
    "continuation.newton_correct.fail_ratio",
    "linalg.lstsq.calls",
    "linalg.lstsq.busy_s",
}
# declared per-layer metrics that read 0 because no workload runs the code
# they time; the benchmark's next tracer targets empty this list, which
# only shrinks
ZERO_EXPECTED = {
    *(
        f"{name}.{part}"
        for name in (
            "continuation.residual_vector",
            "continuation.jacobian",
            "motions.make_trajectory",
            "spherical.degenerate_pairs",
            "spherical.essentially_distinct",
            "spherical.max_edge_residual",
        )
        for part in ("calls", "busy_s")
    ),
    "cuts.count_admissible_tables_raw.busy_s",
    "formats.trajectory_to_dict.busy_s",
    "layer.spherical.self_share",
}


def test_every_declared_metric_reads_nonzero_on_some_workload(traced_cycle):
    # a metric that reads 0 on every workload measures nothing; the two
    # lists above name the ones that still do, and a listed metric that
    # turns nonzero leaves its list
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [metric["name"] for metric in benchmark["per_layer"]]
    layers = [traced_cycle.tracer.per_layer(raw, 1.0) for raw in traced_cycle.metrics.values()]
    assert len(layers) == 2 and all(set(declared) <= set(layer) for layer in layers)
    zero = {name for name in declared if all(layer[name][0] == 0 for layer in layers)}
    assert sorted(zero ^ (ZERO_BY_DESIGN | ZERO_EXPECTED)) == []


def package_classes():
    """``(module.Name, cls, fields, node)`` for every class a package module
    defines, found at run time so that no decorator form escapes: its
    dataclass or ``NamedTuple`` fields, and its top-level ``class``
    statement (None if it has none)."""
    import sphflex

    for info in pkgutil.iter_modules(sphflex.__path__, "sphflex."):
        stem = info.name.split(".")[1]
        body = parsed(PACKAGE / f"{stem}.py").body
        nodes = {node.name: node for node in body if isinstance(node, ast.ClassDef)}
        for name, cls in vars(importlib.import_module(info.name)).items():
            if not (isinstance(cls, type) and cls.__module__ == info.name):
                continue
            fields = list(getattr(cls, "_fields", ())) if issubclass(cls, tuple) else []
            if dataclasses.is_dataclass(cls):
                fields = [f.name for f in dataclasses.fields(cls)]
            yield f"{stem}.{name}", cls, fields, nodes.get(name)


def referenced_names(nodes):
    """Names the code under ``nodes`` refers to: names, attributes,
    imported names, and strings that are one identifier (``TARGETS``
    names its functions that way)."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


@functools.cache
def top_level_references(directory):
    """Each top-level statement of a directory's modules, with the names it
    refers to."""
    trees = modules(directory).values()
    return [(node, referenced_names([node])) for tree in trees for node in tree.body]


def public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def unreferenced(trees, index, kept=frozenset(), qualified=False):
    """``module.name`` of the public functions and classes at the top of
    ``trees``, and ``module.Class.method`` of their public methods, that
    no ``(statement, referenced_names)`` of ``index`` outside their own
    definition refers to, nor another statement of a method's class.  A
    function or class is looked up as ``module.name`` if ``qualified``,
    else by its name.  The ``kept`` names and the methods of a kept class
    are left out."""

    def used(name, statements, definition):
        return any(name in names for node, names in statements if node is not definition)

    found = []
    for stem, tree in trees.items():
        for node in public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            name = f"{stem}.{node.name}"
            if name in kept:
                continue
            if not used(name if qualified else node.name, index, node):
                found.append(name)
            if isinstance(node, ast.ClassDef):
                members = [(item, referenced_names([item])) for item in node.body]
                for method in public(node.body, ast.FunctionDef):
                    if not (used(method.name, members, method) or used(method.name, index, node)):
                        found.append(f"{name}.{method.name}")
    return found


def kept_section():
    return README.read_text().split(KEPT_HEADING, 1)[1].split("\n## ", 1)[0]


def kept_api():
    """The dotted names (``module.name``) the README's ``KEPT_HEADING``
    table keeps, from the rows whose name is written that way."""
    return set(re.findall(r"^\| `(\w+\.\w+)` \|", kept_section(), re.M))


def kept_parameters():
    """The parameters the README's ``KEPT_HEADING`` table keeps, from the
    rows whose name is written ``module.function(parameter)``."""
    return set(re.findall(r"^\| `(\w+(?:\.\w+)+\(\w+\))` \|", kept_section(), re.M))


def dead_names(kept):
    """The package's dead helpers, leaving out the ``kept`` names."""
    # all of bench/ counts as one statement outside every definition
    bench = (None, referenced_names(modules(BENCH).values()))
    return unreferenced(modules(PACKAGE), [*top_level_references(PACKAGE), bench], kept)


def test_every_public_function_and_class_has_a_caller():
    assert dead_names(kept_api()) == []


def attribute_reads(trees):
    """Attribute names the code in ``trees`` reads: as ``x.name`` in a
    load, or through ``getattr`` with the name written as a string."""
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                read.add(name.value)
    return read


def uncaught_errors(kept):
    """The package's names on a message, leaving out the ``kept`` names."""
    trees = [tree for stem, tree in modules(PACKAGE).items() if stem != "errors"]
    trees += modules(BENCH).values()
    caught = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(getattr(t, "id", getattr(t, "attr", None)) for t in types)
    read = attribute_reads(trees)

    def fields(node):
        return {
            target.attr
            for init in (node.body if node else [])
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for target in ast.walk(init)
            if isinstance(target, ast.Attribute)
            and isinstance(target.ctx, ast.Store)
            and getattr(target.value, "id", None) == "self"
        }

    errors = [(name, node) for name, _, _, node in package_classes() if name.startswith("errors.")]
    assert errors
    return [
        name
        for name, node in errors
        if name.split(".")[1] not in caught and not fields(node) & read and name not in kept
    ]


def test_every_exception_class_is_caught_or_read():
    # a class a caller can neither catch by name nor read a field off is
    # one message with a name; raise the base class with that message
    assert uncaught_errors(kept_api()) == []


@functools.cache
def helper_references():
    """``(module, statement, names)`` of each top-level statement of tests/:
    the names it refers to, and ``module.name`` for each it reaches through
    a module: a name of its own module, ``from module import name``,
    ``module.name`` after ``import module``, or a parameter of the name of a
    ``conftest`` fixture."""
    index = []
    for stem, tree in modules(TESTS).items():
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)]
        imported = {a.asname or a.name: a.name for node in imports for a in node.names}
        for top in tree.body:
            names = referenced_names([top])
            names |= {f"{stem}.{name}" for name in names}
            # pytest hands a conftest fixture to each test naming it as a parameter
            names |= {f"conftest.{node.arg}" for node in ast.walk(top) if isinstance(node, ast.arg)}
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names |= {f"{node.module}.{a.name}" for a in node.names}
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in imported:
                    names.add(f"{imported[node.value.id]}.{node.attr}")
            index.append((stem, top, names))
    return index


def unused_test_helpers(left_out=()):
    """The dead helpers of the helper modules of tests/, with the statements
    of the ``left_out`` modules out of the index."""
    helpers = {stem: tree for stem, tree in modules(TESTS).items() if not stem.startswith("test_")}
    index = [(top, names) for stem, top, names in helper_references() if stem not in left_out]
    return unreferenced(helpers, index, qualified=True)


def test_every_test_helper_has_a_caller():
    assert unused_test_helpers() == []


def test_a_helper_is_used_only_through_its_module():
    # test_tooling defines and calls a parsed of its own, which is no use
    # of trajectories.parsed
    flagged = unused_test_helpers(left_out={"test_trajectories"})
    expected = {"parsed", "dixon1_rows", "encoded", "detect_by_samples"}
    assert {f"trajectories.{name}" for name in expected} <= set(flagged)


def unread_fields():
    """The fields of the package's classes that nothing reads."""
    read = attribute_reads([*modules(PACKAGE).values(), *modules(BENCH).values()])
    classes = {
        name: fields
        for name, _, fields, _ in package_classes()
        if fields and not name.split(".")[1].startswith("_")
    }
    # a scan that saw none of these would pass on nothing
    assert {"cuts.MuRow", "cuts.Equation", "motions.MotionTrajectory", "cli.FactCheck"} <= set(classes)
    return [
        f"{cls}.{field}"
        for cls, fields in sorted(classes.items())
        for field in fields
        if field not in read
    ]


def test_every_dataclass_field_is_read():
    # a field that nothing but the tests reads is computed for no caller;
    # the tests can reach the same value through the code that fills it
    assert unread_fields() == []


def test_package_init_binds_no_name():
    # each public name is imported from its module, and importing one
    # module loads only what that module imports
    body = parsed(PACKAGE / "__init__.py").body
    assert [type(node) for node in body] == [ast.Expr]
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def decorators(node):
    """Names of a definition's decorators, called or not."""
    return {
        getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None)
        for dec in node.decorator_list
    }


def parameters(trees):
    """``(row, callee, position, name, default, public, field)`` of every
    parameter of the functions and methods at the top of ``trees``, but
    ``self``, ``cls``, ``*args`` and ``**kwargs``, and of every dataclass
    field: ``callee`` is the name a call uses, ``position`` where a
    positional argument sets it (inf if keyword-only), and ``public``
    whether its function is public, or its class and method."""

    def signature(owner, node, skip, shown):
        name = f"{owner}.{node.name}"
        args = node.args.posonlyargs + node.args.args
        first = len(args) - len(node.args.defaults)
        for i, arg in enumerate(args[skip:], start=skip):
            yield f"{name}({arg.arg})", node.name, i - skip, arg.arg, i >= first, shown, False
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            has = default is not None
            yield f"{name}({arg.arg})", node.name, math.inf, arg.arg, has, shown, False

    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield from signature(stem, node, 0, not node.name.startswith("_"))
            if not isinstance(node, ast.ClassDef):
                continue
            name, shown = f"{stem}.{node.name}", not node.name.startswith("_")
            if "dataclass" in decorators(node):
                fields = [
                    item
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                for position, item in enumerate(fields):
                    field, value, has = item.target.id, item.value, item.value is not None
                    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                        # ``field(repr=False)`` declares a field without a default
                        has = any(kw.arg in ("default", "default_factory") for kw in value.keywords)
                    yield f"{name}({field})", node.name, position, field, has, shown, True
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    skip = 0 if "staticmethod" in decorators(method) else 1
                    both = shown and not method.name.startswith("_")
                    yield from signature(name, method, skip, both)


@functools.cache
def calls():
    """Every call in the package and bench/, by the name it calls: a bare
    name, or the last attribute of a dotted one."""
    index = defaultdict(list)
    for tree in [*modules(PACKAGE).values(), *modules(BENCH).values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                index[getattr(node.func, "attr", getattr(node.func, "id", None))].append(node)
    return index


def argument(call, position, param):
    """What a call passes for a parameter: the argument, ``...`` when a
    ``*args`` or ``**kwargs`` may pass it, or None when the call leaves it
    out."""
    if position < math.inf and any(isinstance(arg, ast.Starred) for arg in call.args):
        return ...
    if position < len(call.args):
        return call.args[position]
    keywords = {kw.arg: kw.value for kw in call.keywords}
    return ... if None in keywords else keywords.get(param)


def unset_parameters(kept):
    """The package's dead knobs, leaving out the ``kept`` rows."""
    return [
        row
        for row, callee, position, param, default, shown, _ in parameters(modules(PACKAGE))
        if default and shown and row not in kept
        and all(argument(call, position, param) is None for call in calls()[callee])
    ]


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a kept function or class does not shield its parameters; only a
    # parameter's own row does
    assert unset_parameters(kept_parameters()) == []


def is_constant(node):
    """Whether an argument is a literal (a signed number included) or an
    UPPER_CASE name, bare or as an attribute."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    name = getattr(node, "id", getattr(node, "attr", None))
    return isinstance(node, ast.Constant) or bool(name and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name))


def constant_arguments(kept):
    """The package's constant parameters, leaving out the ``kept`` rows.  A
    call that leaves the parameter to its default, or may pass it through
    ``*args`` or ``**kwargs``, passes no constant."""
    flagged = []
    for row, callee, position, param, _, _, field in parameters(modules(PACKAGE)):
        passed = [argument(call, position, param) for call in calls()[callee]]
        if field or len(passed) < 2 or not all(is_constant(arg) for arg in passed):
            continue
        if len({ast.dump(arg) for arg in passed}) == 1 and row not in kept:
            flagged.append(row)
    return flagged


def test_no_parameter_takes_one_constant_from_every_call():
    # a parameter that every call gives one constant is that constant
    assert constant_arguments(kept_parameters()) == []


def test_every_kept_row_is_needed():
    # each row of the table must be one that a guard flags once the row is
    # gone; a row for a missing name or parameter, a name that has a
    # caller, a defaulted parameter that a call sets, or a parameter that
    # calls give more than one value keeps nothing
    kept, params = kept_api(), kept_parameters()
    guards = [(kept, [dead_names, uncaught_errors])]
    guards.append((params, [unset_parameters, constant_arguments]))
    stale = [
        row
        for rows, flags in guards
        for row in sorted(rows)
        if not any(row in flag(rows - {row}) for flag in flags)
    ]
    assert kept and params
    assert stale == []


def test_every_subcommand_and_format_has_a_corpus_command():
    # a command outside the corpus escapes its import rules and exit codes
    parser = cli._parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    needed = {
        (name, choice)
        for name, sub in subparsers.choices.items()
        for choice in next((a.choices for a in sub._actions if a.dest == "format"), [None])
    }
    parsed_argv = [parser.parse_args(command.argv) for command in COMMANDS]
    covered = {(args.command, getattr(args, "format", None)) for args in parsed_argv}
    assert ("trace", "tabular") in needed and sorted(needed - covered) == []


def test_every_property_draws_the_same_examples_on_every_run():
    # conftest.py loads a derandomized profile with no example database and
    # no deadline, and no module of tests/ sets those in a settings(...)
    loaded = settings.default
    assert loaded.derandomize and loaded.database is None and loaded.deadline is None
    calls = [
        (stem, node)
        for stem, tree in modules(TESTS).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "settings"
    ]
    overrides = [
        f"{stem}.py:{node.lineno}"
        for stem, node in calls
        if {kw.arg for kw in node.keywords} & {"derandomize", "database", "deadline"}
    ]
    # the properties that draw another number of examples set it here
    assert len(calls) >= 4 and overrides == []
