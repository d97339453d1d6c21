"""The benchmark reaches into the package by name, and every public name
of the package has a caller.

``bench/tracer.py`` lists the functions its span recorder wraps in
``TARGETS`` as (module, attribute, span) triples, and ``bench/workloads.py``
calls package functions through the modules and names it imports from
``sphflex`` and methods on the objects they return.  A renamed or removed
name would only show up as a failed benchmark run, so every one is
resolved here.  Both files are read with
``ast``, not imported, so nothing of the benchmark runs.

The package's own modules are read the same way: a public module-level
function or class, or a public method of a public class, that no package
code and no benchmark file refers to is a dead helper unless the README
keeps it (or its class) as public API.  Likewise a defaulted parameter of
a public function or method, or a defaulted field of a public dataclass,
that no call in the package or the benchmark sets is a dead knob unless
the README keeps that parameter in a row of its own.  So is a parameter of
any function or method, private ones too, to which every call of its
name there, and at least two, passes one literal or UPPER_CASE constant:
it is that constant.  An exception class
that no ``except`` clause there names, and that has no ``__init__`` field
read there as an attribute, is a name on a message unless the README
keeps it.  Every row of the README's table must be one of these: a row
that the guards pass without shields nothing and goes.  A field of a
public dataclass or ``NamedTuple`` that no code there reads is computed
for no caller, and no row keeps it.  The package's
``__init__`` binds no name, so each public name has one import path: its
module.

The helper modules of ``tests/`` (those not named ``test_*``) are held to
the same rule within the tests: each public function and class needs a
reference somewhere in ``tests/`` outside its own definition.
"""

import ast
import dataclasses
import hashlib
import importlib
import inspect
import io
import math
import pkgutil
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"
PACKAGE = ROOT / "src" / "sphflex"
TESTS = ROOT / "tests"
README = ROOT / "README.md"
KEPT_HEADING = "## Public API without an internal caller"


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in bench/tracer.py")


def resolve(path):
    """Module or class named by a dotted path: the longest importable
    prefix, then attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert len(targets) > 30
    missing = [
        (module, attr)
        for module, attr, _ in targets
        if not callable(getattr(resolve(module), attr, None))
    ]
    assert missing == []


def workload_names():
    """Dotted paths of the ``sphflex`` names ``bench/workloads.py`` uses:
    each imported module or name, and each attribute chain rooted at one
    (``coloring.EdgeColoring.from_red_edges`` becomes
    ``sphflex.coloring.EdgeColoring.from_red_edges``)."""
    tree = ast.parse(WORKLOADS.read_text())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sphflex":
            roots.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    paths = set(roots.values())
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in roots:
            paths.add(".".join([roots[node.id], *reversed(attrs)]))
    return paths


def test_every_name_the_workloads_use_resolves():
    paths = workload_names()
    assert "sphflex.formats.coloring_from_list" in paths
    assert "sphflex.coloring.EdgeColoring.from_red_edges" in paths
    missing = []
    for path in sorted(paths):
        try:
            resolve(path)
        except (AttributeError, ModuleNotFoundError):
            missing.append(path)
    assert missing == []


def object_attributes():
    """Attribute names ``bench/workloads.py`` reads on objects rather than
    through an imported name: ``c.canonical_mask()`` on a returned
    coloring, ``res.trajectory.samples`` on a trace result.  Reads on
    ``self`` are left out."""
    tree = ast.parse(WORKLOADS.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in imported | {"self"}):
                names.add(node.attr)
    return names


def workload_class_attributes():
    """Names defined by the classes of ``bench/workloads.py``: methods,
    class-level and dataclass fields, and ``self.x`` assignments."""
    names = set()
    for cls in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return names


def package_class_attributes():
    """Attributes and dataclass fields of every class the package defines."""
    import sphflex

    names = set()
    for info in pkgutil.iter_modules(sphflex.__path__, "sphflex."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == info.name:
                names.update(dir(cls))
                if dataclasses.is_dataclass(cls):
                    names.update(f.name for f in dataclasses.fields(cls))
    return names


def test_every_method_the_workloads_call_on_returned_objects_resolves():
    # a name the package no longer defines is still found on these types
    # only if the workloads' own objects have it
    other_types = (str, list, dict, set, np.ndarray, np.random.Generator, io.StringIO, hashlib.sha256())
    known = package_class_attributes() | workload_class_attributes()
    known.update(name for kind in other_types for name in dir(kind))
    names = object_attributes()
    assert {"canonical_mask", "samples", "trajectory", "stop_reason"} <= names
    assert sorted(names - known) == []


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


def test_every_kept_api_name_resolves():
    kept = kept_api()
    assert {"quads.rhomboid_component", "quads.diagonals_not_orthogonal_check"} <= kept
    missing = []
    for name in sorted(kept):
        module, attr = name.split(".")
        if not hasattr(importlib.import_module(f"sphflex.{module}"), attr):
            missing.append(name)
    # a kept parameter row names a parameter of the signature it names
    params = kept_parameters()
    assert "motions.polar_nap_motion(pole_assignment)" in params
    for row in sorted(params):
        owner, param = row[:-1].split("(")
        try:
            signature = inspect.signature(resolve(f"sphflex.{owner}"))
        except (AttributeError, ModuleNotFoundError):
            missing.append(row)
            continue
        if param not in signature.parameters:
            missing.append(row)
    assert missing == []


def dead_names(kept):
    """Public functions, classes and methods of the package that no code
    outside their own definition refers to (elsewhere in their module, in
    another module, or in bench/), leaving out the ``kept`` names and the
    methods of a kept class."""
    bodies = {
        path.stem: [(node, referenced_names([node])) for node in ast.parse(path.read_text()).body]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    others = [(node, names) for body in bodies.values() for node, names in body]
    bench = referenced_names(ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py")))

    def called(name, outside):
        return any(name in names for other, names in others if other is not outside)

    dead = []
    for stem, body in bodies.items():
        for node, _ in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in bench and f"{stem}.{node.name}" not in kept:
                if not called(node.name, node):
                    dead.append(f"{stem}.{node.name}")
            if not isinstance(node, ast.ClassDef) or f"{stem}.{node.name}" in kept:
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                rest = referenced_names(other for other in node.body if other is not method)
                if method.name not in bench | rest and not called(method.name, node):
                    dead.append(f"{stem}.{node.name}.{method.name}")
    assert len(bodies) >= 9
    return dead


def test_every_public_function_and_class_has_a_caller():
    assert dead_names(kept_api()) == []


def uncaught_errors(kept):
    """Exception classes of ``errors.py`` that no ``except`` clause in the
    package or in bench/ names, and none of whose ``__init__`` fields is
    read as an attribute (``exc.corank``) outside ``errors.py`` there,
    leaving out the ``kept`` names.  Only attribute reads count, so a local
    variable that shares a field's name is no reader."""
    trees = [
        ast.parse(path.read_text())
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(BENCH.glob("*.py"))]
        if path.name != "errors.py"
    ]
    caught, read = set(), set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(getattr(t, "id", getattr(t, "attr", None)) for t in types)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)

    def fields(cls):
        return {
            node.attr
            for init in cls.body
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for node in ast.walk(init)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"
        }

    classes = [
        node
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    ]
    assert classes
    return [
        f"errors.{cls.name}"
        for cls in classes
        if cls.name not in caught and not fields(cls) & read and f"errors.{cls.name}" not in kept
    ]


def test_every_exception_class_is_caught_or_read():
    # a class a caller can neither catch by name nor read a field off is
    # one message with a name; raise the base class with that message
    assert uncaught_errors(kept_api()) == []


def unused_test_helpers():
    """Public functions and classes of the helper modules of tests/ (the
    modules not named ``test_*``) that no code in tests/ outside their own
    definition refers to."""
    bodies = {
        path.stem: [(node, referenced_names([node])) for node in ast.parse(path.read_text()).body]
        for path in sorted(TESTS.glob("*.py"))
    }
    others = [(node, names) for body in bodies.values() for node, names in body]
    unused = []
    for stem, body in bodies.items():
        if stem.startswith("test_"):
            continue
        for node, _ in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not any(node.name in names for other, names in others if other is not node):
                unused.append(f"{stem}.{node.name}")
    assert len(bodies) - sum(stem.startswith("test_") for stem in bodies) >= 8
    return unused


def test_every_test_helper_has_a_caller():
    assert unused_test_helpers() == []


def unread_fields():
    """Fields of the public dataclasses and ``NamedTuple`` classes of the
    package that no code in the package or in bench/ reads: as an
    attribute (``x.field`` in a load) or through ``getattr`` with the
    field's name written as a string.  Names are matched, not owners, so
    a read of another class's field of the same name counts."""
    import sphflex

    trees = [
        ast.parse(path.read_text())
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(BENCH.glob("*.py"))]
    ]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                read.add(name.value)
    classes = {}
    for info in pkgutil.iter_modules(sphflex.__path__, "sphflex."):
        stem = info.name.split(".")[1]
        for name, cls in vars(importlib.import_module(info.name)).items():
            if not isinstance(cls, type) or cls.__module__ != info.name or name.startswith("_"):
                continue
            if dataclasses.is_dataclass(cls):
                classes[f"{stem}.{name}"] = [f.name for f in dataclasses.fields(cls)]
            elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
                classes[f"{stem}.{name}"] = list(cls._fields)
    # the classes are found at run time, so no decorator form escapes; a
    # scan that saw none of these would pass on nothing
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
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert [type(node) for node in body] == [ast.Expr]
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def call_arguments(trees):
    """For every called name or attribute, the arguments of each call to
    it: how many positions it fills and which keywords it names.  A
    ``*args`` fills every position and a ``**kwargs`` names every keyword
    (None)."""
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls[name].append(
                (math.inf if starred else len(node.args), None if None in keywords else keywords)
            )
    return calls


def decorators(node):
    """Names of a definition's decorators, called or not."""
    return {
        getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None)
        for dec in node.decorator_list
    }


def defaulted_parameters(stem, tree):
    """``(row, callee, position, parameter)`` for every defaulted parameter
    of a public function or method, and every defaulted field of a public
    dataclass, in one module.  ``row`` names it as
    ``module.function(parameter)``, ``callee`` is the name a call uses, and
    ``position`` where a positional argument sets it (inf for a
    keyword-only one)."""

    def of_function(node, skip):
        args = node.args.posonlyargs + node.args.args
        first = len(args) - len(node.args.defaults)
        for i, arg in enumerate(args[first:], start=first):
            yield i - skip, arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield math.inf, arg.arg

    def has_default(value):
        # ``field(repr=False)`` declares a field without a default
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
        return value is not None

    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        name = f"{stem}.{node.name}"
        if isinstance(node, ast.FunctionDef):
            for position, param in of_function(node, 0):
                yield f"{name}({param})", node.name, position, param
            continue
        if "dataclass" in decorators(node):
            fields = [
                item
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            for position, item in enumerate(fields):
                if has_default(item.value):
                    field = item.target.id
                    yield f"{name}({field})", node.name, position, field
        for method in node.body:
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                skip = 0 if "staticmethod" in decorators(method) else 1
                for position, param in of_function(method, skip):
                    yield f"{name}.{method.name}({param})", method.name, position, param


def unset_parameters(kept):
    """Rows of the defaulted parameters and fields of the package that no
    call of their function's name in the package or in bench/ sets, by
    position or by keyword, leaving out the ``kept`` rows."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    calls = call_arguments([*trees.values(), *bench])

    def sets(callee, position, param):
        return any(
            count > position or keywords is None or param in keywords
            for count, keywords in calls[callee]
        )

    unset = []
    for stem, tree in trees.items():
        for row, callee, position, param in defaulted_parameters(stem, tree):
            if row not in kept and not sets(callee, position, param):
                unset.append(row)
    assert len(trees) >= 9
    return unset


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
    """Rows ``module.function(parameter)`` of the parameters of the
    package's functions and methods, private ones too, to which every call
    of the function's name in the package or in bench/, and at least two,
    passes the same constant (``is_constant``), leaving out the ``kept``
    rows.  A call that leaves the parameter to its default, or passes
    ``*args`` or ``**kwargs``, passes no constant."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    calls = defaultdict(list)
    for node in (node for tree in [*trees.values(), *bench] for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            calls[getattr(func, "attr", getattr(func, "id", None))].append(node)

    def argument(call, position, param):
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return None
        if position < len(call.args):
            return call.args[position]
        keywords = {kw.arg: kw.value for kw in call.keywords}
        return None if None in keywords else keywords.get(param)

    def definitions():
        for stem, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{stem}.{node.name}", node, 0
                elif isinstance(node, ast.ClassDef):
                    for method in node.body:
                        if isinstance(method, ast.FunctionDef):
                            skip = 0 if "staticmethod" in decorators(method) else 1
                            yield f"{stem}.{node.name}.{method.name}", method, skip

    flagged = []
    for name, node, skip in definitions():
        found = calls[node.name]
        params = node.args.posonlyargs + node.args.args
        named = [(i - skip, arg.arg) for i, arg in enumerate(params) if i >= skip]
        named += [(math.inf, arg.arg) for arg in node.args.kwonlyargs]
        for position, param in named:
            passed = [argument(call, position, param) for call in found]
            if len(passed) < 2 or not all(arg is not None and is_constant(arg) for arg in passed):
                continue
            row = f"{name}({param})"
            if len({ast.dump(arg) for arg in passed}) == 1 and row not in kept:
                flagged.append(row)
    assert len(trees) >= 9
    return flagged


def test_no_parameter_takes_one_constant_from_every_call():
    # a parameter that every call gives one constant is that constant
    assert constant_arguments(kept_parameters()) == []


def test_every_kept_row_is_needed():
    # each row of the table must be one that a guard flags once the row is
    # gone; a row for a name that has a caller, a defaulted parameter that a
    # call sets, or a parameter that calls give more than one value keeps
    # nothing
    kept, params = kept_api(), kept_parameters()
    stale = [
        name
        for name in sorted(kept)
        if name not in dead_names(kept - {name}) + uncaught_errors(kept - {name})
    ]
    stale += [
        row
        for row in sorted(params)
        if row not in unset_parameters(params - {row}) + constant_arguments(params - {row})
    ]
    assert kept and params
    assert stale == []
