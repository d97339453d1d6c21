"""The benchmark reaches into the package by name.

``bench/tracer.py`` lists the functions its span recorder wraps in
``TARGETS`` as (module, attribute, span) triples, and ``bench/workloads.py``
calls package functions through the modules and names it imports from
``sphflex`` and methods on the objects they return.  A renamed or removed
name would only show up as a failed benchmark run, so every one is
resolved here.  Both files are read with
``ast``, not imported, so nothing of the benchmark runs.
"""

import ast
import dataclasses
import hashlib
import importlib
import io
import pkgutil
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


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
