"""The benchmark reaches into the package by name.

``bench/tracer.py`` lists the functions its span recorder wraps in
``TARGETS`` as (module, attribute, span) triples, and ``bench/workloads.py``
calls package functions through the modules and names it imports from
``sphflex``.  A renamed or removed name would only show up as a failed
benchmark run, so every one is resolved here.  Both files are read with
``ast``, not imported, so nothing of the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

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
