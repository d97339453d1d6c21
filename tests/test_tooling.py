"""The benchmark's span recorder wraps package functions by name.

``bench/tracer.py`` lists them in ``TARGETS`` as (module, attribute, span)
triples.  A renamed or removed function would only show up as a failed
traced benchmark run, so every pair is resolved here.  The file is read
with ``ast``, not imported, so nothing of the recorder runs.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
