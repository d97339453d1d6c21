"""Span recorder for the traced run.

Wraps public functions of the package (and ``numpy.linalg.lstsq``/``svd``)
with a timer that records one span per call: layer name, start, end,
parent span and op id.  Spans are kept in flat in-memory lists, written
out once at the end, and reduced to per-layer metrics.  A layer's self
time is its span durations minus the time covered by its child spans.

Every wrapped name is patched in its defining module and in every
``sphflex`` module that imported it by name, and restored by
``Tracer.uninstall``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, span name); span names are "<layer>.<function>"
TARGETS = (
    ("sphflex.graphs", "build_graph", "graphs.build"),
    ("sphflex.coloring", "flexibility_certificate", "coloring.flexibility_certificate"),
    ("sphflex.coloring", "enumerate_nap", "coloring.enumerate_nap"),
    ("sphflex.coloring", "is_nap", "coloring.is_nap"),
    ("sphflex.cuts", "enumerate_valid_cuts", "cuts.enumerate_valid_cuts"),
    ("sphflex.cuts", "count_degree_table_orbits", "cuts.count_degree_table_orbits"),
    (
        "sphflex.cuts",
        "count_degree_table_orbits_burnside",
        "cuts.count_degree_table_orbits_burnside",
    ),
    ("sphflex.cuts", "count_k33_subgraph_classes", "cuts.count_k33_subgraph_classes"),
    ("sphflex.cuts", "count_admissible_tables_raw", "cuts.count_admissible_tables_raw"),
    ("sphflex.cuts", "admissible_cases", "cuts.admissible_cases"),
    ("sphflex.cuts", "build_pullback_system", "cuts.build_pullback_system"),
    ("sphflex.cuts", "mu_solutions", "cuts.mu_solutions"),
    ("sphflex.quads", "classify", "quads.classify"),
    ("sphflex.cli", "run", "cli.run"),
    ("sphflex.cli", "verify_suite", "cli.verify_suite"),
    ("sphflex.continuation", "trace", "continuation.trace"),
    ("sphflex.continuation", "newton_correct", "continuation.newton_correct"),
    ("sphflex.continuation", "residual_vector", "continuation.residual_vector"),
    ("sphflex.continuation", "jacobian", "continuation.jacobian"),
    ("sphflex.continuation", "corank_and_tangent", "continuation.corank_and_tangent"),
    ("sphflex.continuation", "empirical_map_degree", "continuation.empirical_map_degree"),
    ("numpy.linalg", "lstsq", "linalg.lstsq"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("sphflex.motions.MotionTrajectory", "__post_init__", "motions.validate"),
    ("sphflex.motions", "make_trajectory", "motions.make_trajectory"),
    ("sphflex.motions", "polar_nap_motion", "motions.generate"),
    ("sphflex.motions", "dixon1_motion", "motions.generate"),
    ("sphflex.motions", "dixon2_motion", "motions.generate"),
    ("sphflex.motions", "cda_motion", "motions.generate"),
    ("sphflex.motions", "detect_k33_motion_kind", "motions.detect_k33_motion_kind"),
    ("sphflex.spherical", "max_edge_residual", "spherical.max_edge_residual"),
    ("sphflex.spherical", "degenerate_pairs", "spherical.degenerate_pairs"),
    ("sphflex.spherical", "essentially_distinct", "spherical.essentially_distinct"),
    ("sphflex.formats", "dumps", "formats.dumps"),
    ("sphflex.formats", "trajectory_to_dict", "formats.trajectory_to_dict"),
    ("sphflex.formats", "trajectory_from_dict", "formats.trajectory_from_dict"),
    ("sphflex.formats", "trajectory_to_csv", "formats.trajectory_to_csv"),
)

OP_SPAN = "bench.op"
LAYERS = (
    "graphs",
    "coloring",
    "cuts",
    "quads",
    "cli",
    "continuation",
    "linalg",
    "motions",
    "spherical",
    "formats",
)
# trace seeds per edge count: K(3,3), K(3,4), K(4,4), K(4,5), K(5,5), K(6,6)
STEP_EDGE_COUNTS = (9, 12, 16, 20, 25, 36)


def _resolve(path: str) -> Any:
    """Module or class named by a dotted path (modules already imported)."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise KeyError(f"{path} is not imported")


class Tracer:
    """Records spans while ``active``; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.active = False
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.span_start[idx] = start
            self.span_end[idx] = end
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, idx, args, result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Patch every target where it is defined and where it was imported."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "sphflex"]
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            self._patch(owner, attr, wrapped)
            for mod in modules:
                if mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def write(self, path: str) -> None:
        """Gzipped TSV, one line per span: op, span, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for i, nid in enumerate(self.span_name):
                fh.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t{self.names[nid]}"
                    f"\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )

    def _durations(self) -> tuple[list[float], list[float]]:
        """Each span's duration and the part of it its child spans cover."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, child

    def self_shares(self, group_of_op: dict[int, str]) -> dict[str, dict[str, float]]:
        """Per group of ops, each layer's self time over the group's op time."""
        dur, child = self._durations()
        op_time: dict[str, float] = defaultdict(float)
        layer_time: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, nid in enumerate(self.span_name):
            group = group_of_op.get(self.span_op[i], "")
            layer = self.names[nid].split(".")[0]
            if self.names[nid] == OP_SPAN:
                op_time[group] += dur[i]
            elif layer in LAYERS:
                layer_time[group][layer] += dur[i] - child[i]
        return {
            g: {layer: layer_time[g][layer] / t for layer in LAYERS if layer_time[g][layer]}
            for g, t in op_time.items()
            if t
        }

    def metrics(self) -> dict[str, float]:
        """Per-name calls/busy/self, per-layer self time and the counters."""
        n = len(self.span_name)
        dur, child = self._durations()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            # nested calls of the same name count once toward busy time
            p = self.span_parent[i]
            if p < 0 or self.span_name[p] != self.span_name[i]:
                busy[name] += dur[i]
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
        total = busy.get(OP_SPAN, 0.0)
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"layer.{layer}.self_share"] = layer_self / total if total else 0.0
        out.update(self.counters)
        return out


# -- post-call hooks: counts taken at the same boundaries as the spans ---


def _count_colorings(tr: Tracer, idx: int, args, result) -> None:
    tr.counters["coloring.colorings_out"] += len(result)


def _count_cuts(tr: Tracer, idx: int, args, result) -> None:
    tr.counters["cuts.cuts_out"] += len(result)


def _count_newton(tr: Tracer, idx: int, args, result) -> None:
    tr.counters["continuation.newton_correct.failed"] += result is None


def _count_trace(tr: Tracer, idx: int, args, result) -> None:
    tr.counters["continuation.steps_accepted"] += result.steps
    edges = args[0].num_edges
    tr.counters[f"continuation.trace_s.e{edges}"] += tr.span_end[idx] - tr.span_start[idx]
    tr.counters[f"continuation.trace_steps.e{edges}"] += result.steps


def _count_samples(tr: Tracer, idx: int, args, result) -> None:
    tr.counters["motions.samples_out"] += len(result.samples)


def _count_bytes(tr: Tracer, idx: int, args, result) -> None:
    tr.counters["formats.bytes_out"] += len(result.encode())


_HOOKS: dict[str, Callable[[Tracer, int, tuple, Any], None]] = {
    "coloring.enumerate_nap": _count_colorings,
    "cuts.enumerate_valid_cuts": _count_cuts,
    "continuation.newton_correct": _count_newton,
    "continuation.trace": _count_trace,
    "motions.generate": _count_samples,
    "formats.dumps": _count_bytes,
    "formats.trajectory_to_csv": _count_bytes,
}


def per_layer(raw: dict[str, float], overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics declared in BENCHMARK.json, from ``Tracer.metrics``."""

    def get(key: str) -> float:
        return float(raw.get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def calls_busy(name: str, *, self_s: bool = False, calls: bool = True, busy: bool = True):
        if calls:
            out[f"{name}.calls"] = (get(f"{name}.calls"), "count")
        if busy:
            out[f"{name}.busy_s"] = (get(f"{name}.busy_s"), "s")
        if self_s:
            out[f"{name}.self_s"] = (get(f"{name}.self_s"), "s")

    calls_busy("graphs.build")
    calls_busy("coloring.flexibility_certificate")
    calls_busy("coloring.enumerate_nap")
    out["coloring.colorings_out"] = (get("coloring.colorings_out"), "count")
    out["coloring.us_per_coloring"] = (
        1e6 * ratio(get("coloring.enumerate_nap.busy_s"), get("coloring.colorings_out")),
        "us",
    )
    calls_busy("coloring.is_nap")
    calls_busy("cuts.enumerate_valid_cuts")
    out["cuts.cuts_out"] = (get("cuts.cuts_out"), "count")
    for name in (
        "cuts.count_degree_table_orbits",
        "cuts.count_degree_table_orbits_burnside",
        "cuts.count_k33_subgraph_classes",
        "cuts.count_admissible_tables_raw",
        "cuts.admissible_cases",
        "cuts.build_pullback_system",
    ):
        calls_busy(name, calls=False)
    calls_busy("cuts.mu_solutions")
    calls_busy("quads.classify")
    calls_busy("cli.run", self_s=True)
    calls_busy("cli.verify_suite", calls=False)
    calls_busy("continuation.trace", self_s=True)
    calls_busy("continuation.newton_correct", self_s=True)
    out["continuation.newton_correct.fail_ratio"] = (
        ratio(
            get("continuation.newton_correct.failed"),
            get("continuation.newton_correct.calls"),
        ),
        "ratio",
    )
    calls_busy("continuation.residual_vector")
    calls_busy("continuation.jacobian")
    calls_busy("continuation.corank_and_tangent")
    calls_busy("continuation.empirical_map_degree", calls=False)
    out["continuation.steps_accepted"] = (get("continuation.steps_accepted"), "count")
    for e in STEP_EDGE_COUNTS:
        out[f"continuation.step_ms.e{e}"] = (
            1e3
            * ratio(
                get(f"continuation.trace_s.e{e}"), get(f"continuation.trace_steps.e{e}")
            ),
            "ms",
        )
    calls_busy("linalg.lstsq")
    calls_busy("linalg.svd")
    calls_busy("motions.validate")
    calls_busy("motions.make_trajectory")
    out["motions.generate.self_s"] = (get("motions.generate.self_s"), "s")
    calls_busy("motions.detect_k33_motion_kind")
    out["motions.samples_out"] = (get("motions.samples_out"), "count")
    calls_busy("spherical.max_edge_residual")
    calls_busy("spherical.degenerate_pairs")
    calls_busy("spherical.essentially_distinct")
    calls_busy("formats.dumps")
    out["formats.bytes_out"] = (get("formats.bytes_out"), "bytes")
    out["formats.trajectory_to_dict.busy_s"] = (get("formats.trajectory_to_dict.busy_s"), "s")
    out["formats.trajectory_from_dict.self_s"] = (
        get("formats.trajectory_from_dict.self_s"),
        "s",
    )
    out["formats.trajectory_to_csv.busy_s"] = (get("formats.trajectory_to_csv.busy_s"), "s")
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = (get(f"layer.{layer}.self_share"), "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out

