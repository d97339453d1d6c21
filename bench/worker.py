"""One workload in one process: set up, run the timed ops, check, report.

Started by ``run.py`` with single-threaded BLAS in its environment and
``src`` on ``PYTHONPATH``.  Prints one JSON object on its last stdout line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at WALL_TIME [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# nominal seconds of one cycle of each workload on the reference machine
# (2-vCPU Xeon VM, single-threaded OpenBLAS); a run does about --seconds
# of work: round(seconds / nominal) cycles, at least MIN_CYCLES
NOMINAL_CYCLE_S = {
    "certify-tables": 13.7,
    "trace-realize": 2.45,
}
MIN_CYCLES = 2
# a run stops starting cycles after this many times --seconds
GUARD_FACTOR = 1.6
TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND ops beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 0.0, ordered[0]
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, ordered[k]


class Phase:
    """Runs cycles of ops closed-loop and keeps per-op latency and outcome."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.names: list[str] = []
        self.families: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.errors: list[str] = []
        self.elapsed = 0.0
        self.guard_hit = False

    def run(self, cycles, budget_s: float) -> None:
        """Run the cycles; after the first, start none once budget_s is spent."""
        from workloads import CheckError

        tr = self.tracer
        deadline = time.perf_counter() + budget_s
        for k, ops in enumerate(cycles):
            if k and time.perf_counter() > deadline:
                self.guard_hit = True
                break
            for op in ops:
                self.attempted += 1
                self.families[self.attempted] = op.family
                error = None
                # every op starts from a collected heap, so a collection
                # triggered by earlier ops' garbage does not land in it
                gc.collect()
                if tr is not None:
                    tr.op_id = self.attempted
                    tr.active = True
                t0 = time.perf_counter()
                try:
                    if tr is not None:
                        result = tr.span("bench.op", op.run)
                    else:
                        result = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    error = f"{op.name}: raised {type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if tr is not None:
                    tr.active = False
                self.elapsed += t1 - t0
                self.latencies.append(t1 - t0)
                self.names.append(op.name)
                if error is None:
                    try:
                        op.check(result)
                    except CheckError as exc:
                        error = f"{op.name}: check failed: {exc}"
                if error is None:
                    self.refused += op.refusal
                else:
                    self.failed += 1
                    self.errors.append(error)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed if self.elapsed else 0.0


def environment(seed: int) -> dict:
    import numpy as np

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": None,
        "cpu": None,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import sphflex

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(sphflex.__file__), src]) != src:
        print(f"sphflex imported from {sphflex.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    cycles_n = max(MIN_CYCLES, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(BENCH, ".work"))
    try:
        files = workloads.Files(workdir)
        try:
            cycles = workloads.WORKLOADS[args.workload](args.seed, cycles_n, files)
        except workloads.CheckError as exc:
            print(f"input generation failed: {exc}", file=sys.stderr)
            return 1
        setup_s = time.time() - args.spawned_at
        gc.freeze()  # set-up objects are not rescanned by collections in ops
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        budget = GUARD_FACTOR * args.seconds
        report = {"setup_s": setup_s, "cycles": cycles_n, "env": environment(args.seed)}
        if args.trace:
            from tracer import Tracer

            half = max(1, (cycles_n + 1) // 2)
            plain = Phase()
            plain.run(cycles[:half], budget / 2)
            tr = Tracer()
            tr.install()
            try:
                traced = Phase(tr)
                traced.run(cycles[:half], budget)
            finally:
                tr.uninstall()
            if args.spans_out:
                tr.write(args.spans_out)
            raw = tr.metrics()
            report["layers_raw"] = raw
            report["family_self_share"] = tr.self_shares(traced.families)
            report["overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
            phases = (plain, traced)
        else:
            timed = Phase()
            timed.run(cycles, budget)
            pct, tail_s = tail(timed.latencies)
            report.update(
                ops_per_s=timed.ops_per_s,
                op_p50_ms=1e3 * statistics.median(timed.latencies),
                op_tail_ms=1e3 * tail_s,
                op_tail_percentile=pct,
                timed_s=timed.elapsed,
                op_latencies_s=list(zip(timed.names, timed.latencies)),
            )
            phases = (timed,)
        report["attempted"] = sum(p.attempted for p in phases)
        report["failed"] = sum(p.failed for p in phases)
        report["refused"] = sum(p.refused for p in phases)
        report["errors"] = [e for p in phases for e in p.errors][:20]
        report["guard_hit"] = any(p.guard_hit for p in phases)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
