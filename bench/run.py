"""The sphflex benchmark: one workload per call, in fresh worker processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved
from this file).  Each worker process gets ``OPENBLAS_NUM_THREADS=1`` and
``OMP_NUM_THREADS=1`` in its own environment and ``src`` on its
``PYTHONPATH``; nothing is installed.  With ``--trace 0`` several
set-up-only workers run first, to take the median set-up time, and then
one worker runs the timed ops.  With ``--trace 1`` one worker times half
the cycles plainly and the same cycles again with spans recorded, and the
per-layer metrics come from the spans.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is nonzero when any op failed or was wrong, and when the package
sources are missing (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 160
WORKLOADS = ("certify-tables", "trace-realize")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: argparse.Namespace, extra: list[str], timeout: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    cmd = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--spawned-at",
        repr(time.time()),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise SystemExit(f"worker did not finish within {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sphflex", "__init__.py")):
        print(f"no package sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    extra = ["--spans-out", stem + ".spans.tsv.gz"] if args.trace else []
    setups = []
    if not args.trace:
        setups = [
            spawn(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
    report = spawn(args, extra, WORKER_TIMEOUT_S)
    setups.append(report["setup_s"])
    setups.sort()
    report["setup_runs_s"] = setups

    env = report["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  cycles {report['cycles']}")
    print(
        f"python {env['python']}  numpy {env['numpy']}  blas {env['openblas']}  "
        f"cpu {env['cpu']}  nproc {env['nproc']}  "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} OMP_NUM_THREADS={env['OMP_NUM_THREADS']}"
    )
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        from tracer import per_layer

        metrics = per_layer(report["layers_raw"], report["overhead_ratio"])
    else:
        metrics = {
            "setup_s": (setups[len(setups) // 2], "s"),
            "ops_per_s": (report["ops_per_s"], "1/s"),
            "op_p50_ms": (report["op_p50_ms"], "ms"),
            "op_tail_ms": (report["op_tail_ms"], "ms"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{report['op_tail_percentile']:.1f} of {attempted} ops)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} set-ups)"
        print(f"{name}: {value:.6g} {unit}{note}")
    for family, shares in sorted(report.get("family_self_share", {}).items()):
        top = sorted(shares.items(), key=lambda kv: -kv[1])
        print(f"self time, {family} ops: " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    print(f"fail_ratio: {failed / attempted:.6g} -  ({failed} of {attempted} ops)")
    print(f"refused_ratio: {report['refused'] / attempted:.6g} -  (expected budget refusals)")
    if report["guard_hit"]:
        print("warning: the run hit its time guard; later cycles were skipped")
    for err in report["errors"]:
        print(f"error: {err}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)

    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
