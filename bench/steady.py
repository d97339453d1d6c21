"""Steadiness mode: repeat workloads over seeds and print each metric's spread.

    python3 bench/steady.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
        [--save FILE] [--against FILE]

Runs ``run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, next to the metric's
bound; a spread should stay below a third of its bound.  ``--against``
compares the medians with an earlier ``--save`` file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
    collected: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable,
                os.path.join(BENCH, "run.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(spec["run_seconds"]),
                "--trace",
                str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(
                f"{workload} seed {seed}: "
                + "  ".join(f"{k}={v[-1]:.5g}" for k, v in values.items() if k in bounds),
                flush=True,
            )
        collected[workload] = values
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = (
                f"  {workload:15s} {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                f"  spread {spread:.3f}"
            )
            bound = bounds.get(name)
            if bound is not None:
                line += f"  bound {bound}  (target < {bound / 3:.3f})"
            if name in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][name])
                line += f"  median vs earlier {med / before - 1:+.3f}"
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(collected, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
