"""Command-line interface tying the library together.

Subcommands: colorings, certify, realize, trace, classify-quad, k33,
tables, verify.  Exit status 0 on success, 1 on a domain error, 2 on a
usage error.  All randomness sits behind --seed (or the SPHFLEX_SEED
environment variable), and structured output is deterministic for fixed
inputs and seed.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import cuts, formats, motions, quads
from .coloring import enumerate_nap, flexibility_certificate, is_nac
from .errors import SphflexError
from .graphs import (
    Graph,
    apex_double_triangle,
    complete,
    k22,
    k32,
    k33,
    three_prism,
    triangle,
)

_log = logging.getLogger("sphflex")

# the most --samples takes: a K(3,3) stack of them holds 14 MB of points
MAX_SAMPLES = 100_000

CORPUS: dict[str, Callable[[], Graph]] = {
    "k3": triangle,
    "k4": lambda: complete(4),
    "k22": k22,
    "k32": k32,
    "k33": k33,
    "laman5": apex_double_triangle,
    "prism3": three_prism,
}

# the four degree tables surviving the row/column filter, by name in the
# order produced by cuts.admissible_cases(), with their resolved type tables
# and how each case is settled
EXPECTED_CASES = {
    "rhomboid-lozenge": {
        "degree": ((1, 1, 1), (1, 1, 1), (1, 1, 2)),
        "types": (("r", "r", "e"), ("r", "r", "e"), ("o", "o", "l")),
        "outcome": "excluded geometrically: its rhomboids would need orthogonal diagonals",
    },
    "three-rhomboids": {
        "degree": ((2, 1, 1), (1, 2, 1), (1, 1, 2)),
        "types": (("r", "g", "g"), ("g", "r", "g"), ("g", "g", "r")),
        "outcome": "realized by the Dixon 2 motion (three rhomboids of component 1)",
    },
    "constant-diagonal-angle": {
        "degree": ((1, 1, 2), (1, 1, 2), (2, 2, 2)),
        "types": (("g", "g", "e"), ("g", "g", "e"), ("o", "o", "g")),
        "outcome": "realized by the constant-diagonal-angle motion",
    },
    "all-general": {
        "degree": ((2, 2, 2), (2, 2, 2), (2, 2, 2)),
        "types": (("g", "g", "g"), ("g", "g", "g"), ("g", "g", "g")),
        "outcome": "excluded arithmetically: the cut-multiplicity system has no integer solution",
    },
}


def pullback_systems() -> dict[str, list[cuts.Equation]]:
    """The integer pullback systems, built from the ``EXPECTED_CASES`` rows
    and keyed by the labels ``tables`` prints: the all-general case's om
    pullbacks, and the three-rhomboid case's om and ou pullbacks with every
    rhomboid of component 1 or of component 2."""

    def system(name: str, divisors: tuple[str, ...], component: Optional[int] = None):
        case = EXPECTED_CASES[name]
        tt = cuts.TypeTable(case["types"])
        quads = [(o, e) for o in cuts.ODD_VERTICES for e in cuts.EVEN_VERTICES]
        rhomboids = {q: component for q in quads if tt.entry(*q) == "r"}
        return cuts.build_pullback_system(cuts.DegreeTable(case["degree"]), tt, rhomboids, divisors)

    return {
        "all-general (om pullbacks)": system("all-general", ("om",)),
        "three-rhomboids type 1": system("three-rhomboids", ("om", "ou"), 1),
        "three-rhomboids type 2": system("three-rhomboids", ("om", "ou"), 2),
    }


@dataclass
class FactCheck:
    name: str
    computed: Any
    expected: Any

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


def _admissible_cases_match() -> tuple[int, bool]:
    cases = cuts.admissible_cases()
    summary = []
    for case, expect in zip(cases, EXPECTED_CASES.values()):
        target = cuts.DegreeTable(expect["degree"])
        aligned = cuts.align_type_table(case.degree_table, case.type_table, target)
        type_ok = aligned is not None and all(
            aligned.grid[r][c] == expect["types"][r][c]
            or (
                aligned.grid[r][c] == "r/l"
                and expect["types"][r][c] in ("r", "l")
            )
            for r in range(3)
            for c in range(3)
        )
        summary.append(type_ok)
    return len(cases), all(summary)


def _three_rhomboids_type1_unique(system: list[cuts.Equation]) -> bool:
    sols = cuts.mu_solutions(system, max_solutions=2)
    expected_nonzero = {
        cuts.NormalCut(1, "PQQ").canonical(): 1,
        cuts.NormalCut(3, "QPQ").canonical(): 1,
        cuts.NormalCut(5, "QQP").canonical(): 1,
    }
    return len(sols) == 1 and {
        k: v for k, v in sols[0].items() if v
    } == expected_nonzero


def _diagonal_angle_relation() -> Fraction:
    a, e = Fraction(3, 5), Fraction(3, 4)
    return a**3 * e**2 + a**3 - a * e**2


def _nap_not_nac_in_corpus() -> int:
    violations = 0
    for builder in CORPUS.values():
        g = builder()
        for c in enumerate_nap(g, modulo_swap=False):
            if not is_nac(c):
                violations += 1
    return violations


def verify_suite() -> list[FactCheck]:
    """Recompute the embedded combinatorial facts and compare.

    Each fact's computation is timed, and its name and elapsed seconds go
    to a debug record (``fact``, ``elapsed_s``) on the ``sphflex`` logger.
    """
    facts: list[FactCheck] = []
    systems = pullback_systems()

    def check(name: str, compute: Callable[[], Any], expected: Any) -> None:
        start = time.perf_counter()
        computed = compute()
        elapsed = time.perf_counter() - start
        _log.debug(
            "verify fact %s took %.6f s",
            name,
            elapsed,
            extra={"fact": name, "elapsed_s": elapsed},
        )
        facts.append(FactCheck(name, computed, expected))

    check("degree-table-orbits", cuts.count_degree_table_orbits, 26)
    check("degree-table-orbits-burnside", cuts.count_degree_table_orbits_burnside, 26.0)
    check("k33-subgraph-classes", cuts.count_k33_subgraph_classes, 26)
    check("admissible-cases", _admissible_cases_match, (4, True))
    check(
        "all-general-case-infeasible",
        lambda: cuts.mu_system_feasible(systems["all-general (om pullbacks)"]) is None,
        True,
    )
    check(
        "three-rhomboids-type1-unique",
        lambda: _three_rhomboids_type1_unique(systems["three-rhomboids type 1"]),
        True,
    )
    check(
        "three-rhomboids-type2-infeasible",
        lambda: cuts.mu_system_feasible(systems["three-rhomboids type 2"]) is None,
        True,
    )
    check("diagonal-angle-relation-exact", _diagonal_angle_relation, Fraction(0))
    check("k33-nap-count-mod-swap", lambda: len(enumerate_nap(k33(), modulo_swap=True)), 6)
    check("k33-nap-count", lambda: len(enumerate_nap(k33(), modulo_swap=False)), 12)
    check("nap-implies-nac-corpus", _nap_not_nac_in_corpus, 0)
    check(
        "corpus-flexibility",
        lambda: {
            name: flexibility_certificate(builder()) is not None
            for name, builder in CORPUS.items()
        },
        {
            "k3": False,
            "k4": False,
            "k22": True,
            "k32": True,
            "k33": True,
            "laman5": True,
            "prism3": False,
        },
    )
    return facts


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _load_graph(args) -> Graph:
    if getattr(args, "corpus", None):
        return CORPUS[args.corpus]()
    if getattr(args, "graph", None):
        with open(args.graph) as fh:
            return formats.load_graph_text(fh.read())
    raise SphflexError("no graph given; use --graph FILE or --corpus NAME")


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed(args) -> int:
    """``--seed``, else the SPHFLEX_SEED environment variable, else 0; the
    variable is read per call, so one process can run with several."""
    if args.seed is not None:
        if args.seed < 0:
            raise SphflexError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    text = os.environ.get("SPHFLEX_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        raise SphflexError(f"SPHFLEX_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise SphflexError(f"SPHFLEX_SEED must be a non-negative integer, got {text!r}")
    return seed


def _floats(flag: str, text: str) -> list[float]:
    """A list flag's numbers, split at commas or spaces; no field is empty."""
    fields = [field.split() for field in text.split(",")]
    if [] in fields:
        raise SphflexError(f"{flag} field {fields.index([]) + 1} of {text!r} is empty")
    return [float(tok) for field in fields for tok in field]


def _sample_count(text: str) -> int:
    """``--samples``: an integer from 2, the fewest a trajectory has, to ``MAX_SAMPLES``."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError(f"a trajectory needs at least 2 samples, got {n}")
    if n > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"at most {MAX_SAMPLES} samples are allowed, got {n}")
    return n


def _add_graph_args(p: argparse.ArgumentParser):
    p.add_argument("--graph", help="graph file (JSON or edge list)")
    p.add_argument("--corpus", choices=sorted(CORPUS), help="embedded example graph")


def _add_io_args(p: argparse.ArgumentParser, formats_=("text", "structured", "tabular")):
    p.add_argument("--format", choices=formats_, default="text")
    p.add_argument("--out", help="output path (default stdout)")


def _trajectory_text(args, traj: motions.MotionTrajectory) -> str:
    if args.format == "structured":
        return formats.dump_trajectory(traj)
    if args.format == "tabular":
        return formats.trajectory_to_csv(traj)
    injective, proper = traj.sample_flags()
    lines = [
        f"kind: {traj.kind}",
        f"samples: {len(traj.points)}",
        f"max edge residual: {traj.max_residual():.3e}",
        f"all samples injective: {bool(injective.all())}",
        f"all samples proper: {bool(proper.all())}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_colorings(args) -> int:
    g = _load_graph(args)
    result = enumerate_nap(g, modulo_swap=args.modulo_swap)
    if args.format == "structured":
        _emit(args, formats.dump_coloring_set(result, args.modulo_swap))
    else:
        lines = [f"{len(result)} NAP-colorings"]
        for c in result:
            red = " ".join(f"{a}-{b}" for a, b in c.red_edges())
            lines.append(f"red: {red}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_certify(args) -> int:
    g = _load_graph(args)
    cert = flexibility_certificate(g)
    if args.format == "structured":
        payload = {
            "flexible_on_sphere": cert is not None,
            "certificate": formats.coloring_to_list(cert) if cert else None,
        }
        _emit(args, formats.dumps(payload))
    elif cert is None:
        _emit(args, "not flexible on the sphere\n")
    else:
        red = " ".join(f"{a}-{b}" for a, b in cert.red_edges())
        _emit(args, f"flexible on the sphere; certificate red edges: {red}\n")
    return 0


def _cmd_realize(args) -> int:
    g = _load_graph(args)
    if args.coloring:
        with open(args.coloring) as fh:
            coloring = formats.coloring_from_dict(
                g, formats.read_json(fh.read(), formats.COLORING_SHAPE)
            )
    else:
        coloring = flexibility_certificate(g)
        if coloring is None:
            raise SphflexError("graph admits no NAP-coloring, nothing to realize")
    angles = np.linspace(0.0, 2.0 * np.pi, args.samples, endpoint=False)
    traj = motions.polar_nap_motion(g, coloring, list(angles), seed=_seed(args))
    _emit(args, _trajectory_text(args, traj))
    return 0


def _cmd_trace(args) -> int:
    from . import continuation

    g = _load_graph(args)
    with open(args.lengths) as fh:
        lam = formats.lengths_from_dict(formats.read_json(fh.read(), formats.LENGTHS_SHAPE))
    with open(args.seed_realization) as fh:
        seed = formats.realization_from_dict(
            formats.read_json(fh.read(), formats.PLACEMENT_SHAPE)
        )
    cfg = continuation.TraceConfig(step_size=args.step, max_steps=args.max_steps)
    result = continuation.trace(g, lam, seed, config=cfg)
    if args.format == "text":
        _emit(
            args,
            f"traced {result.steps} steps, stop: {result.stop_reason}, "
            f"closed: {result.closed}\n",
        )
    else:
        _emit(args, _trajectory_text(args, result.trajectory))
    return 0


def _cmd_classify_quad(args) -> int:
    if (args.deltas is None) == (args.lambdas is None):
        raise SphflexError("give exactly one of --deltas or --lambdas")
    if args.deltas is not None:
        vals = _floats("--deltas", args.deltas)
    else:
        vals = _floats("--lambdas", args.lambdas)
        for l in vals:
            if not 0.0 < l < 1.0:
                raise SphflexError(f"--lambdas value {l} outside (0, 1)")
        vals = [1.0 - 2.0 * l for l in vals]
    if len(vals) != 4:
        raise SphflexError("need four edge values (d12, d23, d34, d14)")
    q = quads.QuadLengths(*vals)
    qt = quads.classify(q, tol=args.tol)
    rows = qt.mu_rows()
    if args.format == "structured":
        payload = {
            "type": qt.tag,
            "sign_profile": list(qt.sign_profile),
            "mu_rows": {
                f"{case}/{sub}": list(row) for (case, sub), row in rows.items()
            },
        }
        _emit(args, formats.dumps(payload))
    else:
        lines = [f"type: {qt.tag}", f"sign profile: {qt.sign_profile}"]
        lines.append("matching multiplicity rows (om ou em eu):")
        for (case, sub), row in sorted(rows.items(), key=str):
            lines.append(f"  {case} {sub}: {row.om} {row.ou} {row.em} {row.eu}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _grid(lo: float, hi: float, n: int, flags: str) -> list[float]:
    """``n`` evenly spaced values from ``lo`` to ``hi``, a finite range."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SphflexError(f"{flags} must be finite, got {lo} and {hi}")
    return list(np.linspace(lo, hi, n))


def _cmd_k33(args) -> int:
    n = args.samples
    if args.kind == "dixon1":
        c, d = _floats("--c", args.c), _floats("--d", args.d)
        for flag, vals in (("--c", c), ("--d", d)):
            if len(vals) != 3:
                raise SphflexError(f"{flag} needs three slopes, got {len(vals)}")
        params = motions.Dixon1Params(c=dict(zip((1, 3, 5), c)), d=dict(zip((2, 4, 6), d)))
        s_vals = _grid(args.s_min, args.s_max, n, "--s-min/--s-max")
        traj = motions.dixon1_motion(params, s_vals)
    elif args.kind == "dixon2":
        params = motions.Dixon2Params(args.alpha, args.beta, args.gamma)
        p1_vals = _grid(args.p1_min, args.p1_max, n, "--p1-min/--p1-max")
        traj = motions.dixon2_motion(params, p1_vals)
        if not args.full_k44:
            traj = traj.restrict(range(1, 7))
    else:
        params = motions.cda_params_from_e(0.75)
        t_vals = _grid(args.t_min, args.t_max, n, "--t-min/--t-max")
        traj = motions.cda_motion(params, t_vals, y2_sign=args.y2_sign, z5_sign=args.z5_sign)
    _emit(args, _trajectory_text(args, traj))
    return 0


def _cmd_tables(args) -> int:
    cases = cuts.admissible_cases()
    raw = sum(c.orbit_size for c in cases)
    verdicts = {
        label: cuts.mu_system_feasible(system) is not None
        for label, system in pullback_systems().items()
    }
    if args.format == "structured":
        payload = {
            "mu_table": {
                f"{case}/{sub}": list(row)
                for (case, sub), row in cuts.MU_TABLE.items()
            },
            "degree_table_orbits": cuts.count_degree_table_orbits(),
            "admissible_tables_before_symmetry": raw,
            "admissible_cases": [
                {
                    "degree_table": [list(r) for r in c.degree_table.grid],
                    "type_table": [list(r) for r in c.type_table.grid],
                    "outcome": expect["outcome"],
                }
                for c, expect in zip(cases, EXPECTED_CASES.values())
            ],
            "feasibility": verdicts,
        }
        _emit(args, formats.dumps(payload))
        return 0
    lines = ["multiplicity table (case subcase: om ou em eu)"]
    for (case, sub), row in cuts.MU_TABLE.items():
        lines.append(f"  {case:>1} {str(sub):>9}: {row.om} {row.ou} {row.em} {row.eu}")
    lines.append(f"degree-table orbits: {cuts.count_degree_table_orbits()}")
    lines.append(
        f"admissible degree tables before quotienting by symmetry: {raw}"
    )
    lines.append("admissible cases (degree table -> type table):")
    for i, (c, expect) in enumerate(zip(cases, EXPECTED_CASES.values()), start=1):
        lines.append(f"  case {i}: {expect['outcome']}")
        for dr, tr in zip(c.degree_table.grid, c.type_table.grid):
            lines.append(
                "    " + " ".join(map(str, dr)) + "   |   " + " ".join(tr)
            )
    lines.append("integer feasibility of the pullback systems:")
    for name, feasible in verdicts.items():
        lines.append(f"  {name}: {'solvable' if feasible else 'infeasible'}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    facts = verify_suite()
    if args.format == "structured":
        payload = [
            {
                "name": f.name,
                "computed": repr(f.computed),
                "expected": repr(f.expected),
                "passed": f.passed,
            }
            for f in facts
        ]
        _emit(args, formats.dumps(payload))
    else:
        lines = []
        for f in facts:
            tag = "PASS" if f.passed else "FAIL"
            lines.append(f"{tag} {f.name}: computed {f.computed!r}, expected {f.expected!r}")
        ok = sum(f.passed for f in facts)
        lines.append(f"{ok}/{len(facts)} facts verified")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all(f.passed for f in facts) else 1


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``run`` call in this process shares; parsing
    leaves it unchanged, and nothing in it depends on the environment."""
    parser = argparse.ArgumentParser(
        prog="sphflex",
        description="spherical flexibility of graphs: colorings, cuts, motions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colorings", help="enumerate NAP-colorings")
    _add_graph_args(p)
    p.add_argument("--modulo-swap", action="store_true")
    _add_io_args(p, ("text", "structured"))
    p.set_defaults(func=_cmd_colorings)

    p = sub.add_parser("certify", help="decide spherical flexibility")
    _add_graph_args(p)
    _add_io_args(p, ("text", "structured"))
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("realize", help="sample the pole motion of a NAP-coloring")
    _add_graph_args(p)
    p.add_argument("--coloring", help=f"coloring file, {formats.COLORING_SHAPE}")
    p.add_argument("--samples", type=_sample_count, default=12)
    p.add_argument("--seed", type=int, help="motion seed (default: SPHFLEX_SEED or 0)")
    _add_io_args(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("trace", help="numerically follow a configuration curve")
    _add_graph_args(p)
    p.add_argument("--lengths", required=True)
    p.add_argument("--seed-realization", required=True, dest="seed_realization")
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--max-steps", type=int, default=5000)
    _add_io_args(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("classify-quad", help="classify a spherical quadrilateral")
    p.add_argument("--deltas", help="four inner products d12,d23,d34,d14")
    p.add_argument("--lambdas", help="four spherical lengths instead")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_io_args(p, ("text", "structured"))
    p.set_defaults(func=_cmd_classify_quad)

    p = sub.add_parser("k33", help="generate a named K(3,3) motion")
    p.add_argument("--kind", choices=("dixon1", "dixon2", "cda"), required=True)
    p.add_argument("--samples", type=_sample_count, default=25)
    p.add_argument("--c", default="0.2,0.4,0.6", help="dixon1 odd-vertex slopes")
    p.add_argument("--d", default="0.3,0.5,0.7", help="dixon1 even-vertex slopes")
    p.add_argument("--s-min", type=float, default=1.0)
    p.add_argument("--s-max", type=float, default=1.25)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--beta", type=float, default=0.15)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--p1-min", type=float, default=0.45)
    p.add_argument("--p1-max", type=float, default=0.6)
    p.add_argument("--full-k44", action="store_true", help="keep all 8 dixon2 vertices")
    p.add_argument("--t-min", type=float, default=7.2)
    p.add_argument("--t-max", type=float, default=30.0)
    p.add_argument("--y2-sign", type=int, choices=(-1, 1), default=1)
    p.add_argument("--z5-sign", type=int, choices=(-1, 1), default=1)
    _add_io_args(p)
    p.set_defaults(func=_cmd_k33)

    p = sub.add_parser("tables", help="dump the combinatorial tables")
    _add_io_args(p, ("text", "structured"))
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="recheck the embedded fact suite")
    _add_io_args(p, ("text", "structured"))
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SphflexError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
