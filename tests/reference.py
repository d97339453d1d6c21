"""The reference motions of the tests, each built here once, and the loops
the tests trace, each traced once per session.

``DIXON1`` holds the acceptance slopes of Dixon 1 on K(3,3), ``DIXON2``
Dixon 2's parameters and ``CDA`` the constant-diagonal-angle motion at
e = 3/4.  A seed is ``(graph, lengths, realization)``.

``PINNED`` names each loop the tests trace to closure, with its seed, step
size, step cap and the number of steps it closes in.  ``pinned`` traces a
loop through the library's step, or through the oracle step of
``stepping.py``, and keeps what ``traced`` records of it: a check of a
pinned loop reads that record rather than tracing the loop again, and a
check of a trace capped at fewer steps reads ``prefix``, since a capped
trace is the first steps of the whole one (``test_trace_stops_at_max_steps``).

``sphflex.continuation`` loads only once something is traced:
``commands.py`` builds its input files from these seeds in an interpreter
where only a trace command may load it.
"""

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from sphflex.errors import SphflexError
from sphflex.graphs import complete_bipartite, k22
from sphflex.motions import (
    Dixon1Params,
    Dixon2Params,
    MotionTrajectory,
    cda_motion,
    cda_params_from_e,
    dixon2_motion,
)
from sphflex.spherical import (
    LengthAssignment,
    SphericalRealization,
    random_unit_point,
    rotation_about_axis,
)

DIXON1 = Dixon1Params(c={1: 0.2, 3: 0.4, 5: 0.6}, d={2: 0.3, 4: 0.5, 6: 0.7})
DIXON2 = Dixon2Params(0.2, 0.15, 0.1)
CDA = cda_params_from_e(0.75)


def induced(g, rho):
    """The seed of ``g`` at ``rho``, with the lengths that ``rho`` induces."""
    return g, LengthAssignment.induced(g, rho), rho


def first_sample(traj):
    """The seed at the first sample of a motion."""
    return traj.graph, traj.lengths, traj.samples[0].realization


def dixon1_seed(m, n, slopes_odd=None, slopes_even=None):
    """K(m,n) with the odd vertices 1, 3, ... at heights ``slopes_odd`` on
    the great circle {y = 0} and the even ones 2, 4, ... at heights
    ``slopes_even`` on {x = 0}.  The slopes default to evenly spaced ones,
    which on K(3,3) give Dixon 1 with ``DIXON1`` at s = 1, bit for bit."""
    odd, even = range(1, 2 * m, 2), range(2, 2 * n + 1, 2)
    if slopes_odd is None:
        slopes_odd, slopes_even = np.linspace(0.2, 0.6, m), np.linspace(0.3, 0.7, n)
    pts = {v: np.array([math.sqrt(1.0 - c * c), 0.0, c]) for v, c in zip(odd, slopes_odd)}
    pts |= {v: np.array([0.0, math.sqrt(1.0 - d * d), d]) for v, d in zip(even, slopes_even)}
    return induced(complete_bipartite(odd, even), SphericalRealization(pts))


def cda_seed():
    """The constant-diagonal-angle motion with ``CDA`` at t = 8."""
    return first_sample(cda_motion(CDA, [8.0, 8.2]))


def lozenge():
    """A K(2,2) lozenge, whose diagonals are orthogonal: 1 and 3 at height
    0.8 on {y = 0}, 2 and 4 at height 0.5 on {x = 0}."""
    c1, c2 = 0.8, 0.5
    s1, s2 = math.sqrt(1 - c1 * c1), math.sqrt(1 - c2 * c2)
    return SphericalRealization(
        {
            1: np.array([s1, 0.0, c1]),
            2: np.array([0.0, s2, c2]),
            3: np.array([-s1, 0.0, c1]),
            4: np.array([0.0, -s2, c2]),
        }
    )


def rhomboid():
    """A K(2,2) rhomboid: two random points, and their half-turns about the z axis."""
    rng = np.random.default_rng(12)
    half = rotation_about_axis([0.0, 0.0, 1.0], math.pi)
    r1, r2 = random_unit_point(rng), random_unit_point(rng)
    return SphericalRealization({1: r1, 2: r2, 3: half.apply(r1), 4: half.apply(r2)})


class Loop(NamedTuple):
    seed: Callable[[], tuple]
    step: float
    max_steps: int
    steps: int  # the steps it closes in


PINNED = {
    **{
        f"dixon1-K({m},{n})": Loop(functools.partial(dixon1_seed, m, n), 0.05, 4000, steps)
        for m, n, steps in [(3, 3, 154), (3, 4, 156), (4, 4, 159), (4, 5, 161), (5, 5, 164), (6, 6, 169)]
    },
    "cda": Loop(cda_seed, 0.03, 4000, 305),
    "dixon2-K(4,4)": Loop(lambda: first_sample(dixon2_motion(DIXON2, [0.45, 0.5])), 0.05, 4000, 351),
    # criterion 9's traced K(2,2) quadrilaterals
    "rhomboid-K(2,2)": Loop(lambda: induced(k22(), rhomboid()), 0.04, 600, 76),
    "lozenge-K(2,2)": Loop(lambda: induced(k22(), lozenge()), 0.04, 600, 212),
}


class Traced(NamedTuple):
    # the TraceResult, or the raised error's type and message
    result: object
    # (bordered matrix, corank, tangent) of each certificate the trace took
    certificates: list
    # each matrix that a certificate gave a Cholesky factorization
    factored: list
    # each matrix given an SVD
    svds: list


def recording(seen, f):
    """``f``, appending a copy of the matrix each call is given to ``seen``."""

    def record(a, *rest, **options):
        seen.append(a.copy())
        return f(a, *rest, **options)

    return record


def traced(seed, step, max_steps, oracle=False) -> Traced:
    """``trace`` of ``seed`` through the library's step, or with ``oracle``
    through the one in ``stepping.py``, and what it did on the way."""
    import pytest

    import stepping
    from sphflex import continuation

    library = continuation.bordered_corank_and_tangent
    record = Traced(None, [], [], [])

    def certificate(bordered, buffers):
        # the library's step forms the normal matrix in the buffers of the
        # trace's system, and the oracle allocates its own
        if oracle:
            corank, t = stepping.bordered_corank_and_tangent(bordered)
        else:
            corank, t = library(bordered, buffers)
        record.certificates.append((bordered.copy(), corank, t.copy()))
        return corank, t

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "bordered_corank_and_tangent", certificate)
        mp.setattr(np.linalg, "svd", recording(record.svds, np.linalg.svd))
        if oracle:
            mp.setattr(np.linalg, "cholesky", recording(record.factored, np.linalg.cholesky))
            mp.setattr(continuation, "newton_correct", stepping.newton_correct)
            mp.setattr(continuation, "_norm", stepping.closure_distance)
        else:
            mp.setattr(continuation, "_cholesky", recording(record.factored, continuation._cholesky))
        config = continuation.TraceConfig(step_size=step, max_steps=max_steps)
        try:
            result = continuation.trace(*seed, config=config)
        except SphflexError as exc:
            result = (type(exc), str(exc))
    return record._replace(result=result)


@functools.cache
def pinned(name, oracle=False) -> Traced:
    """The record of the pinned loop ``name``, traced once per session."""
    loop = PINNED[name]
    return traced(loop.seed(), loop.step, loop.max_steps, oracle)


def prefix(name, steps) -> MotionTrajectory:
    """The first ``steps`` steps of the pinned loop ``name``: what a trace
    from its seed at its step size, capped at ``steps``, returns."""
    traj = pinned(name).result.trajectory
    cut = slice(steps + 1)
    return MotionTrajectory(traj.graph, traj.lengths, traj.points[cut], traj.parameters[cut], traj.kind)
