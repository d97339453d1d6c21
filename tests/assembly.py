"""The per-edge loop assemblers that ``ConstraintSystem`` replaced, kept as
oracles.

``residual_by_loop``/``jacobian_by_loop`` are the former
``continuation.residual_vector``/``jacobian`` (sphere, edge and gauge rows);
``match_residual_by_loop``/``match_jacobian_by_loop`` (sphere and edge rows
plus one Gram row ``p_a . p_b - goal``, no gauge) polish the preimages of
the window-scan degree oracle in ``degrees.py``.  ``with_arc_row`` appends the
pseudo-arclength row the way ``newton_correct`` used to, by concatenation.
"""

import numpy as np


def residual_by_loop(g, lam, coords, gauge):
    order = g.vertices
    idx = {v: i for i, v in enumerate(order)}
    pts = coords.reshape(len(order), 3)
    rows = [pts[i] @ pts[i] - 1.0 for i in range(len(order))]
    for a, b in g.edges:
        rows.append(0.5 * (1.0 - pts[idx[a]] @ pts[idx[b]]) - lam.length(a, b))
    pa = pts[idx[gauge.anchor]]
    rows.extend([pa[1], pa[2], pts[idx[gauge.meridian]][2]])
    return np.array(rows)


def jacobian_by_loop(g, lam, coords, gauge):
    order = g.vertices
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    pts = coords.reshape(n, 3)
    jac = np.zeros((n + g.num_edges + 3, 3 * n))
    for i in range(n):
        jac[i, 3 * i : 3 * i + 3] = 2.0 * pts[i]
    for r, (a, b) in enumerate(g.edges, start=n):
        ia, ib = idx[a], idx[b]
        jac[r, 3 * ia : 3 * ia + 3] = -0.5 * pts[ib]
        jac[r, 3 * ib : 3 * ib + 3] = -0.5 * pts[ia]
    base = n + g.num_edges
    jac[base, 3 * idx[gauge.anchor] + 1] = 1.0
    jac[base + 1, 3 * idx[gauge.anchor] + 2] = 1.0
    jac[base + 2, 3 * idx[gauge.meridian] + 2] = 1.0
    return jac


def match_residual_by_loop(g, lam, coords, a, b, goal):
    order = g.vertices
    idx = {v: i for i, v in enumerate(order)}
    pts = coords.reshape(len(order), 3)
    rows = [pts[i] @ pts[i] - 1.0 for i in range(len(order))]
    for ea, eb in g.edges:
        rows.append(0.5 * (1.0 - pts[idx[ea]] @ pts[idx[eb]]) - lam.length(ea, eb))
    rows.append(pts[idx[a]] @ pts[idx[b]] - goal)
    return np.array(rows)


def match_jacobian_by_loop(g, lam, coords, a, b, goal):
    order = g.vertices
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    pts = coords.reshape(n, 3)
    jac = np.zeros((n + g.num_edges + 1, 3 * n))
    for i in range(n):
        jac[i, 3 * i : 3 * i + 3] = 2.0 * pts[i]
    for r, (ea, eb) in enumerate(g.edges, start=n):
        ia, ib = idx[ea], idx[eb]
        jac[r, 3 * ia : 3 * ia + 3] = -0.5 * pts[ib]
        jac[r, 3 * ib : 3 * ib + 3] = -0.5 * pts[ia]
    ia, ib = idx[a], idx[b]
    jac[-1, 3 * ia : 3 * ia + 3] = pts[ib]
    jac[-1, 3 * ib : 3 * ib + 3] = pts[ia]
    return jac


def with_arc_row(residual, jac, coords, arc):
    base, tangent, h = arc
    residual = np.concatenate([residual, [float((coords - base) @ tangent) - h]])
    return residual, np.vstack([jac, tangent])
