"""Straightforward versions of the cut-table machinery, kept as oracles.

The degree-table loops walk the 512 tables of ``all_degree_tables()``
and move grids as tuples through ``_act``, which permutes rows and columns
after an optional transpose; the library counts the same things from the
cell indices of ``cuts.GROUP_INDEX`` and ``cuts.TABLE_BITS``, and aligns
type tables through those indices too.  The resolution filter builds every
'r/l' resolution before checking it, where the library prunes rows as it
fills them; the pullback solver keeps a dict assignment and rescans every
equation at each node, where the library keeps per-equation running sums;
and the cut-extension scan restricts the label sets of full K(3,3) cuts,
written from the ``(i, T1 T2 T3)`` notation, to the quadrilateral's I and J
sides, where the library compares label masks on the quadrilateral.
"""

import itertools
from typing import Iterable, Optional, Sequence

from sphflex.cuts import (
    ALLOWED_COLS,
    ALLOWED_ROWS,
    GROUP,
    AdmissibleCase,
    DegreeTable,
    Equation,
    Grid,
    NormalCut,
    TypeTable,
    all_normal_cuts,
    quad_cycle,
    type_table,
)
from sphflex.graphs import k33


def _act(grid: Grid, rp: Sequence[int], cp: Sequence[int], flip: bool) -> Grid:
    """``grid`` transposed if ``flip``, then its rows taken in the order
    ``rp`` and its columns in the order ``cp``."""
    g = grid
    if flip:
        g = tuple(tuple(g[r][c] for r in range(3)) for c in range(3))
    return tuple(tuple(g[rp[r]][cp[c]] for c in range(3)) for r in range(3))


def align_type_table_by_act(
    dt: DegreeTable, tt: TypeTable, target: DegreeTable
) -> Optional[TypeTable]:
    """The type table moved by the first element of ``GROUP`` that moves dt
    onto target, with the deltoid letters 'o' and 'e' exchanged when that
    element transposes."""
    for rp, cp, flip in GROUP:
        if _act(dt.grid, rp, cp, flip) == target.grid:
            moved = _act(tt.grid, rp, cp, flip)
            if flip:
                swap = {"o": "e", "e": "o"}
                moved = tuple(tuple(swap.get(x, x) for x in row) for row in moved)
            return TypeTable(moved)
    return None


def all_degree_tables() -> Iterable[DegreeTable]:
    for bits in itertools.product((1, 2), repeat=9):
        yield DegreeTable(tuple(tuple(bits[3 * r + c] for c in range(3)) for r in range(3)))


def orbit(grid: Grid) -> frozenset[Grid]:
    return frozenset(_act(grid, *g) for g in GROUP)


def orbit_count_by_walk() -> int:
    """Orbits counted by marking each new table's whole orbit as seen."""
    seen = set()
    count = 0
    for dt in all_degree_tables():
        if dt.grid in seen:
            continue
        seen |= orbit(dt.grid)
        count += 1
    return count


def orbit_count_by_burnside() -> float:
    """Fixed points of every group element, averaged over the group."""
    tables = [dt.grid for dt in all_degree_tables()]
    total = sum(1 for gel in GROUP for t in tables if _act(t, *gel) == t)
    return total / len(GROUP)


def subgraph_classes_by_walk() -> int:
    """Edge-presence grids of K(3,3) subgraphs, walked like the tables."""
    seen = set()
    count = 0
    for bits in itertools.product((0, 1), repeat=9):
        grid = tuple(tuple(bits[3 * r + c] for c in range(3)) for r in range(3))
        if grid in seen:
            continue
        seen |= frozenset(_act(grid, *g) for g in GROUP)
        count += 1
    return count


def all_resolutions(tt: TypeTable) -> list[TypeTable]:
    """Every way of setting the 'r/l' cells to 'r' or 'l', in the order of
    ``itertools.product`` over those cells in row-major order."""
    cells = [(r, c) for r in range(3) for c in range(3) if tt.grid[r][c] == "r/l"]
    out = []
    for combo in itertools.product("rl", repeat=len(cells)):
        grid = [list(row) for row in tt.grid]
        for (r, c), ch in zip(cells, combo):
            grid[r][c] = ch
        out.append(TypeTable(tuple(tuple(row) for row in grid)))
    return out


def allowed_resolutions_by_filter(tt: TypeTable) -> list[TypeTable]:
    """The resolutions whose rows and columns are all on the allowed lists."""
    return [
        cand
        for cand in all_resolutions(tt)
        if all(row in ALLOWED_ROWS for row in cand.grid)
        and all(col in ALLOWED_COLS for col in zip(*cand.grid))
    ]


def row_col_allowed(tt: TypeTable) -> bool:
    """True iff some resolution of 'r/l' entries has all rows and columns on
    the allowed lists (each checked up to permutation)."""
    return bool(allowed_resolutions_by_filter(tt))


def admissible_tables_by_scan() -> list[DegreeTable]:
    """Every degree table whose type table passes the row/column filter."""
    return [dt for dt in all_degree_tables() if row_col_allowed(type_table(dt))]


def admissible_cases_by_walk() -> list[AdmissibleCase]:
    """The first table of each admissible orbit, with its type table
    resolved where its allowed resolutions agree, in the standard display
    order."""
    reps = []
    seen = set()
    for dt in all_degree_tables():
        if dt.grid in seen:
            continue
        seen |= orbit(dt.grid)
        if row_col_allowed(type_table(dt)):
            reps.append(dt)
    cases = []
    for dt in reps:
        res = tuple(allowed_resolutions_by_filter(type_table(dt)))
        grid = []
        for r in range(3):
            row = []
            for c in range(3):
                letters = {cand.grid[r][c] for cand in res}
                row.append("r/l" if letters == {"r", "l"} else letters.pop())
            grid.append(tuple(row))
        cases.append(AdmissibleCase(dt, TypeTable(tuple(grid)), len(orbit(dt.grid))))
    cases.sort(key=lambda c: sum(d == 2 for row in c.degree_table.grid for d in row))
    return cases


def mu_solutions_by_backtracking(
    equations: list[Equation], max_solutions: int = 2
) -> list[dict[NormalCut, int]]:
    """Nonnegative integer solutions, at most ``max_solutions`` of them.

    Backtracks over the sorted unknowns, values ascending up to the
    smallest right-hand side each appears in, and checks every equation's
    interval of reachable sums on each partial assignment, the empty one
    included.
    """
    unknowns = sorted({u for eq in equations for u in eq.terms})
    bound = {
        u: min(eq.rhs for eq in equations if u in eq.terms) for u in unknowns
    }
    eq_data = [(eq.terms, eq.rhs) for eq in equations]
    solutions: list[dict[NormalCut, int]] = []

    def feasible_partial(assign: dict[NormalCut, int]) -> bool:
        for terms, rhs in eq_data:
            lo = hi = 0
            for t in terms:
                if t in assign:
                    lo += assign[t]
                    hi += assign[t]
                else:
                    hi += bound[t]
            if lo > rhs or hi < rhs:
                return False
        return True

    def backtrack(idx: int, assign: dict[NormalCut, int]):
        if len(solutions) >= max_solutions:
            return
        if idx == len(unknowns):
            solutions.append(dict(assign))
            return
        u = unknowns[idx]
        for val in range(bound[u] + 1):
            assign[u] = val
            if feasible_partial(assign):
                backtrack(idx + 1, assign)
            del assign[u]
            if len(solutions) >= max_solutions:
                return

    if feasible_partial({}):
        backtrack(0, {})
    return solutions


def normal_cut_side(nc: NormalCut) -> frozenset[tuple[str, int]]:
    """The I side of ``(i, T1 T2 T3)`` as labels: P_i, Q_i and the letter
    T_k of the k-th vertex of the other parity, in increasing order."""
    others = (2, 4, 6) if nc.apex % 2 else (1, 3, 5)
    return frozenset({("P", nc.apex), ("Q", nc.apex), *zip(nc.pattern, others)})


# I and J sides of the four named quadrilateral cuts on cycle roles 1-2-3-4
# (odd roles 1, 3; even roles 2, 4)
QUAD_CUT_SIDES = {
    "ou": ({("P", 1), ("Q", 1), ("P", 2), ("P", 4)}, {("P", 3), ("Q", 3), ("Q", 2), ("Q", 4)}),
    "eu": ({("P", 2), ("Q", 2), ("P", 1), ("P", 3)}, {("P", 4), ("Q", 4), ("Q", 1), ("Q", 3)}),
    "om": ({("P", 1), ("Q", 1), ("P", 2), ("Q", 4)}, {("P", 3), ("Q", 3), ("Q", 2), ("P", 4)}),
    "em": ({("P", 2), ("Q", 2), ("P", 1), ("Q", 3)}, {("P", 4), ("Q", 4), ("Q", 1), ("P", 3)}),
}


def cut_extensions_by_scan(forgot_odd: int, forgot_even: int, kind: str) -> tuple[NormalCut, ...]:
    """Normal cuts whose full K(3,3) cut restricts to the quadrilateral cut."""
    cycle = quad_cycle(forgot_odd, forgot_even)
    role = dict(zip((1, 2, 3, 4), cycle))
    target = frozenset(
        frozenset((letter, role[r]) for letter, r in side) for side in QUAD_CUT_SIDES[kind]
    )
    labels = frozenset((letter, v) for v in k33().vertices for letter in "PQ")

    def restricted(i_side):
        return frozenset(
            frozenset(l for l in side if l[1] in cycle) for side in (i_side, labels - i_side)
        )

    return tuple(nc for nc in all_normal_cuts() if restricted(normal_cut_side(nc)) == target)
