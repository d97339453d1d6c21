"""Tuple-based degree-table loops kept as oracles for the array versions.

Each walks the 512 degree tables of ``cuts.all_degree_tables()`` and moves
grids cell by cell through ``cuts._act``; the library counts the same
things from ``cuts.GROUP_INDEX`` and ``cuts.TABLE_BITS``.
"""

import itertools

from sphflex.cuts import (
    ALLOWED_COLS,
    ALLOWED_ROWS,
    GROUP,
    AdmissibleCase,
    DegreeTable,
    TypeTable,
    _act,
    _resolutions,
    all_degree_tables,
    allowed_resolutions,
    orbit,
    type_table,
)


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


def row_col_allowed(tt: TypeTable) -> bool:
    """True iff some resolution of 'r/l' entries has all rows and columns on
    the allowed lists (each checked up to permutation)."""
    for cand in _resolutions(tt):
        rows_ok = all(row in ALLOWED_ROWS for row in cand.rows())
        cols_ok = all(col in ALLOWED_COLS for col in cand.cols())
        if rows_ok and cols_ok:
            return True
    return False


def admissible_tables_by_scan() -> list[DegreeTable]:
    """Every degree table whose type table passes the row/column filter."""
    return [dt for dt in all_degree_tables() if row_col_allowed(type_table(dt))]


def admissible_cases_by_walk() -> list[AdmissibleCase]:
    """The first table of each admissible orbit, with its resolutions, in
    the standard display order."""
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
        res = tuple(allowed_resolutions(type_table(dt)))
        grid = []
        for r in range(3):
            row = []
            for c in range(3):
                letters = {cand.grid[r][c] for cand in res}
                row.append("r/l" if letters == {"r", "l"} else letters.pop())
            grid.append(tuple(row))
        cases.append(AdmissibleCase(dt, TypeTable(tuple(grid)), res))
    cases.sort(key=lambda c: sum(d == 2 for row in c.degree_table.grid for d in row))
    return cases
