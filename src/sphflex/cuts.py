"""Cut combinatorics for flexibility analysis of K(3,3).

Every vertex ``v`` of a graph contributes two marked labels ``P_v`` and
``Q_v``.  A *cut* is a bipartition of the marked labels with both sides of
size at least two.  A cut is *bond-valid* when no edge meets a side in
exactly two of its four labels; bond-valid cuts induce a total red/blue
edge coloring (red where at least three labels sit on the I side).

For K(3,3), every cut inducing a surjective coloring can be written in the
normal form ``(i, T1 T2 T3)``: the I side holds both labels of an apex
vertex ``i`` plus one label (P or Q, given by the pattern letters) of each
of the three opposite-parity vertices in increasing order.  Swapping all
P's and Q's gives the conjugate cut; intersection multiplicities are equal
on conjugate pairs, so the 48 normal cuts collapse to 24 unknowns.

``enumerate_valid_cuts`` backtracks over how many of each vertex's two
labels lie on the I side and reaches each class of equivalent cuts
(complement and P/Q conjugate) once, at the class's smallest label mask,
from which it builds the cut directly.  The tests keep two oracles for it:
the search that expands every count vector into every mask and keeps the
smallest of each class, and the scan of all 2^(2|V|) label bipartitions.

The module also ships the intersection-multiplicity table for the five
quadrilateral motion types, the degree-table and type-table machinery with
its group action, and a bounded integer-feasibility solver for the linear
systems obtained by pulling divisor cuts back along forgetful projections.

The 72-element row/column/transpose group acts on 3x3 grids by moving
cells.  With a grid flattened row by row to 9 cells, ``GROUP_INDEX`` is the
(72, 9) index array with ``flat(_act(grid, *GROUP[k])) ==
flat(grid)[GROUP_INDEX[k]]``.  ``TABLE_BITS`` holds the 512 degree tables
as one (512, 9) 0/1 array, 1 where an entry is 2 and cell 0 the most
significant bit, so a table's row number is its binary code.  The orbit
counts and the admissibility filter work on these arrays: one product of
the tables with the group's moved cell weights gives every table's image
code under every element.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .coloring import EdgeColoring, is_nap
from .errors import SphflexError
from .graphs import Graph, nonedges

_log = logging.getLogger(__name__)

Label = tuple[str, int]  # ("P" | "Q", vertex)

ODD_VERTICES = (1, 3, 5)
EVEN_VERTICES = (2, 4, 6)

_SWAP = {"P": "Q", "Q": "P"}


def marked_labels(g: Graph) -> tuple[Label, ...]:
    return tuple((kind, v) for v in g.vertices for kind in ("P", "Q"))


@dataclass(frozen=True)
class Cut:
    """Bipartition (I, J) of the marked labels; sides at least two labels."""

    I: frozenset[Label]
    J: frozenset[Label]

    def __post_init__(self):
        if self.I & self.J:
            raise SphflexError("cut sides overlap")
        if len(self.I) < 2 or len(self.J) < 2:
            raise SphflexError("each cut side needs at least two labels")


def _label_counts(g: Graph, c: Cut) -> dict[int, int]:
    """How many of each vertex's two labels lie on the I side.  Bond
    validity and the induced coloring depend only on these counts."""
    if c.I | c.J != set(marked_labels(g)):
        raise SphflexError("cut does not partition this graph's marked labels")
    counts = dict.fromkeys(g.vertices, 0)
    for _, v in c.I:
        counts[v] += 1
    return counts


def coloring_from_cut(g: Graph, c: Cut) -> EdgeColoring:
    """Edge coloring induced by a bond-valid cut.

    An edge is red when at least three of its four labels lie in I; bond
    validity guarantees every edge receives a color.
    """
    n = _label_counts(g, c)
    sums = [n[a] + n[b] for a, b in g.edges]
    if 2 in sums:
        raise SphflexError("cut is not bond-valid for this graph")
    return EdgeColoring(g, sum(1 << i for i, s in enumerate(sums) if s >= 3))


def nap_iff_separated_nonedge(g: Graph, c: Cut) -> tuple[bool, Optional[tuple[int, int]]]:
    """NAP verdict of the induced coloring plus a separated non-edge witness.

    The coloring is NAP exactly when some non-edge {c, d} has both labels
    of c in I and both labels of d in J (or vice versa).
    """
    verdict = is_nap(coloring_from_cut(g, c))
    n = _label_counts(g, c)
    witness = next((e for e in sorted(nonedges(g)) if {n[e[0]], n[e[1]]} == {0, 2}), None)
    return verdict, witness


def enumerate_valid_cuts(g: Graph) -> list[Cut]:
    """All bond-valid cuts inducing surjective colorings.

    Cuts are unordered partitions, and the global P/Q swap is quotiented
    out too.  Bond validity and the induced coloring depend only on how
    many of each vertex's two labels lie on the I side, so the search
    backtracks over these per-vertex counts in {0, 1, 2}, last vertex
    first, rejecting an edge as soon as its counts sum to 2, and keeps
    count vectors whose edge sums reach both >= 3 (red) and <= 1 (blue);
    such a vector puts at least three labels on the I side and at most
    2|V| - 3, so both sides hold two.  Each survivor expands into label
    bitmasks (bit 2k for P, 2k + 1 for Q of the k-th vertex) by choosing P
    or Q wherever the count is 1.  A class of equivalent cuts is
    represented by its smallest mask, and the classes are listed by that
    mask in ascending order.

    The search reaches each class once, at that mask.  The last vertex
    holds the top bits, and a mask and its complement have count vectors c
    and 2 - c, so the smaller of the two has count 0 there, or count 1 with
    P: the last vertex never gets count 2, and a 1 there is P.  The P/Q
    conjugate shares c but swaps the letter of every count-1 vertex, and
    the conjugate of the complement has 2 - c with the same letters; so the
    smallest of the four has P at its last count-1 vertex and count 0 at
    its last vertex of count 0 or 2.  Each cut is built from its mask and
    the one label tuple.  Each call logs one debug record on the
    ``sphflex.cuts`` logger with the count assignments visited and the cuts
    found (``extra`` fields ``nodes`` and ``cuts``).  Graphs beyond 8
    vertices are still rejected.
    """
    if g.num_vertices > 8:
        raise SphflexError("cut enumeration is exhaustive; at most 8 vertices")
    labels = marked_labels(g)
    n = g.num_vertices
    # above[k]: neighbours of the k-th vertex that come later in vertex
    # order, whose counts are set first
    above: list[list[int]] = [[] for _ in range(n)]
    for i, j in g.ends:
        above[i].append(j)
    counts = [0] * n
    keys: list[int] = []
    nodes = 0

    def expand(base: int, singles: int) -> None:
        # singles: the P bits of the count-1 vertices, each free to turn
        # into Q except the last one, which the smallest mask of the class
        # keeps at P
        fixed = 1 << singles.bit_length() - 1 if singles else 0
        free = singles ^ fixed
        base |= fixed
        sub = free
        while True:
            keys.append(base | free ^ sub | sub << 1)
            if not sub:
                return
            sub = (sub - 1) & free

    def search(
        k: int, red: bool, blue: bool, base: int, singles: int, open_: bool
    ) -> None:
        # base, singles: the bits of the count-2 vertices and the P bits of
        # the count-1 vertices after the k-th.  open_: every vertex after
        # the k-th has count 1, so count 2 here would leave the class's
        # smallest mask to 2 - c
        nonlocal nodes
        if k < 0:
            if red and blue:
                expand(base, singles)
            return
        for c in (0, 1) if open_ else (0, 1, 2):
            r, b = red, blue
            for j in above[k]:
                s = c + counts[j]
                if s == 2:
                    break
                if s > 2:
                    r = True
                else:
                    b = True
            else:
                nodes += 1
                counts[k] = c
                search(
                    k - 1,
                    r,
                    b,
                    base | 3 << 2 * k if c == 2 else base,
                    singles | 1 << 2 * k if c == 1 else singles,
                    c == 1 and open_,
                )

    search(n - 1, False, False, 0, 0, True)
    keys.sort()
    # binary digits to 0/1 bytes selecting the I side, or the J side
    on_i = bytes.maketrans(b"01", b"\x00\x01")
    on_j = bytes.maketrans(b"01", b"\x01\x00")
    cuts = []
    for key in keys:
        bits = format(key, f"0{2 * n}b")[::-1].encode()  # byte i: bit i of key
        cuts.append(
            Cut(
                frozenset(itertools.compress(labels, bits.translate(on_i))),
                frozenset(itertools.compress(labels, bits.translate(on_j))),
            )
        )
    _log.debug(
        "enumerate_valid_cuts visited %d nodes and found %d cuts",
        nodes,
        len(cuts),
        extra={"nodes": nodes, "cuts": len(cuts)},
    )
    return cuts


# ---------------------------------------------------------------------------
# normal-form cuts of K(3,3) and conjugation-merged unknowns
# ---------------------------------------------------------------------------


def _opposite_parity(i: int) -> tuple[int, ...]:
    return EVEN_VERTICES if i % 2 == 1 else ODD_VERTICES


@dataclass(frozen=True, order=True)
class NormalCut:
    """Cut ``(i, T1 T2 T3)`` of K(3,3) in normal form.

    The I side is ``{P_i, Q_i}`` plus the pattern letter of each vertex of
    the opposite parity, taken in increasing vertex order.
    """

    apex: int
    pattern: str

    def __post_init__(self):
        if self.apex not in range(1, 7):
            raise SphflexError(f"apex {self.apex} outside 1..6")
        if len(self.pattern) != 3 or set(self.pattern) - {"P", "Q"}:
            raise SphflexError(f"bad pattern {self.pattern!r}")

    def i_side(self) -> frozenset[Label]:
        side = {("P", self.apex), ("Q", self.apex)}
        for letter, v in zip(self.pattern, _opposite_parity(self.apex)):
            side.add((letter, v))
        return frozenset(side)

    def conjugate(self) -> "NormalCut":
        return NormalCut(self.apex, "".join(_SWAP[c] for c in self.pattern))

    def canonical(self) -> "NormalCut":
        """Representative of the conjugate pair (lexicographically smaller)."""
        return min(self, self.conjugate())


def all_normal_cuts() -> tuple[NormalCut, ...]:
    return tuple(
        NormalCut(i, "".join(p))
        for i in range(1, 7)
        for p in itertools.product("PQ", repeat=3)
    )


# ---------------------------------------------------------------------------
# quadrilateral cuts and the intersection-multiplicity table
# ---------------------------------------------------------------------------

# I/J sides of the four named cuts for the standard quadrilateral with
# cycle roles 1-2-3-4 (odd roles 1, 3; even roles 2, 4).  "o"/"e" says
# which parity is separated, "m"/"u" whether the remaining labels mix.
_QUAD_CUTS = {
    "ou": ({("P", 1), ("Q", 1), ("P", 2), ("P", 4)}, {("P", 3), ("Q", 3), ("Q", 2), ("Q", 4)}),
    "eu": ({("P", 2), ("Q", 2), ("P", 1), ("P", 3)}, {("P", 4), ("Q", 4), ("Q", 1), ("Q", 3)}),
    "om": ({("P", 1), ("Q", 1), ("P", 2), ("Q", 4)}, {("P", 3), ("Q", 3), ("Q", 2), ("P", 4)}),
    "em": ({("P", 2), ("Q", 2), ("P", 1), ("Q", 3)}, {("P", 4), ("Q", 4), ("Q", 1), ("P", 3)}),
}


def quad_cycle(forgot_odd: int, forgot_even: int) -> tuple[int, int, int, int]:
    """Cycle roles (o1, e1, o2, e2) of the quadrilateral left after
    forgetting one odd and one even vertex of K(3,3)."""
    odds = sorted(set(ODD_VERTICES) - {forgot_odd})
    evens = sorted(set(EVEN_VERTICES) - {forgot_even})
    return (odds[0], evens[0], odds[1], evens[1])


def quad_cut_partition(cycle: Sequence[int], kind: str) -> frozenset[frozenset[Label]]:
    """The named cut of a quadrilateral, with roles mapped onto ``cycle``."""
    if kind not in _QUAD_CUTS:
        raise SphflexError(f"unknown quadrilateral cut {kind!r}")
    role = {1: cycle[0], 2: cycle[1], 3: cycle[2], 4: cycle[3]}
    I, J = _QUAD_CUTS[kind]
    return frozenset(
        (
            frozenset((k, role[v]) for k, v in I),
            frozenset((k, role[v]) for k, v in J),
        )
    )


@lru_cache(maxsize=None)
def cut_extensions(forgot_odd: int, forgot_even: int, kind: str) -> tuple[NormalCut, ...]:
    """Normal cuts of K(3,3) restricting to the given quadrilateral cut.

    These are the boundary divisors appearing in the pullback of the
    quadrilateral divisor along the projection that forgets the two
    vertices; there are always four.
    """
    cycle = quad_cycle(forgot_odd, forgot_even)
    target = quad_cut_partition(cycle, kind)
    # restricted to the quadrilateral, a cut's J side is what its I side
    # leaves of the quadrilateral's labels, so the restriction is the
    # target exactly when the restricted I side is one of its two sides
    quad_labels = frozenset((k, v) for v in cycle for k in ("P", "Q"))
    return tuple(nc for nc in all_normal_cuts() if nc.i_side() & quad_labels in target)


class MuRow(NamedTuple):
    """Intersection multiplicities (om, ou, em, eu) of a motion type."""

    om: int
    ou: int
    em: int
    eu: int


# Intersection multiplicities of a quadrilateral motion with the four
# boundary cuts, by motion type.  Cuts: om / ou separate the odd vertices
# (mixed / unmixed remaining labels), em / eu separate the even vertices.
# Rows are keyed by (quadrilateral type tag, subcase); the general type
# "g" has no subcase.  Deltoid subcases ("o", "e") are named by their degenerate companion component, the
# equal-parity vertex pair coinciding or antipodal; rhomboid and lozenge
# subcases ("r", "l") number the motion component 1..4.
MU_TABLE: dict[tuple[str, object], MuRow] = {
    ("g", None): MuRow(1, 1, 1, 1),
    ("o", "coincide"): MuRow(1, 1, 1, 0),
    ("o", "antipodal"): MuRow(1, 1, 0, 1),
    ("e", "coincide"): MuRow(1, 0, 1, 1),
    ("e", "antipodal"): MuRow(0, 1, 1, 1),
    ("r", 1): MuRow(1, 0, 1, 0),
    ("r", 2): MuRow(0, 1, 1, 0),
    ("r", 3): MuRow(1, 0, 0, 1),
    ("r", 4): MuRow(0, 1, 0, 1),
    ("l", 1): MuRow(1, 0, 1, 0),
    ("l", 2): MuRow(0, 1, 1, 0),
    ("l", 3): MuRow(1, 0, 0, 1),
    ("l", 4): MuRow(0, 1, 0, 1),
}


def mu_lookup(case: str, subcase: object = None) -> MuRow:
    try:
        return MU_TABLE[(case, subcase)]
    except KeyError:
        raise SphflexError(f"no multiplicity row for {(case, subcase)!r}") from None


# ---------------------------------------------------------------------------
# degree tables and type tables
# ---------------------------------------------------------------------------


def theta(d1: int, d2: int, d3: int) -> int:
    """Combined degree of a triple of 1-or-2 projection degrees."""
    ds = (d1, d2, d3)
    if d1 not in (1, 2) or d2 not in (1, 2) or d3 not in (1, 2):
        raise SphflexError(f"degrees must be 1 or 2, got {ds}")
    if ds == (1, 1, 1):
        return 1
    if ds == (2, 2, 2):
        return 4
    return 2


Grid = tuple[tuple, tuple, tuple]


@dataclass(frozen=True)
class DegreeTable:
    """3x3 grid of projection degrees, rows odd vertices and columns even."""

    grid: Grid

    def __post_init__(self):
        if len(self.grid) != 3 or any(len(r) != 3 for r in self.grid):
            raise SphflexError("degree table must be 3x3")
        if any(d not in (1, 2) for r in self.grid for d in r):
            raise SphflexError("degree table entries must be 1 or 2")

    def entry(self, odd: int, even: int) -> int:
        return self.grid[ODD_VERTICES.index(odd)][EVEN_VERTICES.index(even)]

    def margins(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        return (
            tuple(theta(*row) for row in self.grid),
            tuple(theta(*col) for col in zip(*self.grid)),
        )


@dataclass(frozen=True)
class TypeTable:
    """3x3 grid of quadrilateral type tags; 'r/l' marks the unresolved pair."""

    grid: Grid

    def entry(self, odd: int, even: int) -> str:
        return self.grid[ODD_VERTICES.index(odd)][EVEN_VERTICES.index(even)]


_TYPE_RULES = {
    (2, 4, 4): "g",
    (1, 2, 2): "g",
    (2, 2, 4): "e",
    (2, 4, 2): "o",
    (1, 1, 2): "e",
    (1, 2, 1): "o",
    (2, 2, 2): "r/l",
    (1, 1, 1): "r/l",
}


def type_table(dt: DegreeTable) -> TypeTable:
    """Quadrilateral types determined by an entry and its two margins.

    The rhomboid/lozenge ambiguity is preserved as 'r/l'.
    """
    rm, cm = dt.margins()
    grid = []
    for r in range(3):
        row = []
        for c in range(3):
            key = (dt.grid[r][c], rm[r], cm[c])
            try:
                row.append(_TYPE_RULES[key])
            except KeyError:
                raise SphflexError(f"no type rule for {key}") from None
        grid.append(tuple(row))
    return TypeTable(tuple(grid))


def _permutation_closure(patterns: Iterable[str]) -> frozenset[tuple[str, str, str]]:
    out = set()
    for pat in patterns:
        for p in itertools.permutations(pat):
            out.add(tuple(p))
    return frozenset(out)


ALLOWED_ROWS = _permutation_closure(
    ["rre", "ooo", "ool", "oog"] + ["gg" + s for s in "goerl"]
)
ALLOWED_COLS = _permutation_closure(
    ["rro", "eee", "eel", "eeg"] + ["gg" + s for s in "goerl"]
)


def allowed_resolutions(tt: TypeTable) -> list[TypeTable]:
    """Resolutions of the 'r/l' cells whose rows and columns are all allowed.

    The cells are filled row by row: each row's fillings ('r' before 'l',
    its first 'r/l' cell varying slowest) are kept only when the row is in
    ``ALLOWED_ROWS``, and the columns are checked on each combination of
    kept rows.  The list is in the order of ``itertools.product("rl", ...)``
    over all 'r/l' cells in row-major order.
    """
    kept_rows = []
    for row in tt.grid:
        cells = [c for c, tag in enumerate(row) if tag == "r/l"]
        kept = []
        for combo in itertools.product("rl", repeat=len(cells)):
            filled = list(row)
            for c, letter in zip(cells, combo):
                filled[c] = letter
            if tuple(filled) in ALLOWED_ROWS:
                kept.append(tuple(filled))
        kept_rows.append(kept)
    return [
        TypeTable(rows)
        for rows in itertools.product(*kept_rows)
        if all(col in ALLOWED_COLS for col in zip(*rows))
    ]


# group action: permute rows, permute columns, optionally transpose


def _act(grid: Grid, rp: Sequence[int], cp: Sequence[int], flip: bool) -> Grid:
    g = grid
    if flip:
        g = tuple(tuple(g[r][c] for r in range(3)) for c in range(3))
    return tuple(tuple(g[rp[r]][cp[c]] for c in range(3)) for r in range(3))


_PERMS = tuple(itertools.permutations(range(3)))
GROUP = tuple((rp, cp, f) for rp in _PERMS for cp in _PERMS for f in (False, True))


_PARITY_SWAP = {"o": "e", "e": "o"}


def act_on_types(grid: Grid, rp: Sequence[int], cp: Sequence[int], flip: bool) -> Grid:
    """Group action on type tables; a transpose exchanges the deltoid letters."""
    out = _act(grid, rp, cp, flip)
    if flip:
        out = tuple(tuple(_PARITY_SWAP.get(x, x) for x in row) for row in out)
    return out


def align_type_table(
    dt: DegreeTable, tt: TypeTable, target: DegreeTable
) -> Optional[TypeTable]:
    """Type table transported along a group element taking dt onto target."""
    for rp, cp, f in GROUP:
        if _act(dt.grid, rp, cp, f) == target.grid:
            return TypeTable(act_on_types(tt.grid, rp, cp, f))
    return None


# GROUP_INDEX[k, i] is the cell of a flattened grid that GROUP[k] moves to
# cell i: flat(_act(grid, *GROUP[k])) == flat(grid)[GROUP_INDEX[k]]
GROUP_INDEX = np.array(
    [_act(((0, 1, 2), (3, 4, 5), (6, 7, 8)), *gel) for gel in GROUP], dtype=np.intp
).reshape(len(GROUP), 9)
GROUP_INDEX.flags.writeable = False

# the 512 degree tables, 1 where the entry is 2; cell 0 is the most
# significant bit, so a table's row is its binary code
TABLE_BITS = (np.arange(512)[:, None] >> np.arange(8, -1, -1)) & 1
TABLE_BITS.flags.writeable = False


@lru_cache(maxsize=None)
def _orbit_codes() -> np.ndarray:
    """(512, 72) array: row of TABLE_BITS that GROUP[k] carries table t onto.

    One product of the tables with the cell weights moved by each group
    element, rather than gathering a (512, 72, 9) array of moved cells.
    """
    weights = 1 << np.arange(8, -1, -1)
    moved = np.zeros((9, len(GROUP)), dtype=np.int64)
    moved[GROUP_INDEX.T, np.arange(len(GROUP))] = weights[:, None]
    codes = TABLE_BITS @ moved
    codes.flags.writeable = False
    return codes


def _orbit_minima() -> np.ndarray:
    """Each table's orbit representative: the smallest code in its orbit,
    which is also the orbit's first row of TABLE_BITS."""
    return _orbit_codes().min(axis=1)


def count_degree_table_orbits() -> int:
    """Orbits of the row/column/transpose group on the 512 degree tables,
    counted as the tables that are the smallest in their orbit."""
    canon = _orbit_minima()
    return int(np.count_nonzero(canon == np.arange(len(canon))))


def count_degree_table_orbits_burnside() -> float:
    """Same count via averaging fixed points over the 72 group elements."""
    codes = _orbit_codes()
    fixed = np.count_nonzero(codes == np.arange(len(codes))[:, None])
    return int(fixed) / len(GROUP)


def count_k33_subgraph_classes() -> int:
    """Spanning subgraphs of K(3,3) up to graph automorphism.

    Encodes a subgraph by which of the nine edges are present; the
    automorphism group acts exactly like the degree-table group (entry 2
    marking a present edge), so this is an independent route to the same
    orbit count: a subgraph's class is the set of subgraphs it can be
    carried onto, and the count is the number of distinct such sets.
    """
    codes = _orbit_codes()
    present = np.zeros((len(codes), len(codes)), dtype=bool)
    present[np.arange(len(codes))[:, None], codes] = True
    return len({row.tobytes() for row in np.packbits(present, axis=1)})


@dataclass(frozen=True)
class AdmissibleCase:
    """One surviving degree-table orbit with its (partially resolved) types.

    ``type_table`` keeps 'r/l' wherever both letters occur among the
    ``allowed_resolutions`` of the degree table's type table, and
    ``orbit_size`` is the number of degree tables in the orbit.
    """

    degree_table: DegreeTable
    type_table: TypeTable
    orbit_size: int


def admissible_cases() -> list[AdmissibleCase]:
    """Degree-table orbits whose type table passes the row/column filter.

    Exactly four orbits survive.  The filter is invariant under the group,
    so it is tested once per orbit, on its first row of ``TABLE_BITS``.
    Representatives are chosen to match the standard display: sorted by
    the number of degree-2 entries.
    """
    canon = _orbit_minima()
    sizes = np.bincount(canon, minlength=len(canon))
    cases = []
    for rep in np.flatnonzero(canon == np.arange(len(canon))):
        dt = DegreeTable(tuple(map(tuple, (TABLE_BITS[rep] + 1).reshape(3, 3).tolist())))
        res = allowed_resolutions(type_table(dt))
        if not res:
            continue
        # each cell's letters over the resolutions, row by row
        grid = tuple(
            tuple("r/l" if set(cells) == {"r", "l"} else cells[0] for cells in zip(*rows))
            for rows in zip(*(cand.grid for cand in res))
        )
        cases.append(AdmissibleCase(dt, TypeTable(grid), int(sizes[rep])))
    cases.sort(key=lambda c: sum(d == 2 for row in c.degree_table.grid for d in row))
    return cases


def count_admissible_tables_raw() -> int:
    """Admissible degree tables before quotienting by the group action:
    the summed sizes of the admissible orbits."""
    return sum(case.orbit_size for case in admissible_cases())


# ---------------------------------------------------------------------------
# pullback systems and bounded integer feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equation:
    """Sum of conjugation-merged unknowns equals a fixed right-hand side; its
    place in ``build_pullback_system``'s list names its quadrilateral."""

    terms: tuple[NormalCut, ...]
    rhs: int


def build_pullback_system(
    dt: DegreeTable,
    tt: TypeTable,
    subcases: dict[tuple[int, int], object],
    divisors: Sequence[str] = ("om", "ou"),
) -> list[Equation]:
    """Equations for the 24 merged cut unknowns of a candidate motion.

    For each quadrilateral (indexed by the forgotten odd/even pair) and each
    requested divisor kind, the four extension cuts sum to the divisor's
    multiplicity row value times the projection degree, in the order odd
    vertex, even vertex, divisor.  ``subcases`` must name the table row
    for every quadrilateral whose type has several rows (deltoids and
    rhomboids/lozenges); quadrilaterals typed 'g' need none.
    """
    eqs = []
    for k in ODD_VERTICES:
        for l in EVEN_VERTICES:
            tag = tt.entry(k, l)
            if tag == "r/l":
                raise SphflexError(f"type of quadrilateral without {{{k},{l}}} is unresolved")
            row = mu_lookup(tag, subcases.get((k, l)))
            deg = dt.entry(k, l)
            for kind in divisors:
                rhs = getattr(row, kind) * deg
                terms = tuple(
                    sorted(nc.canonical() for nc in cut_extensions(k, l, kind))
                )
                eqs.append(Equation(terms, rhs))
    return eqs


def mu_solutions(
    equations: Sequence[Equation], max_solutions: int = 2
) -> list[dict[NormalCut, int]]:
    """Nonnegative integer solutions, at most ``max_solutions`` of them.

    Each unknown is bounded by the smallest right-hand side it appears in,
    so backtracking over the sorted unknowns, values ascending, is
    exhaustive; solutions come in lexicographic order, as dicts keyed in
    the unknowns' order.  The unknowns are numbered once, and every
    equation keeps what its right-hand side still needs and the summed
    bounds of its unset terms (a term repeated k times counts k times).
    Setting an unknown touches only the equations that contain it, and
    its feasible values are the interval those equations allow.  Every
    equation is checked before the search, so a term-less equation with a
    nonzero right-hand side has no solution.  Each call logs one debug
    record on the ``sphflex.cuts`` logger with the search nodes visited
    and the solutions found (``extra`` fields ``nodes`` and ``solutions``).
    """
    unknowns = sorted({u for eq in equations for u in eq.terms})
    index = {u: k for k, u in enumerate(unknowns)}
    # occurs[k]: (equation, multiplicity) for each equation holding unknown k
    occurs: list[list[tuple[int, int]]] = [[] for _ in unknowns]
    for e, eq in enumerate(equations):
        for u, mult in Counter(eq.terms).items():
            occurs[index[u]].append((e, mult))
    need = [eq.rhs for eq in equations]
    bound = [min(need[e] for e, _ in occ) for occ in occurs]
    rest = [0] * len(equations)
    for k, occ in enumerate(occurs):
        for e, mult in occ:
            rest[e] += mult * bound[k]
    values = [0] * len(unknowns)
    solutions: list[dict[NormalCut, int]] = []
    nodes = 0

    def search(k: int) -> None:
        nonlocal nodes
        if k == len(unknowns):
            solutions.append(dict(zip(unknowns, values)))
            return
        b = bound[k]
        lo, hi = 0, b
        for e, mult in occurs[k]:
            # after setting the unknown to v: 0 <= need - mult*v and
            # need - mult*v <= rest - mult*b
            hi = min(hi, need[e] // mult)
            lo = max(lo, b - (rest[e] - need[e]) // mult)
            rest[e] -= mult * b
        for v in range(lo, hi + 1):
            nodes += 1
            values[k] = v
            for e, mult in occurs[k]:
                need[e] -= mult * v
            search(k + 1)
            for e, mult in occurs[k]:
                need[e] += mult * v
            if len(solutions) >= max_solutions:
                break
        for e, mult in occurs[k]:
            rest[e] += mult * b

    if max_solutions > 0 and all(0 <= n <= r for n, r in zip(need, rest)):
        search(0)
    _log.debug(
        "mu_solutions visited %d nodes and found %d solutions",
        nodes,
        len(solutions),
        extra={"nodes": nodes, "solutions": len(solutions)},
    )
    return solutions


def mu_system_feasible(equations: Sequence[Equation]) -> Optional[dict[NormalCut, int]]:
    """A nonnegative integer solution, or None when provably infeasible."""
    sols = mu_solutions(equations, max_solutions=1)
    return sols[0] if sols else None
