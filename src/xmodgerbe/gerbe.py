"""Nonabelian Čech cocycles for crossed-module gerbes on finite covers.

A gerbe cocycle on a cover assigns d_ab in D to admissible increasing chart
pairs and h_abc in H to admissible increasing triples, subject to

    d_ab d_bc = alpha(h_abc) d_ac          (edge condition, triples)
    h_abc h_acd = (d_ab . h_bcd) h_abd     (tetrahedron condition, 4-tuples)

where . is the crossed-module action.  `enumerate_cocycles` lists every
cocycle of a cover as a `CocycleTable`, two int arrays (d over the pairs, h
over the triples) with one row per cocycle in key order, grown as one
array frontier; `check_table` checks the laws on every row of a table at
once, as `check_cocycle` does on one cocycle.  Stable
equivalence is generated by witnesses (r_a, s_ab); `classify_gerbes` turns
each single-chart / single-pair generator witness into a permutation of the
table's rows (the transformation law applied to whole columns, each image
row found by an exact search of the packed keys) and takes the orbits as
the components those permutations connect.  `abelian_oracle` independently
computes Čech cohomology of the cover with finite abelian coefficients
through integer Smith normal form, `LiftPlan` lifts a table of cocycles
along alpha with an H^3 obstruction cross-check, and `ordered_cocycle_maps`
writes the cocycles of a table down as one stack of simplicial maps from
the ordered cover nerve into the classifying space, for the
homotopy-theoretic count of the same classification
(`cocycle_to_simplicial_map` extends one to the full cover nerve by
search).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fingroup import (CrossedModule, FiniteGroup, abelian_invariants,
                       derived_crossed_modules, kernel)
from .intlinalg import ModSolver, homology
from .simplicial import (CoverComplex, SimplicialMap, TruncatedSimplicialSet,
                         _found_maps, _map_spec, _radix_encode, _radix_split,
                         cover_nerve, ordered_cover_nerve, validate_map)
from .util import Budget, BudgetError, StructureError

__all__ = [
    "GerbeCocycle",
    "CocycleTable",
    "check_cocycle",
    "check_table",
    "enumerate_cocycles",
    "GerbeClass",
    "GerbeClassification",
    "classify_gerbes",
    "CohomologyResult",
    "abelian_oracle",
    "LiftResult",
    "TableLift",
    "LiftPlan",
    "lift_gerbe",
    "CocycleMaps",
    "ordered_cocycle_maps",
    "cocycle_to_simplicial_map",
    "map_to_cocycle",
    "cocycle_to_json",
]


# ---------------------------------------------------------------------------
# cocycle data


@dataclass
class GerbeCocycle:
    """{d_ab, h_abc} data on the increasing admissible tuples of a cover."""

    cover: CoverComplex
    xm: CrossedModule
    d: dict[tuple[int, int], int]
    h: dict[tuple[int, int, int], int]
    name: str = "cocycle"

    def key(self) -> tuple:
        """Canonical hashable form: values in sorted-tuple order."""
        return (tuple(self.d[p] for p in self.cover.simplices(1)),
                tuple(self.h[t] for t in self.cover.simplices(2)))


@dataclass(eq=False)
class CocycleTable:
    """Cocycles on one cover with one crossed module, as two int arrays with
    one row per cocycle: `d` over cover.simplices(1) and `h` over
    cover.simplices(2), in that order.

    An int index gives its row as a GerbeCocycle, a slice a table of those
    rows, and iterating gives every row as a GerbeCocycle."""

    cover: CoverComplex
    xm: CrossedModule
    d: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CocycleTable(self.cover, self.xm, self.d[i], self.h[i])
        return self._cocycle(self.cover.simplices(1), self.cover.simplices(2),
                             self.d[i].tolist(), self.h[i].tolist())

    def __iter__(self):
        pairs, triples = self.cover.simplices(1), self.cover.simplices(2)
        for d, h in zip(self.d.tolist(), self.h.tolist()):
            yield self._cocycle(pairs, triples, d, h)

    def _cocycle(self, pairs, triples, d, h) -> GerbeCocycle:
        return GerbeCocycle(self.cover, self.xm, dict(zip(pairs, d)),
                            dict(zip(triples, h)))


def _int_rows(rows: list, width: int) -> np.ndarray:
    """`rows` as an int64 array of `width` columns, also when there are none."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def _row_table(c: GerbeCocycle, what: str,
               laws: _HCompletions) -> CocycleTable:
    """c as a one-row table, after the domain checks of check_cocycle:
    StructureError "<what>: d-domain" ("h-domain") unless d (h) holds one
    value of D (H) on each pair (triple) of the cover."""
    if (c.d.keys() != laws.pair_set
            or not all(0 <= v < laws.D.order for v in c.d.values())):
        raise StructureError(f"{what}: d-domain")
    if (c.h.keys() != laws.triple_set
            or not all(0 <= v < len(laws.hmul) for v in c.h.values())):
        raise StructureError(f"{what}: h-domain")
    d, h = [c.d[p] for p in laws.pairs], [c.h[t] for t in laws.triples]
    return CocycleTable(c.cover, c.xm, _int_rows([d], len(d)),
                        _int_rows([h], len(h)))


def check_cocycle(c: GerbeCocycle, what: str,
                  laws: _HCompletions | None = None) -> None:
    """Raise StructureError "<what>: <check>" at the first failing check of
    c: its d-domain or h-domain, the edge condition on a triple
    ("edge@a,b,c") or the tetrahedron condition on a quad
    ("tetra@a,b,c,d"); a cocycle passes silently.  The laws are checked by
    check_table on c as a one-row table.

    `laws` are the tables of c's cover and crossed module; without them
    they are built here, so a caller that checks many cocycles passes them.
    """
    laws = laws or _HCompletions(c.cover, c.xm)
    check_table(_row_table(c, what, laws), what, laws)


def check_table(table: CocycleTable, what: str,
                laws: _HCompletions | None = None) -> None:
    """check_cocycle for every row of a table at once: the domains, the
    edge laws and the tetrahedron laws are column gathers over all rows.  A
    failure raises the StructureError of the first failing row, naming its
    first failing check: the domains, then the edges in triple order, then
    the tetrahedra in quad order; `laws` are as for check_cocycle."""
    laws = laws or _HCompletions(table.cover, table.xm)
    xm = table.xm
    d, h = table.d, table.h
    fails = [((d < 0) | (d >= xm.D.order)).any(axis=1, keepdims=True),
             ((h < 0) | (h >= xm.H.order)).any(axis=1, keepdims=True)]
    # out-of-range values are clipped for the gathers; their rows already
    # fail on the domain, which is reported first
    d, h = np.clip(d, 0, xm.D.order - 1), np.clip(h, 0, xm.H.order - 1)
    fails.append(laws.edge_values(d) != xm.alpha.mapping[h])
    fails.append(np.not_equal(*_tetra_gathers(xm, d, h, laws.quad_cols)))
    fails = np.hstack(fails)
    if fails.any():
        row = fails[fails.any(axis=1).argmax()]
        names = (["d-domain", "h-domain"]
                 + [f"edge@{','.join(map(str, t))}" for t in laws.triples]
                 + [f"tetra@{','.join(map(str, q))}" for q in laws.tetras])
        raise StructureError(f"{what}: {names[row.argmax()]}")


def _tetra_gathers(xm: CrossedModule, d: np.ndarray, h: np.ndarray,
                   quad_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides, h_abc h_acd and (d_ab . h_bcd) h_abd, of every quad's
    tetrahedron law over all rows of the d and h arrays, with `quad_cols`
    the columns (ab, abc, acd, bcd, abd) of each quad."""
    hmul = xm.H.table
    ab, abc, acd, bcd, abd = quad_cols
    return (hmul[h[:, abc], h[:, acd]],
            hmul[xm.action.table[d[:, ab], h[:, bcd]], h[:, abd]])


# ---------------------------------------------------------------------------
# enumeration and classification


class _HCompletions:
    """The laws of the cocycles of one (cover, crossed module), built once:
    the tables check_table reads, the array frontier of enumerate_cocycles,
    and the depth-first search for the h-values completing one
    d-assignment, which LiftPlan runs.

    d and h are read by position in the cover's pair and triple lists, as
    the cover's `faces` give them: `edge_cols` holds the (ab, bc, ac) pair
    columns of each triple, `quad_cols` the (ab, abc, acd, bcd, abd) pair
    and triple columns of each quad, and `by_depth[i]` the quads whose
    lexicographically last triple is triple i, which the search and the
    frontier check as soon as they set that triple, as the frontier checks
    the triples of `closed_by[j]` once it sets pair j, their last.
    `pre[x]` (`coset[x]` as an array row) lists the alpha-preimage of x in
    ascending order for x in the image, which `in_image` marks.
    `_witness_columns` gathers with `ends` (each pair's a, b), `edge_cols`
    and `first`.
    """

    def __init__(self, cover: CoverComplex, xm: CrossedModule):
        self.pairs, self.triples = cover.simplices(1), cover.simplices(2)
        self.tetras = cover.simplices(3)
        self.pair_set, self.triple_set = set(self.pairs), set(self.triples)
        self.D = xm.D
        self.hmul, self.act = xm.H.table.tolist(), xm.action.table.tolist()
        self.pre: list[list[int]] = [[] for _ in range(xm.D.order)]
        for hval, dval in enumerate(xm.alpha.mapping.tolist()):
            self.pre[dval].append(hval)
        self.in_image = np.array([bool(p) for p in self.pre])
        kernel_size = len(self.pre[xm.D.identity])
        self.coset = np.array([p or [0] * kernel_size for p in self.pre],
                              dtype=np.intp)
        triple_faces, quad_faces = cover.faces(2), cover.faces(3)
        self.edge_cols = triple_faces[:, [2, 0, 1]].T
        self.quad_cols = np.column_stack((triple_faces[quad_faces[:, 3], 2],
                                          quad_faces[:, [3, 1, 0, 2]])).T
        self.by_depth: list[list[list[int]]] = [[] for _ in self.triples]
        for q in self.quad_cols.T.tolist():
            self.by_depth[max(q[1:])].append(q)
        self.closed_by: list[list[int]] = [[] for _ in self.pairs]
        for t, e in enumerate(self.edge_cols.T.tolist()):
            self.closed_by[max(e)].append(t)
        self.ends = cover.faces(1)[:, ::-1].T
        self.first = self.ends[0][self.edge_cols[0]]

    def edge_values(self, d: np.ndarray, triples=slice(None)) -> np.ndarray:
        """d_ab d_bc d_ac^-1 of every row of `d` (an array whose first
        columns are the pairs) on each of `triples`, all by default: the
        value alpha(h_abc) must take; one column for an int `triples`."""
        mul, inv = self.D.table, self.D.inverses
        ab, bc, ac = self.edge_cols[:, triples]
        return mul[mul[d[:, ab], d[:, bc]], inv[d[:, ac]]]

    def completions(self, d, edge, budget: Budget | None = None):
        """Every h completing the d-assignment `d` to a cocycle, in
        lexicographic order, each as a list over the triples, with `edge`
        d's edge_values as a list; each value tried is charged to `budget`
        when one is given."""
        cosets = [self.pre[x] for x in edge]
        hmul, act, by_depth = self.hmul, self.act, self.by_depth
        if not cosets:
            yield []
            return
        last = len(cosets) - 1
        h = [0] * len(cosets)
        # depth-first with one cursor per triple: cursor[i] is the position
        # in cosets[i] of the next value to try for h[i]
        cursor = [0] * len(cosets)
        i = 0
        while i >= 0:
            if cursor[i] == len(cosets[i]):
                cursor[i] = 0
                i -= 1
                continue
            if budget is not None:
                budget.spend()
            h[i] = cosets[i][cursor[i]]
            cursor[i] += 1
            for ab, abc, acd, bcd, abd in by_depth[i]:
                if hmul[h[abc]][h[acd]] != hmul[act[d[ab]][h[bcd]]][h[abd]]:
                    break
            else:
                if i == last:
                    yield list(h)
                else:
                    i += 1


def _exhaustive_bound(cover: CoverComplex, xm: CrossedModule) -> int:
    """|D|^pairs * |ker alpha|^triples, charged up front by the enumeration."""
    ker_size = sum(1 for v in xm.alpha.mapping if v == xm.D.identity)
    return (xm.D.order ** len(cover.simplices(1))
            * max(1, ker_size) ** len(cover.simplices(2)))


def enumerate_cocycles(cover: CoverComplex, xm: CrossedModule,
                       budget: Budget | None = None,
                       laws: _HCompletions | None = None) -> CocycleTable:
    """All valid cocycles, in lexicographic (d, h) order: a row's index is
    its key's rank.

    The rows grow as one array frontier of partial assignments, a column
    at a time and each row into every value of the new column in ascending
    order, so the frontier stays in lexicographic order.  The pairs come
    first: once pair j is set, the rows failing the edge condition of a
    triple whose last pair is j (d_ab d_bc d_ac^-1 outside the image of
    alpha) are dropped.  Then each triple takes the values of its
    alpha-preimage coset, and the rows failing a tetrahedron condition
    whose last triple that is are dropped.  The up-front charge
    |D|^pairs * |ker alpha|^triples also bounds every frontier.  `laws`
    are the tables of the cover and crossed module, as for check_cocycle.
    """
    budget = budget or Budget(what="cocycle enumeration")
    budget.spend(_exhaustive_bound(cover, xm))
    laws = laws or _HCompletions(cover, xm)
    npairs = len(laws.pairs)
    rows = np.zeros((1, npairs + len(laws.triples)),
                    dtype=np.min_scalar_type(max(xm.D.order, xm.H.order)))

    def grow(j: int, values: np.ndarray) -> np.ndarray:
        """Each row repeated once per entry of its row of `values`, which
        column j then holds."""
        out = np.repeat(rows, values.shape[1], axis=0)
        out[:, j] = values.ravel()
        return out

    for j, closed in enumerate(laws.closed_by):
        rows = grow(j, np.broadcast_to(np.arange(xm.D.order),
                                       (len(rows), xm.D.order)))
        if closed:
            rows = rows[laws.in_image[laws.edge_values(rows, closed)]
                        .all(axis=1)]
    for i, quads in enumerate(laws.by_depth):
        rows = grow(npairs + i, laws.coset[laws.edge_values(rows, i)])
        if quads:
            lhs, rhs = _tetra_gathers(xm, rows[:, :npairs], rows[:, npairs:],
                                      np.array(quads).T)
            rows = rows[(lhs == rhs).all(axis=1)]
    return CocycleTable(cover, xm, rows[:, :npairs].astype(np.int64),
                        rows[:, npairs:].astype(np.int64))


def _generator_witnesses(cover: CoverComplex, xm: CrossedModule
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Single-chart r changes and single-pair s changes (they generate),
    each as (r over the charts, s over the cover's pairs); no change sets
    the identity, whatever its label."""
    r0 = np.full(cover.charts, xm.D.identity, dtype=np.intp)
    s0 = np.full(len(cover.simplices(1)), xm.H.identity, dtype=np.intp)
    gens = []
    for a in range(cover.charts):
        for dval in xm.D.elements():
            if dval != xm.D.identity:
                r = r0.copy()
                r[a] = dval
                gens.append((r, s0))
    for p in range(len(s0)):
        for hval in xm.H.elements():
            if hval != xm.H.identity:
                s = s0.copy()
                s[p] = hval
                gens.append((r0, s))
    return gens


def _witness_columns(table: CocycleTable, r: np.ndarray, s: np.ndarray,
                     laws: _HCompletions) -> tuple[np.ndarray, np.ndarray]:
    """The d and h arrays of the table's cocycles acted on by the witness
    (r_a, s_ab), with r over the charts and s over the cover's pairs:

        d'_ab  = r_a alpha(s_ab) d_ab r_b^-1
        h'_abc = (r_a . s_ab)(r_a d_ab . s_bc)(r_a . h_abc)(r_a . s_ac)^-1

    each factor a gather from the crossed module's tables over whole
    columns.  Only the columns the witness can move are computed: a pair
    ab where r_a, r_b or s_ab is not the identity, and a triple abc where
    r_a, s_ab, s_bc or s_ac is not; the others are copied, so a generator
    computes a few columns.  `laws` are the tables of the table's cover and
    module."""
    xm = table.xm
    dmul, dinv, alpha = xm.D.table, xm.D.inverses, xm.alpha.mapping
    hmul, hinv, act = xm.H.table, xm.H.inverses, xm.action.table
    r_on, s_on = r != xm.D.identity, s != xm.H.identity
    a, b = laws.ends
    moved = np.flatnonzero(r_on[a] | r_on[b] | s_on)
    d2 = table.d.copy()
    d2[:, moved] = dmul[dmul[dmul[r[a[moved]], alpha[s[moved]]],
                             table.d[:, moved]], dinv[r[b[moved]]]]
    ab, bc, ac = laws.edge_cols
    first = laws.first
    moved = np.flatnonzero(r_on[first] | s_on[ab] | s_on[bc] | s_on[ac])
    h2 = table.h.copy()
    ab, bc, ac, ra = ab[moved], bc[moved], ac[moved], r[first[moved]]
    h2[:, moved] = hmul[hmul[hmul[act[ra, s[ab]],
                                  act[dmul[ra, table.d[:, ab]], s[bc]]],
                             act[ra, table.h[:, moved]]], hinv[act[ra, s[ac]]]]
    return d2, h2


def _pack(rows: np.ndarray, rank: np.ndarray, cols: range,
          radix: list[int]) -> np.ndarray:
    """rank * prod(radix[cols]) + the mixed-radix number of rows[:, cols]."""
    out = rank.copy()
    for j in cols:
        out *= radix[j]
        out += rows[:, j]
    return out


class _RowIndex:
    """Exact lookup of int rows among the distinct rows of a table, whose
    column j holds digits below radix[j].

    Rows are packed into int64 keys a block of columns at a time: a block's
    key is the rank of the row's earlier blocks among the table's, times
    the block's radix product, plus its digits in mixed radix.  Blocks are
    cut so that no key reaches 2^63, so rows of any width compare exactly;
    when the radix product of a row fits, one block holds every column."""

    def __init__(self, rows: np.ndarray, radix: list[int]):
        n = len(rows)
        cap = (2 ** 63 - 1) // max(n, 1)
        self.radix = radix
        self.blocks: list[tuple[range, np.ndarray]] = []
        rank = np.zeros(n, dtype=np.int64)
        start = 0
        while True:
            stop, span = start, 1
            while stop < len(radix) and span * radix[stop] <= cap:
                span *= radix[stop]
                stop += 1
            if stop == start < len(radix):
                raise StructureError(f"a digit below {radix[start]} does not "
                                     f"fit a key beside {n} rows")
            keys = _pack(rows, rank, range(start, stop), radix)
            # np.unique would load numpy.ma, which no command loads otherwise
            distinct = np.sort(keys)
            first = np.ones(n, dtype=bool)
            first[1:] = distinct[1:] != distinct[:-1]
            distinct = distinct[first]
            rank = np.searchsorted(distinct, keys)
            self.blocks.append((range(start, stop), distinct))
            if stop == len(radix):
                break
            start = stop
        if len(distinct) != n:
            raise StructureError("the table repeats a row")
        self.position = np.empty(n, dtype=np.int64)
        self.position[rank] = np.arange(n)

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The table position of each of `rows`, or -1 for a row that is
        none of the table's."""
        rank = np.zeros(len(rows), dtype=np.int64)
        hit = np.ones(len(rows), dtype=bool)
        for cols, distinct in self.blocks:
            keys = _pack(rows, rank, cols, self.radix)
            rank = np.minimum(np.searchsorted(distinct, keys), len(distinct) - 1)
            hit &= distinct[rank] == keys
        return np.where(hit, self.position[rank], -1)


def _spanning(lo: np.ndarray, hi: np.ndarray,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """A spanning forest of the edges (lo[k], hi[k]), lo < hi, between
    labels below n: (the positions k of its edges, ascending; each label's
    root, the least label it is joined to).

    In each round every label that is some edge's larger end takes the
    first such edge down to the smaller end; the links only point down, so
    the chosen edges form a forest.  The labels are then replaced by their
    roots (pointer jumping), and the edges still between two roots go to
    the next round."""
    keep = [np.zeros(0, dtype=np.intp)]
    pos = np.arange(len(lo))
    root = np.arange(n)
    while len(pos):
        order = np.argsort(hi, kind="stable")
        first = order[np.r_[True, hi[order][1:] != hi[order][:-1]]]
        keep.append(pos[first])
        root[hi[first]] = lo[first]
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        lo, hi = root[lo], root[hi]
        live = lo != hi
        lo, hi = np.minimum(lo, hi)[live], np.maximum(lo, hi)[live]
        pos = pos[live]
    return np.sort(np.concatenate(keep)), root


@dataclass
class GerbeClass:
    representative: GerbeCocycle
    key: tuple
    orbit_size: int


@dataclass
class GerbeClassification:
    cover: CoverComplex
    xm: CrossedModule
    cocycles: CocycleTable
    classes: list[GerbeClass]
    exhaustive: bool
    # orbit_of[i] is the index in `classes` of the orbit of cocycles[i]
    orbit_of: list[int]
    # the generator moves (r, s, perm, edges): the witness (r_a, s_ab)
    # takes cocycles[i] to cocycles[perm[i]], and the edges c -> perm[c],
    # c in `edges`, are the ones the move adds to the orbits' spanning forest
    moves: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

    def counts(self) -> tuple[int, int]:
        return len(self.cocycles), len(self.classes)


GUARD_CHARTS = 5
GUARD_ORDER = 16


def classify_gerbes(cover: CoverComplex, xm: CrossedModule,
                    budget: Budget | None = None,
                    force: bool = False) -> GerbeClassification:
    """Partition all valid cocycles into stable classes.

    The enumeration lists the cocycles as a table in key order.  Each
    generator witness acts on all of its rows at once (`_witness_columns`),
    and `_RowIndex` finds every image row, so the witness is a permutation
    of the row indices; an image outside the table is a StructureError.
    The orbits are the components that the permutations connect, grown
    as one spanning forest a move at a time: `_spanning` keeps one edge
    c -> perm[c] per merge of two orbits so far, and an image that two rows
    share is a StructureError.  Classes are listed by their least member,
    which is their smallest row index, with a GerbeCocycle for that member
    only, and `orbit_of` names each cocycle's class; `moves` keeps each
    generator with its permutation and the forest rows it added.  One
    budget step per (cocycle, generator) is charged as soon as the
    cocycles are counted.  Instances beyond the exhaustive-mode guard
    (> 5 charts or |H|*|D| > 16) require `force` and are flagged
    non-exhaustive.
    """
    guard = cover.charts > GUARD_CHARTS or xm.H.order * xm.D.order > GUARD_ORDER
    budget = budget or Budget(what="gerbe classification")
    if guard and not force:
        raise BudgetError(
            f"gerbe classification beyond the exhaustive guard "
            f"({cover.charts} charts, |H||D| = {xm.H.order * xm.D.order})",
            _exhaustive_bound(cover, xm), budget.limit)
    laws = _HCompletions(cover, xm)
    table = enumerate_cocycles(cover, xm, budget=budget, laws=laws)
    gens = _generator_witnesses(cover, xm)
    budget.spend(len(table) * len(gens))
    index = _RowIndex(np.hstack((table.d, table.h)),
                      [xm.D.order] * len(laws.pairs)
                      + [xm.H.order] * len(laws.triples))
    moves = []
    label = np.arange(len(table))      # each row's orbit so far: its least row
    for r, s in gens:
        at = index.find(np.hstack(_witness_columns(table, r, s, laws)))
        if (at < 0).any():
            raise StructureError("witness action left the enumerated "
                                 "cocycle set (enumeration bug)")
        if (np.bincount(at, minlength=len(table)) != 1).any():
            raise StructureError("a witness action is not one-to-one on the "
                                 "enumerated cocycles")
        image = label[at]
        cross = np.flatnonzero(label != image)
        keep, root = _spanning(np.minimum(label, image)[cross],
                               np.maximum(label, image)[cross], len(table))
        moves.append((r, s, at, cross[keep]))
        label = root[label]
    firsts = np.flatnonzero(label == np.arange(len(table)))
    orbit_of = np.searchsorted(firsts, label)
    classes = []
    for i, size in zip(firsts.tolist(),
                       np.bincount(orbit_of, minlength=len(firsts)).tolist()):
        rep = table[i]
        classes.append(GerbeClass(rep, rep.key(), size))
    return GerbeClassification(cover, xm, table, classes,
                               exhaustive=not guard, orbit_of=orbit_of.tolist(),
                               moves=moves)


# ---------------------------------------------------------------------------
# abelian cohomology oracle (integer SNF + coefficient change)


@dataclass
class CohomologyResult:
    degree: int
    order: int
    invariants: list[int]          # cyclic factor orders > 1, descending
    betti: int                     # integral betti number in this degree
    torsion: list[int]             # integral torsion in this degree


def _boundary_matrix(cover: CoverComplex, k: int) -> np.ndarray:
    """Integer matrix of the k-th boundary on increasing tuples, k >= 1:
    (-1)^i at face i of each k-simplex's column, set by one scatter."""
    faces = cover.faces(k)
    mat = np.zeros((len(cover.position(k - 1)), len(faces)), dtype=np.int64)
    mat[faces, np.arange(len(faces))[:, None]] = (-1) ** np.arange(k + 1)
    return mat


def _integral_homology(cover: CoverComplex, k: int) -> tuple[int, list[int]]:
    if k < 0 or not cover.simplices(k):
        return 0, []
    return homology(_boundary_matrix(cover, k) if k else None,
                    _boundary_matrix(cover, k + 1), len(cover.simplices(k)))


def abelian_oracle(cover: CoverComplex, a: FiniteGroup, degree: int) -> CohomologyResult:
    """Čech cohomology of the cover with coefficients in a finite abelian group.

    Integral homology of the increasing-tuple complex is computed by Smith
    normal form, then converted by the universal coefficient theorem:
    H^k(A) = Hom(H_k, A) + Ext(H_{k-1}, A), using gcd arithmetic on the
    cyclic invariants of A.
    """
    if not a.is_abelian():
        raise StructureError(f"oracle needs abelian coefficients, got {a.name}")
    if degree < 1 or degree > 3:
        raise StructureError("oracle supports degrees 1..3")
    inv_a = abelian_invariants(a)
    b_k, tor_k = _integral_homology(cover, degree)
    _, tor_km1 = _integral_homology(cover, degree - 1)
    factors: list[int] = []
    for _ in range(b_k):
        factors.extend(inv_a)                      # Hom(Z, A) = A
    for t in tor_k:
        factors.extend(math.gcd(t, m) for m in inv_a)   # Hom(Z_t, A)
    for t in tor_km1:
        factors.extend(math.gcd(t, m) for m in inv_a)   # Ext(Z_t, A)
    factors = sorted((f for f in factors if f > 1), reverse=True)
    order = 1
    for f in factors:
        order *= f
    return CohomologyResult(degree, order, factors, b_k, tor_k)


# ---------------------------------------------------------------------------
# lifting along alpha


def _abelian_coordinates(g: FiniteGroup):
    """(gens, moduli, coord) realizing g as a direct product of cyclic groups.

    coord maps each element to exponents (e_1, ..., e_r) with
    x = gens[0]^e_1 * ... * gens[r-1]^e_r uniquely.
    """
    moduli = abelian_invariants(g)
    if not moduli:
        return [], [], {g.identity: ()}

    def extend(chosen: list[int], span: dict[int, tuple]) -> tuple | None:
        i = len(chosen)
        if i == len(moduli):
            return (list(chosen), dict(span))
        for cand in g.elements():
            if g.element_order(cand) != moduli[i]:
                continue
            new_span: dict[int, tuple] = {}
            ok = True
            for x, exps in span.items():
                p = x
                for e in range(moduli[i]):
                    if p in new_span or p in span and e > 0:
                        ok = False
                        break
                    new_span[p] = exps + (e,)
                    p = g.mul(p, cand)
                if not ok:
                    break
            if ok and len(new_span) == len(span) * moduli[i]:
                res = extend(chosen + [cand], new_span)
                if res is not None:
                    return res
        return None

    res = extend([], {g.identity: ()})
    if res is None:
        raise StructureError(f"no cyclic decomposition found for {g.name}")
    gens, span = res
    return gens, moduli, span


@dataclass
class LiftResult:
    lifted: GerbeCocycle | None
    central: bool
    action_trivial: bool
    obstruction_zero: bool | None      # None when not emitted
    agreement: bool | None             # lift-found == obstruction-zero
    oracle: CohomologyResult | None    # H^3 of the cover in ker alpha
    defect: dict | None                # quad -> kernel coordinates of the defect


@dataclass
class TableLift:
    """The lifts of a table's rows, one entry per row: `found` whether the
    row lifts and `h` the h-values of its lift (the d-values are the row's;
    a row that does not lift holds zeros).  When the obstruction is
    emitted, `defect` holds the kernel coordinates of the defect on each
    quad, `obstruction_zero` whether its class vanishes and `agreement`
    whether that matches `found`; otherwise the three are None."""

    found: np.ndarray
    h: np.ndarray
    obstruction_zero: np.ndarray | None = None
    agreement: np.ndarray | None = None
    defect: np.ndarray | None = None


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the first position of each distinct row of `rows`, each row's index
    among those), by one lexsort; np.unique would load numpy.ma, which no
    command loads otherwise."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


_INVALID_INPUT = "cannot lift an invalid cocycle"


class LiftPlan:
    """Lifting data of a (cover, target) pair, built once for all cocycles.

    Only the search and the defect 3-cochain depend on the cocycle.  The
    plan holds the rest: the image module the cocycles live over, ker alpha
    with its centrality and action checks, the laws of the target (with
    its h-completion search) and of the image module and, when the
    obstruction is emitted, H^3 of the cover in ker alpha, the cyclic
    coordinates of ker alpha, the coboundary matrix from triples to quads
    and, when there are quads, one factored solver of that matrix per
    cyclic modulus of ker alpha.
    """

    def __init__(self, cover: CoverComplex, xm: CrossedModule):
        H, D = xm.H, xm.D
        self.cover = cover
        self.xm = xm
        self.base = derived_crossed_modules(xm)["image-in-base"]
        ker_g, ker_inc = kernel(xm.alpha, name="ker")
        self.central = all(H.mul(int(k), x) == H.mul(x, int(k))
                           for k in ker_inc.mapping for x in H.elements())
        self.action_trivial = all(int(xm.action.table[d, int(k)]) == int(k)
                                  for d in D.elements() for k in ker_inc.mapping)

        self.quads = cover.simplices(3)
        self.search = _HCompletions(cover, xm)
        self.base_laws = _HCompletions(cover, self.base)

        self.oracle: CohomologyResult | None = None
        if self.emitted:
            self.oracle = abelian_oracle(cover, ker_g, 3)
            _, self.moduli, coord = _abelian_coordinates(ker_g)
            # each element of ker alpha: its cyclic coordinates (the row
            # of an element outside the kernel is never read)
            self.coord = np.zeros((H.order, len(self.moduli)), dtype=np.int64)
            for i, v in enumerate(ker_inc.mapping.tolist()):
                self.coord[v] = coord[i]
            # coboundary from triples to quads, one row per quad
            self.mat = (-_boundary_matrix(cover, 3).T).tolist()
            self.solvers = ([ModSolver(self.mat, m) for m in self.moduli]
                            if self.quads else [])

    @property
    def emitted(self) -> bool:
        """Whether the H^3 obstruction applies: ker alpha central, fixed by D."""
        return self.central and self.action_trivial

    def is_base(self, m: CrossedModule) -> bool:
        """Whether m is the image module: equal group tables and alpha."""
        base = self.base
        return m is base or (
            np.array_equal(m.H.table, base.H.table)
            and np.array_equal(m.D.table, base.D.table)
            and np.array_equal(m.alpha.mapping, base.alpha.mapping))

    def _check_own(self, cocycles: GerbeCocycle | CocycleTable) -> None:
        """StructureError unless the cocycles are over the image module and
        on the plan's cover."""
        if not self.is_base(cocycles.xm):
            raise StructureError("cocycle is not over the image module of the target")
        if ((cocycles.cover.charts, cocycles.cover.sets)
                != (self.cover.charts, self.cover.sets)):
            raise StructureError("cocycle is not on the cover of the lift plan")

    def lift(self, c: GerbeCocycle, budget: Budget | None = None) -> LiftResult:
        """Lift one cocycle over `self.base`: the one-row case of lift_table,
        with the lift named after c."""
        self._check_own(c)
        out = self.lift_table(_row_table(c, _INVALID_INPUT, self.base_laws),
                              budget)
        lifted = None
        if out.found[0]:
            lifted = GerbeCocycle(c.cover, self.xm, dict(c.d),
                                  dict(zip(self.search.triples,
                                           out.h[0].tolist())),
                                  name=f"{c.name}-lift")
        if not self.emitted:
            return LiftResult(lifted, self.central, self.action_trivial,
                              None, None, None, None)
        defect = {q: tuple(e) for q, e in zip(self.quads,
                                              out.defect[0].tolist())}
        return LiftResult(lifted, self.central, self.action_trivial,
                          bool(out.obstruction_zero[0]),
                          bool(out.agreement[0]), self.oracle, defect)

    def lift_table(self, table: CocycleTable,
                   budget: Budget | None = None) -> TableLift:
        """Lift every row of a table of cocycles over `self.base` to a
        cocycle for the target, if possible.

        A row's lift is the first h-completion of its d-values for the
        target: each h_abc runs over the alpha-preimage coset the edge
        condition forces, against the tetrahedron condition, row by row,
        each value tried charged to `budget`.  The input rows and the lifts
        are checked by check_table.  When the obstruction is emitted, the
        defect 3-cochain of an arbitrary set-level lift (the first value of
        every coset) is gathered for all rows at once, its class is tested
        for triviality by linear algebra once per distinct defect, and the
        two verdicts are cross-checked.
        """
        budget = budget or Budget(what="gerbe lift")
        self._check_own(table)
        check_table(table, _INVALID_INPUT, self.base_laws)
        search = self.search
        edge = search.edge_values(table.d)
        firsts = [next(search.completions(d, e, budget), None)
                  for d, e in zip(table.d.tolist(), edge.tolist())]
        found = np.array([h is not None for h in firsts], dtype=bool)
        h = _int_rows([f or [0] * len(search.triples) for f in firsts],
                      len(search.triples))
        check_table(CocycleTable(table.cover, self.xm, table.d[found],
                                 h[found]),
                    "lift search returned an invalid cocycle", search)
        out = TableLift(found, h)
        if not self.emitted:
            return out
        xm = self.xm
        lhs, rhs = _tetra_gathers(xm, table.d, search.coset[edge, 0],
                                  search.quad_cols)
        z = xm.H.table[xm.H.inverses[rhs], lhs]
        if (xm.alpha.mapping[z] != xm.D.identity).any():
            raise StructureError("lift defect landed outside ker alpha")
        out.defect = self.coord[z]
        out.obstruction_zero = np.ones(len(table), dtype=bool)
        if self.solvers and len(table):
            distinct, inverse = _distinct_rows(
                out.defect.reshape(len(table), -1))
            out.obstruction_zero = np.array(
                [self._class_vanishes(out.defect[i]) for i in distinct]
            )[inverse]
        out.agreement = found == out.obstruction_zero
        return out

    def _class_vanishes(self, defect: np.ndarray) -> bool:
        """Whether a defect (quads x kernel coordinates) is a coboundary:
        one solve per cyclic modulus, until one has no solution."""
        return all(solver.solve(((-defect[:, ci]) % solver.mod).tolist())
                   is not None for ci, solver in enumerate(self.solvers))


def lift_gerbe(c: GerbeCocycle, xm: CrossedModule,
               budget: Budget | None = None) -> LiftResult:
    """One-shot `LiftPlan(c.cover, xm).lift(c, budget)`; build the plan
    yourself to lift many cocycles on one cover.

    No command calls it; `perfbench/tracer.py` hooks it by name, and the
    suite checks `LiftPlan` against it."""
    return LiftPlan(c.cover, xm).lift(c, budget)


# ---------------------------------------------------------------------------
# cocycles as simplicial maps


def _ordered_reads(cover: CoverComplex, x: TruncatedSimplicialSet
                   ) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
    """What the map of a cocycle reads on each simplex of x, the ordered
    nerve of `cover`: per level n, the pair each spine edge (i, i+1) reads,
    then the triple each free triangle (i, i+1, k) of the 2-nerve reads, one
    array over the level's simplices each, gathered from the `_slots` of
    the edges and triangles through x's faces.  The slot past the last pair
    (triple) reads the identity of D (H), as the 2-nerve's degeneracies do."""
    from .xnerve import _face_on, _free_triples   # loaded with the 2-nerve
    d_slot, h_slot = _slots(cover, x, 1), _slots(cover, x, 2)
    reads = []
    for n in range(x.N + 1):
        edges = [d_slot[_face_on(x, n, (i, i + 1))] for i in range(n)]
        tris = [h_slot[_face_on(x, n, (i, i + 1, k))]
                for i, k in _free_triples(n)]
        reads.append((edges, tris))
    return reads


def _slots(cover: CoverComplex, x: TruncatedSimplicialSet,
           k: int) -> np.ndarray:
    """The position in cover.simplices(k) of each level-k simplex of x, the
    ordered nerve of `cover`, or one past the last on a repeated chart."""
    at = cover.position(k)
    return np.array([at.get(t, len(at)) for t in x.labels[k]], dtype=np.intp)


def ordered_cocycle_maps(table: CocycleTable, match,
                         budget: Budget | None = None) -> SimplicialMap:
    """The maps X<= -> W-bar of the table's cocycles, written down, not
    searched, as one stack: level n is an array of one row per cocycle, in
    row order, by the level's simplices.

    X<= is `ordered_cover_nerve` of the table's cover at the truncation of
    `match`, a MatchResult for its crossed module.  On X<= the free data of a simplex's image in the 2-nerve are
    its spine edges and its triangles (i, i+1, k), each a value of the
    cocycle or an identity (see `_ordered_reads`), so the map is unique.  A
    level is built for all cocycles at once, as column gathers from the
    table's arrays and one radix encoding, then carried into W-bar by
    `match.inverse`.  Every row must pass `validate_map`, or this is a
    StructureError.  `budget` bounds the size of X<=.
    """
    cover, xm = table.cover, table.xm
    x = ordered_cover_nerve(cover, match.wbar.N, budget=budget)
    # one row per cocycle: its values in pair (triple) order, then the
    # identity that repeated charts read
    column = np.ones((len(table), 1), dtype=np.int64)
    dv = np.hstack((table.d, column * xm.D.identity))
    hv = np.hstack((table.h, column * xm.H.identity))
    levels = []
    for n, (edges, tris) in enumerate(_ordered_reads(cover, x)):
        digits = [dv[:, at] for at in edges] + [hv[:, at] for at in tris]
        radix, _ = _radix_split(match.duskin.radix[n])
        image = _radix_encode(digits, radix, (len(table), x.sizes[n]))
        levels.append(match.inverse[n][image])
    f = SimplicialMap(x, match.wbar, levels, name="cocycle-wmaps")
    rep = validate_map(f)
    if not rep.ok:
        raise StructureError(f"closed-form map of cocycle "
                             f"{int(rep.rows.argmin())} failed validation: "
                             f"{rep.summary()}")
    return f


@dataclass
class CocycleMaps:
    nerve: TruncatedSimplicialSet
    duskin_map: SimplicialMap
    wbar_map: SimplicialMap


def cocycle_to_simplicial_map(c: GerbeCocycle, match, budget: Budget | None = None,
                              nerve: TruncatedSimplicialSet | None = None) -> CocycleMaps:
    """Extend a cocycle to a full simplicial map out of the cover nerve.

    Increasing tuples are pinned directly from (d, h), reversed pairs to
    inverses and vertices to the identity; the values on the remaining
    (non-monotone) tuples are found by backtracking, and the result is
    re-validated.  The map into the classifying space is the 2-nerve map
    composed with the model dictionary `match` (a MatchResult for the same
    crossed module).

    No command calls it: the cross-check of `gerbe-classify` writes its maps
    down on the ordered nerve (`ordered_cocycle_maps`).  The suite's map
    route of criterion 7, the `map_to_cocycle` round trip and the
    extension-node pins call it, and `perfbench/tracer.py` hooks it by name.
    """
    duskin = match.duskin
    budget = budget or Budget(what="cocycle extension")
    x = nerve
    if x is None:
        x = cover_nerve(c.cover, match.wbar.N, budget=budget)
    D = c.xm.D
    pins: list[dict[int, int]] = [{} for _ in range(x.N + 1)]
    for a in range(c.cover.charts):
        pins[0][x.index(0, (a,))] = 0
    for (a, b), dv in c.d.items():
        pins[1][x.index(1, (a, b))] = duskin.index(1, ((dv,), ()))
        pins[1][x.index(1, (b, a))] = duskin.index(1, ((D.inv(dv),), ()))
    for (a, b, cc), hv in c.h.items():
        pins[2][x.index(2, (a, b, cc))] = duskin.index(
            2, ((c.d[(a, b)], c.d[(b, cc)]), (hv,)))
    f = next(_found_maps(_map_spec(x, duskin, pins), duskin, budget, limit=1,
                         name=f"{c.name}-map"), None)
    if f is None:
        raise StructureError("no simplicial extension of the cocycle exists")
    warrs = [match.inverse[n][f.levels[n]] for n in range(x.N + 1)]
    wf = SimplicialMap(x, match.wbar, warrs, name=f"{c.name}-wmap")
    wrep = validate_map(wf)
    if not wrep.ok:
        raise StructureError(f"translated map failed validation: {wrep.summary()}")
    return CocycleMaps(x, f, wf)


def map_to_cocycle(f: SimplicialMap, cover: CoverComplex, xm: CrossedModule,
                   match=None) -> GerbeCocycle:
    """Read (d, h) off the increasing tuples of a cover-nerve map.

    Accepts a map into the 2-nerve, or into the classifying space when
    `match` provides the translation.  This is the map -> cocycle direction
    of the classification H^1(X; H -> D) = [X, B|N(H -> D)|]; the suite's
    round trip through it is the only check that `cocycle_to_simplicial_map`
    lands on the map of its own cocycle."""
    levels = f.levels
    target = f.target
    if match is not None and getattr(target, "wbar_of", None) is not None:
        levels = [match.iso.levels[n][levels[n]] for n in range(f.source.N + 1)]
        target = match.duskin
    x = f.source
    d = {}
    h = {}
    for p in cover.simplices(1):
        ds, _hs = target.label(1, int(levels[1][x.index(1, p)]))
        d[p] = int(ds[0])
    for t in cover.simplices(2):
        _ds, hs = target.label(2, int(levels[2][x.index(2, t)]))
        h[t] = int(hs[0])
    out = GerbeCocycle(cover, xm, d, h, name=f"{f.name}-cocycle")
    check_cocycle(out, "extracted data is not a cocycle")
    return out


# ---------------------------------------------------------------------------
# serialization


def cocycle_to_json(c: GerbeCocycle) -> dict:
    """The d and h values, keyed "a,b" and "a,b,c", and the name: the form
    the reports print and `gerbe-classify --out` writes."""
    return {
        "d": {f"{a},{b}": int(v) for (a, b), v in sorted(c.d.items())},
        "h": {f"{a},{b},{cc}": int(v) for (a, b, cc), v in sorted(c.h.items())},
        "name": c.name,
    }
