"""Truncated simplicial sets and groups, with exhaustive combinatorial checks.

A truncated simplicial set stores, for each level 0..N, a finite set
{0..size-1}, plus face maps (level n has faces d_0..d_n down to level n-1)
and degeneracy maps (s_0..s_n up to level n+1, absent at the top level).
All simplicial identities are checked within the truncation window.

The same face/degeneracy array layout is shared by simplicial groups, whose
levels carry FiniteGroup structure and whose structure maps must be homs.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .fingroup import FiniteGroup, is_normal, quotient, subgroup, validate_group
from .util import DEFAULT_BUDGET, Budget, BudgetError, Report, StructureError

__all__ = [
    "TruncatedSimplicialSet",
    "TruncatedSimplicialGroup",
    "SimplicialMap",
    "CoverComplex",
    "validate_simplicial",
    "validate_map",
    "constant_simplicial_group",
    "cover_nerve",
    "ordered_cover_nerve",
    "delta1",
    "circle",
    "sset_product",
    "truncate_sset",
    "nondegenerate",
    "moore_homotopy",
    "enumerate_simplicial_maps",
    "homotopy_classes",
    "partition",
    "simplicially_homotopic",
    "circle_cover",
    "ball_cover",
    "sphere_cover",
    "sset_to_json",
    "sset_from_json",
]


# ---------------------------------------------------------------------------
# containers


@dataclass
class TruncatedSimplicialSet:
    """Levels 0..N; faces[n][i] and degens[n][i] are dense index arrays.

    `label(n, x)` names simplex x, and `index(n, label)` finds it again.  A
    mixed-radix level (W-bar, the 2-nerve) keeps no names: `radix[n]` holds
    its digit radices, and a name is decoded from the index when asked
    for, a digit for each int of `radix[n]` and a tuple of digits for each
    list in it.  Otherwise `labels[n][x]` is an optional printable name
    (tuples for cover nerves, strings elsewhere).  `wbar_of` marks
    classifying spaces produced by the bar-construction, which some
    operations require.
    """

    N: int
    sizes: list[int]
    faces: list[list[np.ndarray]]       # faces[n][i], 1 <= n <= N, 0 <= i <= n
    degens: list[list[np.ndarray]]      # degens[n][i], 0 <= n < N, 0 <= i <= n
    labels: list[list] | None = None
    name: str = "X"
    wbar_of: str | None = None
    radix: list[list] | None = None

    def __post_init__(self):
        if len(self.sizes) != self.N + 1:
            raise StructureError(f"{self.name}: need {self.N + 1} level sizes")
        for n in range(self.N + 1):
            if n >= 1:
                fl = self.faces[n]
                if len(fl) != n + 1:
                    raise StructureError(f"{self.name}: level {n} needs {n + 1} faces")
                for i, arr in enumerate(fl):
                    arr = np.asarray(arr, dtype=np.int64)
                    if arr.shape != (self.sizes[n],):
                        raise StructureError(f"{self.name}: face d_{i} at level {n} wrong length")
                    if len(arr) and (arr.min() < 0 or arr.max() >= self.sizes[n - 1]):
                        raise StructureError(f"{self.name}: face d_{i} at level {n} out of range")
                    arr.flags.writeable = False
                    fl[i] = arr
            if n < self.N:
                dl = self.degens[n]
                if len(dl) != n + 1:
                    raise StructureError(f"{self.name}: level {n} needs {n + 1} degeneracies")
                for i, arr in enumerate(dl):
                    arr = np.asarray(arr, dtype=np.int64)
                    if arr.shape != (self.sizes[n],):
                        raise StructureError(f"{self.name}: s_{i} at level {n} wrong length")
                    if len(arr) and (arr.min() < 0 or arr.max() >= self.sizes[n + 1]):
                        raise StructureError(f"{self.name}: s_{i} at level {n} out of range")
                    arr.flags.writeable = False
                    dl[i] = arr

    def label(self, n: int, x: int):
        if self.radix is not None:
            flat, spans = _radix_split(self.radix[n])
            digits = [int(v) for v in np.unravel_index(x, flat)]
            return tuple(tuple(digits[s]) if isinstance(s, slice) else digits[s]
                         for s in spans)
        if self.labels is not None and self.labels[n] is not None:
            return self.labels[n][x]
        return x

    def index(self, n: int, label) -> int:
        """The level-n simplex named `label`; inverse of `label`."""
        if self.radix is None:
            return self._label_index[n][label]
        flat, spans = _radix_split(self.radix[n])
        digits = [v for s, part in zip(spans, label, strict=True)
                  for v in (part if isinstance(s, slice) else (part,))]
        if len(digits) != len(flat) or not all(
                0 <= v < r for v, r in zip(digits, flat)):
            raise KeyError(label)
        return int(_radix_encode(digits, flat, ()))

    @cached_property
    def _label_index(self) -> list[dict]:
        """label -> simplex, per level, for sets with label lists."""
        return [{lab: i for i, lab in enumerate(lvl)} for lvl in self.labels]

    # Search tables: built on first use from the face and degeneracy arrays,
    # which __post_init__ makes read-only, so a cached table cannot go stale.
    # A search source only needs face_getters, face_users and face_scores,
    # which are built from the arrays directly so that it does not also hold
    # face_tuples.

    def _face_rows(self, n: int):
        """(d_0 z, ..., d_n z) as Python ints, for z = 0, 1, ... at level n >= 1."""
        return zip(*(arr.tolist() for arr in self.faces[n]))

    @cached_property
    def face_tuples(self) -> list[list[tuple[int, ...]]]:
        """face_tuples[n][z] = (d_0 z, ..., d_n z) as Python ints; () at level 0."""
        return [[()] * self.sizes[0]] + [list(self._face_rows(n))
                                         for n in range(1, self.N + 1)]

    @cached_property
    def face_getters(self) -> list[list]:
        """face_getters[n][z](vals) = tuple(vals[f] for f in face_tuples[n][z]),
        for n >= 1 (level 0 is empty)."""
        return [[]] + [[itemgetter(*faces) for faces in self._face_rows(n)]
                       for n in range(1, self.N + 1)]

    @cached_property
    def degen_lists(self) -> list[list[list[int]]]:
        """degen_lists[n][i][y] = s_i y as a Python int (empty at the top level)."""
        return [[arr.tolist() for arr in self.degens[n]] for n in range(self.N + 1)]

    @cached_property
    def face_index(self) -> list[dict[tuple[int, ...], list[int]]]:
        """face_index[n] maps a face tuple to the level-n simplices having it
        (level 0 is empty: vertices have no faces)."""
        out: list[dict[tuple[int, ...], list[int]]] = [dict()]
        for n in range(1, self.N + 1):
            d: dict[tuple[int, ...], list[int]] = {}
            for v, key in enumerate(self.face_tuples[n]):
                d.setdefault(key, []).append(v)
            out.append(d)
        return out

    @cached_property
    def degeneracy_table(self) -> list[dict[int, list[tuple[int, int]]]]:
        """degeneracy_expressions(self, n) for every level n; its keys are the
        degenerate simplices, so every other simplex is nondegenerate."""
        return [degeneracy_expressions(self, n) for n in range(self.N + 1)]

    def _face_counts(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, count, first) for the simplices w at level n >= 1: F[i] = d_i,
        count[i][w] is how often d_i w occurs among the faces of w, and
        first[i][w] says that no d_j w with j < i equals it."""
        F = np.stack(self.faces[n])
        same = F[:, None, :] == F[None, :, :]
        earlier = np.tri(n + 1, k=-1, dtype=bool)[:, :, None]
        return F, same.sum(axis=1), ~(same & earlier).any(axis=1)

    @cached_property
    def face_users(self) -> list[tuple[list, list]]:
        """(users, distinct), one pair per level n = 0..N-1, for the simplices
        w at level n+1: users[f] = (ws, cs), where ws lists the w having f
        as a face in ascending order and cs[i] counts how often f occurs
        among the faces of ws[i]; distinct[w] holds the faces of w without
        repeats, in order of first occurrence.  Every tuple refers to one
        shared int object per simplex."""
        ints = [list(range(s)) for s in self.sizes]
        out: list[tuple[list, list]] = []
        for n in range(self.N):
            F, count, first = self._face_counts(n + 1)
            below = ints[n].__getitem__
            distinct = list(zip(*(map(below, row) for row in F.tolist())))
            for w in np.flatnonzero(~first.all(axis=0)).tolist():
                distinct[w] = tuple(dict.fromkeys(distinct[w]))
            # one entry per (w, distinct face f) pair in w-major order; a
            # stable sort by f keeps the w of each f ascending
            fs, cs = F.T[first.T], count.T[first.T]
            ws = np.repeat(np.arange(self.sizes[n + 1]), first.sum(axis=0))
            order = np.argsort(fs, kind="stable")
            ws = list(map(ints[n + 1].__getitem__, ws[order].tolist()))
            cs = cs[order].tolist()
            at = np.searchsorted(fs[order], np.arange(self.sizes[n] + 1)).tolist()
            users = [(tuple(ws[a:b]), tuple(cs[a:b])) for a, b in zip(at, at[1:])]
            out.append((users, distinct))
        return out

    @cached_property
    def face_scores(self) -> tuple[list[list[int]], list[list[int]]]:
        """(score, maxmult), one entry per level n = 0..N-1: score[n][f]
        counts the w at level n+1 whose faces are all f (the search's
        tie-break score of f before any value is set), and maxmult[n][w] is
        the largest multiplicity of a face of w."""
        scores: list[list[int]] = []
        maxmults: list[list[int]] = []
        for n in range(self.N):
            F, count, _ = self._face_counts(n + 1)
            alike = count[0] == n + 2
            scores.append(np.bincount(F[0][alike], minlength=self.sizes[n]).tolist())
            maxmults.append(count.max(axis=0).tolist())
        return scores, maxmults

    def __repr__(self):
        return f"TruncatedSimplicialSet({self.name}, sizes={self.sizes})"


@dataclass
class TruncatedSimplicialGroup:
    """A truncated simplicial object in finite groups."""

    N: int
    groups: list[FiniteGroup]
    faces: list[list[np.ndarray]]
    degens: list[list[np.ndarray]]
    name: str = "G"

    @property
    def sizes(self) -> list[int]:
        return [g.order for g in self.groups]

    def identity(self, n: int) -> int:
        return self.groups[n].identity

    def sset(self) -> TruncatedSimplicialSet:
        """The underlying simplicial set, built once per group so that every
        search into it shares one set of search tables."""
        return self._sset

    @cached_property
    def _sset(self) -> TruncatedSimplicialSet:
        return TruncatedSimplicialSet(self.N, self.sizes, self.faces, self.degens,
                                      name=self.name)

    def face(self, n: int, i: int, x: int) -> int:
        return int(self.faces[n][i][x])

    def __repr__(self):
        return f"TruncatedSimplicialGroup({self.name}, orders={self.sizes})"


@dataclass
class SimplicialMap:
    """A level-wise map commuting with faces and degeneracies.

    A level may also be a stack, one row per map, of the same level of many
    maps between the same sets; `validate_map` then checks every row."""

    source: TruncatedSimplicialSet
    target: TruncatedSimplicialSet
    levels: list[np.ndarray]
    name: str = "f"

    def __post_init__(self):
        if len(self.levels) != self.source.N + 1:
            raise StructureError(f"{self.name}: wrong number of levels")
        for n, arr in enumerate(self.levels):
            arr = np.asarray(arr, dtype=np.int64)
            if arr.ndim > 2 or arr.shape[-1:] != (self.source.sizes[n],):
                raise StructureError(f"{self.name}: level {n} wrong length")
            if arr.size and (arr.min() < 0 or arr.max() >= self.target.sizes[n]):
                raise StructureError(f"{self.name}: level {n} out of target range")
            self.levels[n] = arr

    def __call__(self, n: int, x: int) -> int:
        return int(self.levels[n][x])

    def encoding(self) -> tuple:
        return tuple(tuple(int(v) for v in lvl) for lvl in self.levels)


# ---------------------------------------------------------------------------
# validation


def _check_group_levels(g: TruncatedSimplicialGroup, rep: Report) -> None:
    for n, grp in enumerate(g.groups):
        if grp.order <= 24:
            r = validate_group(grp)
            rep.add(f"level-{n}-group", r.ok, r.summary())
    for n in range(1, g.N + 1):
        src, tgt = g.groups[n], g.groups[n - 1]
        for i, arr in enumerate(g.faces[n]):
            ok = np.array_equal(arr[src.table], tgt.table[np.ix_(arr, arr)])
            rep.add(f"face-hom-d{i}-level{n}", ok)
    for n in range(g.N):
        src, tgt = g.groups[n], g.groups[n + 1]
        for i, arr in enumerate(g.degens[n]):
            ok = np.array_equal(arr[src.table], tgt.table[np.ix_(arr, arr)])
            rep.add(f"degen-hom-s{i}-level{n}", ok)


def validate_simplicial(obj) -> Report:
    """Exhaustive simplicial-identity check within the truncation window.

    Accepts a TruncatedSimplicialSet or TruncatedSimplicialGroup; for groups
    the structure maps are additionally checked to be homomorphisms (and
    small levels get full group-axiom checks).
    """
    rep = Report()
    N = obj.N
    faces, degens = obj.faces, obj.degens
    # d_i d_j = d_{j-1} d_i  (i < j)
    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = faces[n - 1][i][faces[n][j]]
                rhs = faces[n - 1][j - 1][faces[n][i]]
                rep.add(f"dd(i={i},j={j})@{n}", np.array_equal(lhs, rhs))
    # s_i s_j = s_{j+1} s_i  (i <= j)
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = degens[n + 1][i][degens[n][j]]
                rhs = degens[n + 1][j + 1][degens[n][i]]
                rep.add(f"ss(i={i},j={j})@{n}", np.array_equal(lhs, rhs))
    # mixed identities on level n elements, via s_j into level n+1
    for n in range(N):
        ident = np.arange(obj.sizes[n])
        for j in range(n + 1):
            for i in range(n + 2):
                got = faces[n + 1][i][degens[n][j]]
                if i == j or i == j + 1:
                    ok = np.array_equal(got, ident)
                elif i < j:
                    ok = n >= 1 and np.array_equal(got, degens[n - 1][j - 1][faces[n][i]])
                else:  # i > j + 1
                    ok = n >= 1 and np.array_equal(got, degens[n - 1][j][faces[n][i - 1]])
                rep.add(f"ds(i={i},j={j})@{n}", ok)
    if isinstance(obj, TruncatedSimplicialGroup):
        _check_group_levels(obj, rep)
    return rep


def validate_map(f: SimplicialMap) -> Report:
    """Every face and degeneracy law of f, with a pass flag per row
    (`Report.rows`) when f's levels are a stack of maps."""
    rep = Report()
    x, y = f.source, f.target
    if x.N != y.N:
        rep.add("same-truncation", False, f"{x.N} != {y.N}")
        return rep
    for n in range(1, x.N + 1):
        for i in range(n + 1):
            rep.add_rows(f"face-commutes-d{i}@{n}",
                         f.levels[n - 1][..., x.faces[n][i]]
                         == y.faces[n][i][f.levels[n]])
    for n in range(x.N):
        for i in range(n + 1):
            rep.add_rows(f"degen-commutes-s{i}@{n}",
                         f.levels[n + 1][..., x.degens[n][i]]
                         == y.degens[n][i][f.levels[n]])
    return rep


def nondegenerate(x, n: int) -> list[int]:
    """Indices of nondegenerate simplices at level n (all of level 0)."""
    if n == 0:
        return list(range(x.sizes[0]))
    hit = set()
    for arr in x.degens[n - 1]:
        hit.update(int(v) for v in arr)
    return [z for z in range(x.sizes[n]) if z not in hit]


def degeneracy_expressions(x, n: int) -> dict[int, list[tuple[int, int]]]:
    """For level n, map each degenerate simplex to all (i, y) with s_i y = it."""
    out: dict[int, list[tuple[int, int]]] = {}
    if n == 0:
        return out
    for i, arr in enumerate(x.degens[n - 1]):
        for y, z in enumerate(arr):
            out.setdefault(int(z), []).append((i, int(y)))
    return out


# ---------------------------------------------------------------------------
# mixed-radix levels


def _radix_digits(radix: list[int]) -> np.ndarray:
    """Digits of every index below prod(radix), one row per digit.

    Column x holds the digits of x with the first digit most significant,
    so the columns run in itertools.product order.
    """
    return np.indices(radix).reshape(len(radix), math.prod(radix))


def _radix_encode(digits: list, radix: list[int], size) -> np.ndarray:
    """Inverse of _radix_digits on `size` columns (or shape); a digit may be a scalar."""
    out = np.zeros(size, dtype=np.int64)
    for dig, r in zip(digits, radix, strict=True):
        out *= r
        out += dig
    return out


def _radix_split(radix: list) -> tuple[list[int], list]:
    """The digit radices of a level whose names nest as `radix` does, and
    where each entry of a name sits among those digits: an int of `radix`
    is one digit, a list of ints a slice of them."""
    flat: list[int] = []
    spans: list = []
    for part in radix:
        if isinstance(part, list):
            spans.append(slice(len(flat), len(flat) + len(part)))
            flat += part
        else:
            spans.append(len(flat))
            flat.append(part)
    return flat, spans


def _radix_labels(radix: list) -> list:
    """Every name of a level whose names nest as `radix` does, in index
    order, with lists for tuples: the JSON form of `label`."""
    flat, spans = _radix_split(radix)
    digits = _radix_digits(flat)
    cols = [digits[s].T.tolist() if isinstance(s, slice) else digits[s].tolist()
            for s in spans]
    # a level without digits has one simplex, named ()
    return list(map(list, zip(*cols))) if cols else [[]]


# ---------------------------------------------------------------------------
# standard builders


def constant_simplicial_group(g: FiniteGroup, N: int,
                              name: str | None = None) -> TruncatedSimplicialGroup:
    """The constant simplicial group: every level g, every map the identity."""
    ident = np.arange(g.order)
    faces = [[]] + [[ident.copy() for _ in range(n + 1)] for n in range(1, N + 1)]
    degens = [[ident.copy() for _ in range(n + 1)] for n in range(N)] + [[]]
    return TruncatedSimplicialGroup(N, [g] * (N + 1), faces, degens,
                                    name=name or f"const({g.name})")


def delta1(N: int) -> TruncatedSimplicialSet:
    """The 1-simplex; level n is the n+2 monotone 0/1 words, encoded by #1s."""
    sizes = [n + 2 for n in range(N + 1)]
    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        for i in range(n + 1):
            # word 0^{n+1-k} 1^k, delete position i (0 iff i < n+1-k)
            faces[n].append(np.array([k if i < n + 1 - k else k - 1
                                      for k in range(n + 2)], dtype=np.int64))
    for n in range(N):
        for i in range(n + 1):
            degens[n].append(np.array([k if i < n + 1 - k else k + 1
                                       for k in range(n + 2)], dtype=np.int64))
    labels = [["0" * (n + 1 - k) + "1" * k for k in range(n + 2)] for n in range(N + 1)]
    return TruncatedSimplicialSet(N, sizes, faces, degens, labels=labels, name="Delta1")


def circle(N: int) -> TruncatedSimplicialSet:
    """Minimal simplicial circle: the 1-simplex with both endpoints glued.

    Level n has n+1 simplices: 0 is the totally degenerate basepoint, and
    j in 1..n is the j-fold word 0^{n+1-j}1^j.
    """
    d = delta1(N)

    def collapse(n, k):
        return 0 if (k == 0 or k == n + 2 - 1) else k

    sizes = [n + 1 for n in range(N + 1)]
    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        for i in range(n + 1):
            col = []
            for j in range(n + 1):   # class rep: delta1 element j
                col.append(collapse(n - 1, int(d.faces[n][i][j])))
            faces[n].append(np.array(col, dtype=np.int64))
    for n in range(N):
        for i in range(n + 1):
            col = []
            for j in range(n + 1):
                col.append(collapse(n + 1, int(d.degens[n][i][j])))
            degens[n].append(np.array(col, dtype=np.int64))
    labels = [["*" if j == 0 else "0" * (n + 1 - j) + "1" * j for j in range(n + 1)]
              for n in range(N + 1)]
    return TruncatedSimplicialSet(N, sizes, faces, degens, labels=labels, name="S1")


def truncate_sset(x: TruncatedSimplicialSet, M: int) -> TruncatedSimplicialSet:
    """Forget levels above M (M <= x.N)."""
    if M > x.N or M < 0:
        raise StructureError(f"cannot truncate {x.name} at {M}")
    if M == x.N:
        return x
    return TruncatedSimplicialSet(
        M, list(x.sizes[:M + 1]),
        [list(x.faces[n]) for n in range(M + 1)],
        [list(x.degens[n]) for n in range(M)] + [[]],
        labels=None if x.labels is None else [x.labels[n] for n in range(M + 1)],
        name=x.name, wbar_of=x.wbar_of,
        radix=None if x.radix is None else x.radix[:M + 1])


def _guard_sizes(sizes: list[int], budget: Budget | None, what: str) -> None:
    """Raise BudgetError before a model is allocated when its largest level
    holds more simplices than the run's node limit (the default limit
    without a budget).  Only compares: nothing is charged to the budget."""
    limit = DEFAULT_BUDGET if budget is None else budget.limit
    n = max(range(len(sizes)), key=sizes.__getitem__)
    if sizes[n] > limit:
        raise BudgetError(f"{what} level {n} has {sizes[n]} simplices",
                          sizes[n], limit)


def sset_product(x: TruncatedSimplicialSet, y: TruncatedSimplicialSet,
                 name: str | None = None,
                 budget: Budget | None = None) -> TruncatedSimplicialSet:
    """Level-wise product; pair (a, b) at level n is encoded a * |Y_n| + b."""
    if x.N != y.N:
        raise StructureError("product needs equal truncations")
    N = x.N
    sizes = [x.sizes[n] * y.sizes[n] for n in range(N + 1)]
    name = name or f"{x.name}x{y.name}"
    _guard_sizes(sizes, budget, name)
    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        a = np.repeat(np.arange(x.sizes[n]), y.sizes[n])
        b = np.tile(np.arange(y.sizes[n]), x.sizes[n])
        for i in range(n + 1):
            faces[n].append(x.faces[n][i][a] * y.sizes[n - 1] + y.faces[n][i][b])
    for n in range(N):
        a = np.repeat(np.arange(x.sizes[n]), y.sizes[n])
        b = np.tile(np.arange(y.sizes[n]), x.sizes[n])
        for i in range(n + 1):
            degens[n].append(x.degens[n][i][a] * y.sizes[n + 1] + y.degens[n][i][b])
    return TruncatedSimplicialSet(N, sizes, faces, degens, name=name)


# ---------------------------------------------------------------------------
# covers and their nerves


@dataclass
class CoverComplex:
    """An abstract cover: chart count plus the family of overlapping subsets.

    The family is stored downward-closed and always contains the singletons.
    Its indexing, `simplices`, `position` and `faces`, is built once here.
    """

    charts: int
    sets: frozenset
    _faces: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @staticmethod
    def from_sets(charts: int, intersections,
                  budget: Budget | None = None) -> CoverComplex:
        """The cover whose family is the singletons and the declared
        intersections, closed under subsets.

        The closure lists 2^|s| - 1 sets for a declared set s.  Their
        count, with the singletons, is compared with the run's node limit
        (the default limit without a budget) as the sets are read, and a
        cover over it is a BudgetError before any subset is listed."""
        if charts < 1:
            raise StructureError("cover needs at least one chart")
        limit = DEFAULT_BUDGET if budget is None else budget.limit
        closure, declared = charts, set()
        for s in intersections:
            if closure > limit:
                break
            fs = frozenset(int(v) for v in s)
            if not fs:
                raise StructureError("empty intersection listed")
            if min(fs) < 0 or max(fs) >= charts:
                raise StructureError(f"intersection {sorted(fs)} out of chart range")
            if fs not in declared:
                declared.add(fs)
                closure += 2 ** len(fs) - 1
        if closure > limit:
            raise BudgetError(f"closure of a cover of {charts} charts",
                              closure, limit)
        closed = {frozenset([i]) for i in range(charts)}
        for fs in declared:
            for r in range(1, len(fs) + 1):
                for sub in itertools.combinations(sorted(fs), r):
                    closed.add(frozenset(sub))
        return CoverComplex(charts, frozenset(closed))

    def admissible(self, support) -> bool:
        return frozenset(support) in self.sets

    def simplices(self, k: int) -> list[tuple[int, ...]]:
        """Sorted (k+1)-subsets in the family: the k-simplices of the nerve."""
        return list(self.position(k))

    def position(self, k: int) -> dict[tuple[int, ...], int]:
        """Each k-simplex's index in simplices(k), in that order; a shared
        dict, which callers only read."""
        return self._position.get(k, {})

    @cached_property
    def _position(self) -> dict[int, dict[tuple[int, ...], int]]:
        # built on first use; nothing reassigns `sets` after construction
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for s in self.sets:
            by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
        return {k: {s: i for i, s in enumerate(sorted(v))}
                for k, v in by_dim.items()}

    def faces(self, k: int) -> np.ndarray:
        """A read-only int array, k >= 1, with one row per k-simplex: column
        i is the position of the simplex without its i-th chart (shape
        (0, k + 1) for an absent level).  A vertex's position is its chart."""
        if k not in self._faces:
            at = self.position(k - 1)
            self._faces[k] = np.array(
                [[at[s[:i] + s[i + 1:]] for i in range(k + 1)]
                 for s in self.position(k)], dtype=np.intp).reshape(-1, k + 1)
            self._faces[k].flags.writeable = False
        return self._faces[k]

    def to_json(self) -> dict:
        return {"charts": self.charts,
                "intersections": sorted([sorted(s) for s in self.sets if len(s) > 1])}

    @staticmethod
    def from_json(d: dict, budget: Budget | None = None) -> CoverComplex:
        if "charts" not in d or "intersections" not in d:
            raise StructureError("cover json needs 'charts' and 'intersections'")
        return CoverComplex.from_sets(int(d["charts"]), d["intersections"],
                                      budget)


# The presets hand `from_sets` their intersections one at a time, so a
# cover over the budget is refused before its intersections are listed.


def circle_cover(n: int = 3, budget: Budget | None = None) -> CoverComplex:
    """n arcs covering a circle: consecutive double overlaps, nothing higher."""
    if n < 3:
        raise StructureError("circle cover needs >= 3 charts")
    return CoverComplex.from_sets(n, ((i, (i + 1) % n) for i in range(n)),
                                  budget)


def ball_cover(k: int, budget: Budget | None = None) -> CoverComplex:
    """k charts with every intersection nonempty (a contractible nerve)."""
    return CoverComplex.from_sets(k, [range(k)], budget)


def sphere_cover(k: int, budget: Budget | None = None) -> CoverComplex:
    """k charts, all intersections except the total one: nerve is a (k-2)-sphere."""
    if k < 3:
        raise StructureError("sphere cover needs >= 3 charts")
    return CoverComplex.from_sets(
        k, itertools.combinations(range(k), k - 1), budget)


def _onto_all(m: int, s: int) -> int:
    """Ordered m-tuples of charts onto a support of s charts."""
    return sum((-1) ** j * math.comb(s, j) * (s - j) ** m for j in range(s + 1))


def _onto_sorted(m: int, s: int) -> int:
    """Non-decreasing m-tuples of charts onto a support of s charts."""
    return math.comb(m - 1, s - 1)


def _cover_nerve_sizes(cover: CoverComplex, N: int, onto=_onto_all) -> list[int]:
    """Level sizes of cover_nerve(cover, N) without listing its tuples:
    level n counts, for each admissible support S, the (n+1)-tuples onto S
    (`onto=_onto_sorted` counts those of ordered_cover_nerve)."""
    return [sum(onto(n + 1, len(s)) for s in cover.sets) for n in range(N + 1)]


def _tuple_nerve(cover: CoverComplex, N: int, budget: Budget | None,
                 tuples, onto, name: str) -> TruncatedSimplicialSet:
    """The nerve whose level n is the admissible tuples of `tuples(n + 1)`,
    in the order given, with faces deleting an entry and degeneracies
    repeating one; `onto` counts the tuples for the size guard."""
    _guard_sizes(_cover_nerve_sizes(cover, N, onto), budget, name)
    levels: list[list[tuple[int, ...]]] = []
    index: list[dict[tuple[int, ...], int]] = []
    for n in range(N + 1):
        lvl = [t for t in tuples(n + 1) if cover.admissible(t)]
        levels.append(lvl)
        index.append({t: i for i, t in enumerate(lvl)})
    sizes = [len(lvl) for lvl in levels]
    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        for i in range(n + 1):
            faces[n].append(np.array(
                [index[n - 1][t[:i] + t[i + 1:]] for t in levels[n]], dtype=np.int64))
    for n in range(N):
        for i in range(n + 1):
            degens[n].append(np.array(
                [index[n + 1][t[:i] + (t[i],) + t[i:]] for t in levels[n]],
                dtype=np.int64))
    return TruncatedSimplicialSet(N, sizes, faces, degens, labels=levels,
                                  name=name)


def cover_nerve(cover: CoverComplex, N: int,
                budget: Budget | None = None) -> TruncatedSimplicialSet:
    """Simplicial nerve of a cover: level n is the ordered (n+1)-tuples of
    charts (repeats allowed) whose support is an admissible intersection."""
    return _tuple_nerve(
        cover, N, budget,
        lambda m: itertools.product(range(cover.charts), repeat=m),
        _onto_all, f"nerve({cover.charts})")


def ordered_cover_nerve(cover: CoverComplex, N: int,
                        budget: Budget | None = None) -> TruncatedSimplicialSet:
    """The simplicial subset X<= of cover_nerve(cover, N) of non-decreasing
    tuples, listed in the same (lexicographic) order.

    Faces and degeneracies keep a tuple non-decreasing, so X<= is closed
    under them; it is the nerve complex of the cover ordered by chart
    index.  A map from it into the 2-nerve is fixed by the values of the
    increasing pairs and triples, which is how a cocycle's map is written
    down in closed form (gerbe.ordered_cocycle_maps)."""
    return _tuple_nerve(
        cover, N, budget,
        lambda m: itertools.combinations_with_replacement(range(cover.charts), m),
        _onto_sorted, f"ordered-nerve({cover.charts})")


# ---------------------------------------------------------------------------
# Moore complex and homotopy groups of a simplicial group


def _kernel_elements(g: TruncatedSimplicialGroup, n: int, which: list[int]) -> list[int]:
    """Elements of level n killed by every face in `which`."""
    out = []
    e = g.identity(n - 1)
    for x in range(g.sizes[n]):
        if all(g.face(n, i, x) == e for i in which):
            out.append(x)
    return out


def moore_subgroup(g: TruncatedSimplicialGroup, n: int) -> list[int]:
    if n == 0:
        return list(range(g.sizes[0]))
    return _kernel_elements(g, n, list(range(1, n + 1)))


def moore_homotopy(g: TruncatedSimplicialGroup, n: int) -> FiniteGroup:
    """The n-th homotopy group of the truncated simplicial group.

    pi_0 = G_0 / d_0(ker d_1); for n >= 1 (needs level n+1 in the window)
    pi_n = (Moore_n intersect ker d_0) / d_0(Moore_{n+1}).
    """
    if n < 0 or n + 1 > g.N:
        raise StructureError(f"homotopy degree {n} needs truncation >= {n + 1}")
    if n == 0:
        k1 = _kernel_elements(g, 1, [1])
        bdry = sorted(set(g.face(1, 0, x) for x in k1))
        if not is_normal(g.groups[0], bdry):
            raise StructureError("boundary image not normal at level 0")
        q, _ = quotient(g.groups[0], bdry, name="pi0")
        return q
    zn = _kernel_elements(g, n, list(range(0, n + 1)))
    bdry = sorted(set(g.face(n + 1, 0, x) for x in moore_subgroup(g, n + 1)))
    cyc, inc = subgroup(g.groups[n], zn, name="Zn")
    back = {int(v): i for i, v in enumerate(inc.mapping)}
    bdry_in = [back[b] for b in bdry]     # boundaries live inside the cycles
    if not is_normal(cyc, bdry_in):
        raise StructureError(f"boundary image not normal at level {n}")
    q, _ = quotient(cyc, bdry_in, name=f"pi{n}")
    return q


# ---------------------------------------------------------------------------
# the assignment search engine
#
# One engine covers enumerating simplicial maps, deciding homotopy, and (in
# the twist module) enumerating twistings: values are assigned level by
# level to nondegenerate simplices, degenerate and pinned simplices are
# forced (_Search._force), and every time the last face of a level-(n+1) simplex
# becomes known we confirm that a compatible image exists up there.  That
# early check is what keeps coherence-style constraints (whose natural home
# is one level up) from blowing up the search.


@dataclass(slots=True)
class AssignmentSpec:
    """Tables describing one concrete search problem.

    x:           the source simplicial set.
    lo:          lowest level carrying values.
    pool:        candidate list at level lo, which has no face constraint.
    keys[n]:     None at level lo; otherwise keys[n][z](below) is the face
                 key an image of z must have, read from the level-(n-1)
                 values `below`.
    index[n]:    face key -> candidate list (keys without candidates are
                 absent).
    faces_of[n]: faces_of[n][v] is the face key of target value v.
    pins[n]:     simplex -> the value it must take.
    degens[n]:   degens[n][i][v] is the value of s_i y for a level-n simplex
                 y of value v; read above level lo only, so a degenerate
                 simplex at level lo must be pinned.
    """

    x: TruncatedSimplicialSet
    lo: int
    pool: list
    keys: list
    index: list
    faces_of: list
    pins: list
    degens: list


class _Search:
    def __init__(self, spec: AssignmentSpec, budget: Budget):
        self.spec = spec
        self.budget = budget
        x = spec.x
        self.N = x.N
        # values[n][z] is None while z has no value
        self.values: list[list] = [[None] * s for s in x.sizes]
        # narrowed candidate domains of still-unassigned simplices, one dict
        # per level; every change is recorded on the trail
        self.domains: list[dict[int, list[int]]] = [dict() for _ in x.sizes]
        # faces of each level-(n+1) simplex still without a value
        self.pending = [[n + 2] * x.sizes[n + 1] for n in range(spec.lo, self.N)]
        # score[k][f]: the users w of f whose only face without a value is f
        # (pick_next's tie-break).  While pending[k][w] > maxmult[k][w], two
        # or more faces of w are open, so no score can change through w
        # and _set/_unset need not scan w's faces.
        scores, maxmult = x.face_scores
        self.score = [list(s) for s in scores[spec.lo:]]
        # what _set/_unset read for a value at level lo + k, in one bundle:
        # (users, pending, distinct faces, score, maxmult)
        self.level = [(users, pend, distinct_faces, score, top)
                      for (users, distinct_faces), pend, score, top in zip(
                          x.face_users[spec.lo:], self.pending, self.score,
                          maxmult[spec.lo:])]
        # the plan, per level from lo up: (n, forced, free in pick order).
        # The pick order is the free simplices in set iteration order,
        # which is not ascending; the engine has always followed it.
        self.plan: list[tuple[int, list[int], list[int]]] = []
        # forced_value[n][z], for each forced z at level n > lo: the value
        # of z that _feasible_up last accepted
        self.forced_value: list[dict[int, int | None]] = [dict() for _ in x.sizes]
        for n in range(spec.lo, self.N + 1):
            degenerate, pins = x.degeneracy_table[n], spec.pins[n]
            forced: list[int] = []
            free: list[int] = []
            for z in range(x.sizes[n]):
                if z in degenerate or z in pins:
                    forced.append(z)
                else:
                    free.append(z)
            self.plan.append((n, forced, list(set(free))))
            if n > spec.lo:
                self.forced_value[n] = dict.fromkeys(forced)
        # top[w], for each free w at the top level: its candidate list, which
        # _feasible_up stored when w's last face got its value (the pool
        # when the top level is lo, which has no face key)
        self.top: list = [spec.pool if spec.lo == self.N else None] * \
            x.sizes[self.N]

    def _force(self, n: int, z: int) -> int | None:
        """The value forced on z: its pin and, above level lo, s_i of the
        value of y for every expression z = s_i y.  None when two of these
        rules disagree, which is a dead end."""
        spec = self.spec
        v = spec.pins[n].get(z)
        if n > spec.lo:
            below, degens = self.values[n - 1], spec.degens[n - 1]
            for i, y in spec.x.degeneracy_table[n].get(z, ()):
                u = degens[i][below[y]]
                if v is None:
                    v = u
                elif u != v:
                    return None
        return v

    def _feasible_up(self, n1: int, w: int) -> bool:
        """All faces of w (level n1) now have values; can w get an image?
        A forced w keeps the value it was checked with (forced_value), a
        free w at the top level its candidate list (top)."""
        spec = self.spec
        key = spec.keys[n1][w](self.values[n1 - 1])
        known = self.forced_value[n1]
        if w in known:
            v = self._force(n1, w)
            if v is None or spec.faces_of[n1][v] != key:
                return False
            known[w] = v
            return True
        if n1 < self.N:
            return key in spec.index[n1]
        found = self.top[w] = spec.index[n1].get(key)
        return found is not None

    def _set(self, n: int, z: int, v: int, trail: list) -> bool:
        vals = self.values[n]
        vals[z] = v
        trail.append((n, z))
        if n >= self.N:
            return True
        users, pend, faces, score, top = self.level[n - self.spec.lo]
        # every count first, then the checks (which never read them), so a
        # failed check leaves exactly what _unset gives back
        checks = []
        ws, cs = users[z]
        for w, c in zip(ws, cs):
            p = pend[w] - c
            pend[w] = p
            if p == 0:
                score[z] -= 1
                checks.append((w, -1))
            elif p <= top[w]:
                u = -1  # the one face of w without a value, if only one
                for f in faces[w]:
                    if vals[f] is None:
                        if u >= 0:
                            u = -1
                            break
                        u = f
                if u >= 0:
                    score[u] += 1
                    if p == 1:
                        checks.append((w, u))
        for w, u in checks:
            if u < 0:
                if not self._feasible_up(n + 1, w):
                    return False
            elif not self._narrow(n, u, w, trail):
                return False
        return True

    def _narrow(self, n: int, m: int, w: int, trail: list) -> bool:
        """m is the only face of w (level n+1) without a value, and occurs
        once among w's faces: intersect m's candidate domain with the values
        that leave w a compatible image."""
        spec = self.spec
        vals = self.values[n]
        doms = self.domains[n]
        dom = doms.get(m)
        if dom is None:
            keys = spec.keys[n]
            dom = spec.pool if keys is None else \
                spec.index[n].get(keys[m](self.values[n - 1]), ())
        # each value goes through w's key callable, so twisted key schemes
        # (anything beyond the plain face-value tuple) stay correct
        key, index = spec.keys[n + 1][w], spec.index[n + 1]
        new = []
        for v in dom:
            vals[m] = v
            if key(vals) in index:
                new.append(v)
        vals[m] = None
        if len(new) != len(dom):
            trail.append((n, m, doms.get(m)))
            doms[m] = new
        return bool(new)

    def _unset(self, trail: list, mark: int) -> None:
        lo, N = self.spec.lo, self.N
        for _ in range(len(trail) - mark):
            e = trail.pop()
            if len(e) == 2:
                n, z = e
                vals = self.values[n]
                if n < N:
                    # the mirror of _set, read while z still has its value
                    users, pend, faces, score, top = self.level[n - lo]
                    ws, cs = users[z]
                    for w, c in zip(ws, cs):
                        p = pend[w]
                        pend[w] = p + c
                        if p == 0:
                            score[z] += 1
                        elif p <= top[w]:
                            u = -1
                            for f in faces[w]:
                                if vals[f] is None:
                                    if u >= 0:
                                        u = -1
                                        break
                                    u = f
                            if u >= 0:
                                score[u] -= 1
                vals[z] = None
            else:
                n, z, old = e
                if old is None:
                    del self.domains[n][z]
                else:
                    self.domains[n][z] = old

    def solutions(self, limit: int | None = None):
        """Yield complete value assignments (one list per level), depth-first.

        Explicit-stack backtracker (one frame per free simplex below the top
        level) so the search depth is not bounded by the interpreter
        recursion limit; the top level is filled by one flat loop.
        """
        spec = self.spec
        plan = self.plan
        top = len(plan) - 1
        trail: list = []
        emitted = 0

        def run_forced(li: int) -> bool:
            n, forced, _ = plan[li]
            if n > spec.lo:
                # every face of every z here got its value before this
                # level started, and the last of them ran _feasible_up on z,
                # which checked the forced value on these same values
                known = self.forced_value[n]
                for z in forced:
                    self.budget.spend()
                    if not self._set(n, z, known[z], trail):
                        return False
                return True
            keys = spec.keys[n]
            for z in forced:
                v = self._force(n, z)
                if v is None:
                    return False
                if keys is not None and \
                        spec.faces_of[n][v] != keys[z](self.values[n - 1]):
                    return False
                self.budget.spend()
                if not self._set(n, z, v, trail):
                    return False
            return True

        # per level li below the top, over the pick order plan[li][2]:
        # avail[li][i] marks an entry no frame holds, left[li] counts those
        # entries, and no available entry lies before cursor[li]; a frame
        # that pops hands its entry back and moves the cursor back to it if
        # it lies earlier
        avail = [bytearray(b"\x01" * len(order)) for _, _, order in plan[:top]]
        left = [len(order) for _, _, order in plan[:top]]
        cursor = [0] * top

        def pick_next(li: int) -> int:
            """Index in the pick order of the simplex the next frame takes.

            A lone available simplex is the first available entry.
            Otherwise the smallest narrowed domain wins (an empty one dies
            at once, a singleton propagates; the first such entry returns
            at once), then the highest score (the upper-level simplices
            whose last open face this is), then the smaller simplex.
            """
            n, _, order = plan[li]
            flags = avail[li]
            i = cursor[li] = flags.find(1, cursor[li])
            if left[li] == 1:
                return i
            score = self.score[n - spec.lo]
            doms = self.domains[n]
            best, best_key = i, None
            for j in itertools.compress(range(i, len(order)), flags[i:]):
                z = order[j]
                d = doms.get(z)
                size = len(d) if d is not None else 1 << 30
                if size <= 1:
                    return j
                key = (size, -score[z], z)
                if best_key is None or key < best_key:
                    best, best_key = j, key
            return best

        def candidates(n: int, z: int):
            dom = self.domains[n].get(z)
            if dom is not None:
                return iter(dom)
            keys = spec.keys[n]
            if keys is None:
                return iter(spec.pool)
            return iter(spec.index[n].get(keys[z](self.values[n - 1]), ()))

        # frame: [li, z, cand_iter, entry_mark, try_mark, i] where
        # entry_mark is the trail length when the frame (and, for the first
        # frame of a level, its forced block) was created, try_mark the
        # trail length before the currently-applied candidate, and i the
        # index of z in the level's pick order.
        stack: list[list] = []

        def open_frame(li: int, entry: int) -> None:
            i = pick_next(li)
            avail[li][i] = 0
            left[li] -= 1
            n, _, order = plan[li]
            z = order[i]
            stack.append([li, z, candidates(n, z), entry, len(trail), i])

        def descend(li: int) -> str:
            """Advance to the next decision point below the top level;
            "dead", "frame", or "top" once every level below it has its
            values."""
            while li < top:
                entry = len(trail)
                if not run_forced(li):
                    self._unset(trail, entry)
                    return "dead"
                if left[li]:
                    open_frame(li, entry)
                    return "frame"
                li += 1
            return "top"

        # The top level: nothing lies above it, so a value there only
        # records itself, no domain is narrowed there, and frames would
        # take its pick order strictly in sequence.  One flat depth-first loop makes the same tries, with an
        # iterator per position over the candidate list _feasible_up stored.
        _, _, top_order = plan[top]
        top_vals = self.values[self.N]
        its: list = [None] * len(top_order)

        def fill_top():
            """Give every free top-level simplex a value, once per way."""
            order, vals, lists = top_order, top_vals, self.top
            spend = self.budget.spend
            k, p = len(order), 0
            if k:
                its[0] = iter(lists[order[0]])
            while p >= 0:
                if p == k:
                    yield
                    p -= 1
                    continue
                z = order[p]
                v = next(its[p], None)
                if v is None:
                    vals[z] = None
                    p -= 1
                    continue
                spend()
                vals[z] = v
                p += 1
                if p < k:
                    its[p] = iter(lists[order[p]])

        state = descend(0)
        while True:
            if state == "top":
                mark = len(trail)
                if run_forced(top):
                    for _ in fill_top():
                        emitted += 1
                        yield [list(v) for v in self.values]
                        if limit is not None and emitted >= limit:
                            for z in top_order:
                                top_vals[z] = None
                            self._unset(trail, 0)
                            return
                self._unset(trail, mark)
            # a fresh frame or a dead end: advance the last frame to its
            # next viable candidate
            while stack:
                fr = stack[-1]
                self._unset(trail, fr[4])
                advanced = False
                for v in fr[2]:
                    self.budget.spend()
                    fr[4] = len(trail)
                    if self._set(plan[fr[0]][0], fr[1], v, trail):
                        advanced = True
                        break
                    self._unset(trail, fr[4])
                if not advanced:
                    self._unset(trail, fr[3])
                    li, i = fr[0], fr[5]
                    avail[li][i] = 1
                    left[li] += 1
                    if i < cursor[li]:
                        cursor[li] = i
                    stack.pop()
                    continue
                if left[fr[0]]:
                    open_frame(fr[0], len(trail))
                    continue
                state = descend(fr[0] + 1)
                if state != "dead":
                    break
            else:
                self._unset(trail, 0)
                return


def _map_spec(x, y, pins: list[dict] | None = None) -> AssignmentSpec:
    """AssignmentSpec for plain simplicial maps x -> y; pins[n], when given,
    maps level-n simplices of x to the values they must take."""
    return AssignmentSpec(x, 0, list(range(y.sizes[0])),
                          [None] + x.face_getters[1:], y.face_index,
                          y.face_tuples, pins or [{} for _ in range(x.N + 1)],
                          y.degen_lists)


def _found_maps(spec: AssignmentSpec, y: TruncatedSimplicialSet, budget: Budget,
                limit: int | None = None, name: str = "f"):
    """Yield each solution of `spec` as a map spec.x -> y that passed
    validate_map; a solution that fails it is a StructureError."""
    x = spec.x
    for values in _Search(spec, budget).solutions(limit):
        f = SimplicialMap(x, y, [np.array(v, dtype=np.int64) for v in values],
                          name=name)
        rep = validate_map(f)
        if not rep.ok:
            raise StructureError(f"search produced an invalid map {name}: "
                                 f"{rep.summary()}")
        yield f


def enumerate_simplicial_maps(x: TruncatedSimplicialSet, y: TruncatedSimplicialSet,
                              budget: Budget | None = None) -> list[SimplicialMap]:
    """All simplicial maps x -> y, sorted by their level-value encoding.

    Raises BudgetError when the search would exceed the budget; never
    silently truncates.
    """
    if x.N != y.N:
        raise StructureError("sources and targets need equal truncations")
    budget = budget or Budget(what="map enumeration")
    return sorted(_found_maps(_map_spec(x, y), y, budget),
                  key=lambda f: f.encoding())


# ---------------------------------------------------------------------------
# homotopy


def _const_vertex_index(d1: TruncatedSimplicialSet, n: int, vertex: int) -> int:
    """Index in Delta1 level n of the constant word at `vertex` (0 or 1)."""
    return 0 if vertex == 0 else n + 1


def simplicially_homotopic(f: SimplicialMap, g: SimplicialMap,
                           budget: Budget | None = None,
                           prism: TruncatedSimplicialSet | None = None,
                           d1: TruncatedSimplicialSet | None = None):
    """A prism map witnessing f ~ g (or None).

    The witness is a simplicial map X x Delta[1] -> Y restricting to f on
    the 0-end and to g on the 1-end.
    """
    x, y = f.source, f.target
    budget = budget or Budget(what="homotopy search")
    if d1 is None:
        d1 = delta1(x.N)
    if prism is None:
        prism = sset_product(x, d1, budget=budget)
    pins: list[dict] = []
    for n in range(x.N + 1):
        m = d1.sizes[n]
        e0 = _const_vertex_index(d1, n, 0)
        e1 = _const_vertex_index(d1, n, 1)
        lvl: dict[int, int] = {}
        for a, (fa, ga) in enumerate(zip(f.levels[n].tolist(), g.levels[n].tolist())):
            lvl[a * m + e0] = fa
            lvl[a * m + e1] = ga
        pins.append(lvl)
    return next(_found_maps(_map_spec(prism, y, pins), y, budget, limit=1,
                            name="homotopy"), None)


def partition(n: int, decide,
              probe: int | None = None) -> tuple[list[list[int]], dict]:
    """Partition items 0..n-1 under an equivalence relation; returns
    (classes, witnesses).

    `decide(rep, i, budget)` returns a witness that item i is equivalent
    to item rep, or None for a refutation, or raises BudgetError.  Since
    the relation is an equivalence, testing each item against one
    representative per class (its first member) is enough; witnesses are
    keyed (rep, i).

    With `probe` set, each item is first probed against the
    representatives under a fresh node cap of that size (`budget` is a
    `Budget(probe, what="homotopy probe")`): most witnesses are found
    cheaply and a probe that exhausts its search space below the cap is
    already a genuine refutation.  Only pairs whose probe was cut off by
    the cap are retried without it (`budget` None: the decider's own full
    budget), so the expensive full refutations happen once per new class,
    not once per item.  Without `probe` every call gets `budget` None and
    a BudgetError ends the partition.
    """
    classes: list[list[int]] = []
    witnesses: dict = {}
    for i in range(n):
        undecided: list[list[int]] = []
        for cls in classes:
            try:
                w = decide(cls[0], i, None if probe is None else
                           Budget(limit=probe, what="homotopy probe"))
            except BudgetError:
                if probe is None:
                    raise
                undecided.append(cls)
                continue
            if w is not None:
                break
        else:       # no probe found a witness: retry the cut ones in full
            for cls in undecided:
                w = decide(cls[0], i, None)
                if w is not None:
                    break
            else:   # every representative refuted
                classes.append([i])
                continue
        witnesses[(cls[0], i)] = w
        cls.append(i)
    return classes, witnesses


def homotopy_classes(maps: list[SimplicialMap],
                     budget: Budget | None = None,
                     probe: int = 20_000) -> tuple[list[list[int]], dict]:
    """Partition `maps` into homotopy classes by prism searches on
    X x Delta[1]; returns (classes, witnesses).

    Only classifying-space targets (marked `wbar_of`) are accepted: for
    those the homotopy relation is an equivalence, so `partition` may test
    against one representative per class.  Probes run under the node cap
    `probe`; a cut pair is retried under `budget`, which all full searches
    share (a fresh unnamed budget each when None).  The map-homotopy
    cross-check of `gerbe-classify` decides by gauge equivalence instead;
    this prism route serves the suite's direct checks and
    `classify_bundles`.
    """
    if not maps:
        return [], {}
    y = maps[0].target
    if y.wbar_of is None:
        raise StructureError(
            "homotopy classification needs a classifying-space target "
            "(built by build_wbar); the relation may fail to be transitive otherwise")
    x = maps[0].source
    d1 = delta1(x.N)
    prism = sset_product(x, d1, budget=budget)

    def decide(r: int, i: int, b: Budget | None):
        if b is None:
            b = budget or Budget(what="homotopy search")
        return simplicially_homotopic(maps[r], maps[i], budget=b,
                                      prism=prism, d1=d1)

    return partition(len(maps), decide, probe=probe)


# ---------------------------------------------------------------------------
# serialization


def sset_to_json(x: TruncatedSimplicialSet) -> dict:
    """The `--sset FILE` format that `load_sset` reads; no command writes
    it, and the suite's round trip through it is the only test of
    `load_sset`."""
    return {
        "N": x.N,
        "sizes": list(x.sizes),
        "faces": [[[int(v) for v in arr] for arr in x.faces[n]]
                  for n in range(1, x.N + 1)],
        "degeneracies": [[[int(v) for v in arr] for arr in x.degens[n]]
                         for n in range(x.N)],
        "name": x.name,
    }


def sset_from_json(d: dict) -> TruncatedSimplicialSet:
    for key in ("N", "sizes", "faces", "degeneracies"):
        if key not in d:
            raise StructureError(f"simplicial-set json missing {key!r}")
    N = int(d["N"])
    faces = [[]] + [[np.array(a, dtype=np.int64) for a in lvl] for lvl in d["faces"]]
    degens = [[np.array(a, dtype=np.int64) for a in lvl] for lvl in d["degeneracies"]]
    degens += [[]]
    x = TruncatedSimplicialSet(N, [int(s) for s in d["sizes"]], faces, degens,
                               name=str(d.get("name", "X")))
    rep = validate_simplicial(x)
    if not rep.ok:
        raise StructureError(f"loaded simplicial set invalid: {rep.summary()}")
    return x


def load_sset(path: str) -> TruncatedSimplicialSet:
    with open(path) as fh:
        return sset_from_json(json.load(fh))
