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
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .fingroup import FiniteGroup, is_normal, quotient, subgroup, validate_group
from .util import Budget, BudgetError, Report, StructureError

__all__ = [
    "TruncatedSimplicialSet",
    "TruncatedSimplicialGroup",
    "SimplicialMap",
    "CoverComplex",
    "validate_simplicial",
    "validate_map",
    "constant_simplicial_group",
    "cover_nerve",
    "delta1",
    "circle",
    "sset_product",
    "truncate_sset",
    "nondegenerate",
    "moore_homotopy",
    "enumerate_simplicial_maps",
    "homotopy_classes",
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

    `labels[n][x]` is an optional printable name for simplex x (tuples for
    cover nerves, strings elsewhere); `wbar_of` marks classifying spaces
    produced by the bar-construction, which some operations require.
    """

    N: int
    sizes: list[int]
    faces: list[list[np.ndarray]]       # faces[n][i], 1 <= n <= N, 0 <= i <= n
    degens: list[list[np.ndarray]]      # degens[n][i], 0 <= n < N, 0 <= i <= n
    labels: list[list] | None = None
    name: str = "X"
    wbar_of: str | None = None

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
        if self.labels is not None and self.labels[n] is not None:
            return self.labels[n][x]
        return x

    # Search tables: built on first use from the face and degeneracy arrays,
    # which __post_init__ makes read-only, so a cached table cannot go stale.
    # A search source only needs face_getters and face_slots, which are built
    # from _face_rows directly so that it does not also hold face_tuples.

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

    @cached_property
    def face_slots(self) -> tuple[list, list]:
        """(face_mult, users), one entry per level n = 0..N-1: for w at level
        n+1, face_mult[n][w] counts how often each level-n simplex occurs
        among the faces of w, and users[n][f] lists the w having f as a face.
        """
        face_mult: list[list[dict[int, int]]] = []
        users_by_level: list[dict[int, list[int]]] = []
        for n in range(self.N):
            mult: list[dict[int, int]] = []
            users: dict[int, list[int]] = {}
            for w, faces in enumerate(self._face_rows(n + 1)):
                d: dict[int, int] = {}
                for f in faces:
                    d[f] = d.get(f, 0) + 1
                mult.append(d)
                for f in d:
                    users.setdefault(f, []).append(w)
            face_mult.append(mult)
            users_by_level.append(users)
        return face_mult, users_by_level

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

    def degen(self, n: int, i: int, x: int) -> int:
        return int(self.degens[n][i][x])

    def __repr__(self):
        return f"TruncatedSimplicialGroup({self.name}, orders={self.sizes})"


@dataclass
class SimplicialMap:
    """A level-wise map commuting with faces and degeneracies."""

    source: TruncatedSimplicialSet
    target: TruncatedSimplicialSet
    levels: list[np.ndarray]
    name: str = "f"

    def __post_init__(self):
        if len(self.levels) != self.source.N + 1:
            raise StructureError(f"{self.name}: wrong number of levels")
        for n, arr in enumerate(self.levels):
            arr = np.asarray(arr, dtype=np.int64)
            if arr.shape != (self.source.sizes[n],):
                raise StructureError(f"{self.name}: level {n} wrong length")
            if len(arr) and (arr.min() < 0 or arr.max() >= self.target.sizes[n]):
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
    rep = Report()
    x, y = f.source, f.target
    if x.N != y.N:
        rep.add("same-truncation", False, f"{x.N} != {y.N}")
        return rep
    for n in range(1, x.N + 1):
        for i in range(n + 1):
            ok = np.array_equal(f.levels[n - 1][x.faces[n][i]],
                                y.faces[n][i][f.levels[n]])
            rep.add(f"face-commutes-d{i}@{n}", ok)
    for n in range(x.N):
        for i in range(n + 1):
            ok = np.array_equal(f.levels[n + 1][x.degens[n][i]],
                                y.degens[n][i][f.levels[n]])
            rep.add(f"degen-commutes-s{i}@{n}", ok)
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
        name=x.name, wbar_of=x.wbar_of)


def sset_product(x: TruncatedSimplicialSet, y: TruncatedSimplicialSet,
                 name: str | None = None) -> TruncatedSimplicialSet:
    """Level-wise product; pair (a, b) at level n is encoded a * |Y_n| + b."""
    if x.N != y.N:
        raise StructureError("product needs equal truncations")
    N = x.N
    sizes = [x.sizes[n] * y.sizes[n] for n in range(N + 1)]
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
    return TruncatedSimplicialSet(N, sizes, faces, degens,
                                  name=name or f"{x.name}x{y.name}")


# ---------------------------------------------------------------------------
# covers and their nerves


@dataclass
class CoverComplex:
    """An abstract cover: chart count plus the family of overlapping subsets.

    The family is stored downward-closed and always contains the singletons;
    `closure_added` records whether closing the input family added sets.
    """

    charts: int
    sets: frozenset
    closure_added: bool = False

    @staticmethod
    def from_sets(charts: int, intersections) -> CoverComplex:
        if charts < 1:
            raise StructureError("cover needs at least one chart")
        fam = {frozenset([i]) for i in range(charts)}
        declared = set()
        for s in intersections:
            fs = frozenset(int(v) for v in s)
            if not fs:
                raise StructureError("empty intersection listed")
            if min(fs) < 0 or max(fs) >= charts:
                raise StructureError(f"intersection {sorted(fs)} out of chart range")
            declared.add(fs)
        closed = set(fam)
        for fs in declared:
            for r in range(1, len(fs) + 1):
                for sub in itertools.combinations(sorted(fs), r):
                    closed.add(frozenset(sub))
        added = bool(closed - (declared | fam))
        return CoverComplex(charts, frozenset(closed), closure_added=added)

    def admissible(self, support) -> bool:
        return frozenset(support) in self.sets

    def simplices(self, k: int) -> list[tuple[int, ...]]:
        """Sorted (k+1)-subsets in the family: the k-simplices of the nerve."""
        return list(self._simplices.get(k, ()))

    @cached_property
    def _simplices(self) -> dict[int, list[tuple[int, ...]]]:
        # built on first use; nothing reassigns `sets` after construction
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for s in self.sets:
            by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
        return {k: sorted(v) for k, v in by_dim.items()}

    def max_dim(self) -> int:
        return max(len(s) for s in self.sets) - 1

    def to_json(self) -> dict:
        return {"charts": self.charts,
                "intersections": sorted([sorted(s) for s in self.sets if len(s) > 1])}

    @staticmethod
    def from_json(d: dict) -> CoverComplex:
        if "charts" not in d or "intersections" not in d:
            raise StructureError("cover json needs 'charts' and 'intersections'")
        return CoverComplex.from_sets(int(d["charts"]), d["intersections"])


def circle_cover(n: int = 3) -> CoverComplex:
    """n arcs covering a circle: consecutive double overlaps, nothing higher."""
    if n < 3:
        raise StructureError("circle cover needs >= 3 charts")
    return CoverComplex.from_sets(n, [[i, (i + 1) % n] for i in range(n)])


def ball_cover(k: int) -> CoverComplex:
    """k charts with every intersection nonempty (a contractible nerve)."""
    return CoverComplex.from_sets(k, [list(range(k))])


def sphere_cover(k: int) -> CoverComplex:
    """k charts, all intersections except the total one: nerve is a (k-2)-sphere."""
    if k < 3:
        raise StructureError("sphere cover needs >= 3 charts")
    return CoverComplex.from_sets(
        k, [list(c) for c in itertools.combinations(range(k), k - 1)])


def cover_nerve(cover: CoverComplex, N: int) -> TruncatedSimplicialSet:
    """Simplicial nerve of a cover: level n is the ordered (n+1)-tuples of
    charts (repeats allowed) whose support is an admissible intersection."""
    tuples: list[list[tuple[int, ...]]] = []
    index: list[dict[tuple[int, ...], int]] = []
    for n in range(N + 1):
        lvl = [t for t in itertools.product(range(cover.charts), repeat=n + 1)
               if cover.admissible(t)]
        tuples.append(lvl)
        index.append({t: i for i, t in enumerate(lvl)})
    sizes = [len(lvl) for lvl in tuples]
    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        for i in range(n + 1):
            faces[n].append(np.array(
                [index[n - 1][t[:i] + t[i + 1:]] for t in tuples[n]], dtype=np.int64))
    for n in range(N):
        for i in range(n + 1):
            degens[n].append(np.array(
                [index[n + 1][t[:i] + (t[i],) + t[i:]] for t in tuples[n]],
                dtype=np.int64))
    return TruncatedSimplicialSet(N, sizes, faces, degens, labels=tuples,
                                  name=f"nerve({cover.charts})")


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
# level to nondegenerate simplices, degenerate simplices are forced through
# the degeneracy rule, and every time the last face of a level-(n+1) simplex
# becomes known we confirm that a compatible image exists up there.  That
# early check is what keeps coherence-style constraints (whose natural home
# is one level up) from blowing up the search.


class AssignmentSpec:
    """Callback bundle describing one concrete search problem.

    lo:                lowest level carrying values.
    pool(n):           candidate list when no face constraint applies.
    required(n, z):    the face-tuple an image of z must have (uses values
                       of lower-level simplices; None = unconstrained).
    lookup(n, key):    candidate list for a face-tuple key.
    image_faces(n, v): actual face-tuple of target value v.
    force(n, z, values): forced value for z, or None when z is free.  With
                       values=None acts as a probe (-1 = forced).  Returns
                       -2 when distinct forcing rules for z disagree, which
                       the engine treats as a dead end.
    """

    def __init__(self, x, lo, pool, required, lookup, image_faces, force):
        self.x = x
        self.lo = lo
        self.pool = pool
        self.required = required
        self.lookup = lookup
        self.image_faces = image_faces
        self.force = force


class _Search:
    def __init__(self, spec: AssignmentSpec, budget: Budget, distinct: bool = False):
        self.spec = spec
        self.budget = budget
        self.distinct = distinct
        x = spec.x
        self.N = x.N
        self.values: list[dict[int, int]] = [dict() for _ in range(self.N + 1)]
        self.used: list[set[int]] = [set() for _ in range(self.N + 1)]
        # face slots: for w at level n+1, which level-n elements must be known
        face_mult, users = x.face_slots
        self.face_mult = face_mult[spec.lo:]
        self.users = users[spec.lo:]
        # faces of each level-(n+1) simplex still without a value
        self.pending = [[n + 2] * x.sizes[n + 1] for n in range(spec.lo, self.N)]
        # narrowed candidate domains for still-unassigned simplices, keyed
        # (level, simplex); every change is recorded on the trail
        self.domains: dict[tuple[int, int], list[int]] = {}

    def _feasible_up(self, n1: int, w: int) -> bool:
        """All faces of w (level n1) now have values; can w get an image?"""
        spec = self.spec
        req = spec.required(n1, w, self.values)
        forced = spec.force(n1, w, self.values)
        if forced is not None:
            return forced >= 0 and spec.image_faces(n1, forced) == req
        return bool(spec.lookup(n1, req))

    def _set(self, n: int, z: int, v: int, trail: list) -> bool:
        if self.distinct and v in self.used[n]:
            return False
        self.values[n][z] = v
        self.used[n].add(v)
        trail.append((n, z))
        if n >= self.N:
            return True
        k = n - self.spec.lo
        pend = self.pending[k]
        mult = self.face_mult[k]
        for w in self.users[k].get(z, ()):
            p = pend[w] - mult[w][z]
            pend[w] = p
            if p == 0:
                if not self._feasible_up(n + 1, w):
                    return False
            elif p == 1:
                if not self._narrow(n, k, w, trail):
                    return False
        return True

    def _narrow(self, n: int, k: int, w: int, trail: list) -> bool:
        """One face of w (level n+1) is still open: intersect that face's
        candidate domain with the values that leave w a compatible image."""
        vals = self.values[n]
        m = -1
        for f in self.face_mult[k][w]:
            if f not in vals:
                m = f
                break
        if m < 0:
            return True
        spec = self.spec
        key = (n, m)
        dom = self.domains.get(key)
        if dom is None:
            req = spec.required(n, m, self.values)
            dom = spec.pool(n) if req is None else spec.lookup(n, req)
        # probe each value through spec.required so twisted key schemes
        # (anything beyond the plain face-value tuple) stay correct
        lookup, required, values = spec.lookup, spec.required, self.values
        new = []
        for v in dom:
            vals[m] = v
            if lookup(n + 1, required(n + 1, w, values)):
                new.append(v)
        del vals[m]
        if len(new) != len(dom):
            trail.append((n, m, self.domains.get(key)))
            self.domains[key] = new
        return bool(new)

    def _unset(self, trail: list, mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            if len(e) == 2:
                n, z = e
                self.used[n].discard(self.values[n][z])
                del self.values[n][z]
                if n < self.N:
                    k = n - self.spec.lo
                    pend, mult = self.pending[k], self.face_mult[k]
                    for w in self.users[k].get(z, ()):
                        pend[w] += mult[w][z]
            else:
                n, z, old = e
                if old is None:
                    del self.domains[(n, z)]
                else:
                    self.domains[(n, z)] = old

    def solutions(self, limit: int | None = None):
        """Yield complete value assignments (list of dicts), depth-first.

        Explicit-stack backtracker (one frame per free simplex) so the
        search depth is not bounded by the interpreter recursion limit.
        """
        spec = self.spec
        x = spec.x

        plan: list[tuple[int, list[int], list[int]]] = []
        for n in range(spec.lo, self.N + 1):
            degenerate = x.degeneracy_table[n]
            forced_first: list[int] = []
            free: list[int] = []
            for z in range(x.sizes[n]):
                if z not in degenerate and spec.force(n, z, None) is None:
                    free.append(z)
                else:
                    forced_first.append(z)
            plan.append((n, forced_first, free))

        trail: list = []
        emitted = 0

        def run_forced(li: int) -> bool:
            n, forced_first, _ = plan[li]
            for z in forced_first:
                v = spec.force(n, z, self.values)
                if v is None or v < 0:
                    return False
                req = spec.required(n, z, self.values)
                if req is not None and spec.image_faces(n, v) != req:
                    return False
                self.budget.spend()
                if not self._set(n, z, v, trail):
                    return False
            return True

        def pick_next(n: int, remaining: set[int]) -> int:
            # smallest narrowed domain first (empty dies at once, singleton
            # propagates); ties: most upper-level face-tuples completed
            if n >= self.N or len(remaining) == 1:
                return next(iter(remaining))
            k = n - spec.lo
            pend, mult, users = self.pending[k], self.face_mult[k], self.users[k]
            doms = self.domains
            best, best_key = -1, None
            for z in remaining:
                d = doms.get((n, z))
                size = len(d) if d is not None else 1 << 30
                if size <= 1:
                    return z
                score = sum(1 for w in users.get(z, ()) if pend[w] == mult[w][z])
                cur = (size, -score, z)
                if best_key is None or cur < best_key:
                    best, best_key = z, cur
            return best

        def candidates(n: int, z: int):
            dom = self.domains.get((n, z))
            if dom is not None:
                return iter(dom)
            req = spec.required(n, z, self.values)
            return iter(spec.pool(n) if req is None else spec.lookup(n, req))

        # one shared pool of unassigned free simplices per level; frames
        # borrow one element and hand it back when they pop, so memory
        # stays linear in the number of simplices
        rem: list[set[int]] = [set(fr) for _, _, fr in plan]

        # frame: [li, z, cand_iter, entry_mark, try_mark] where entry_mark
        # is the trail length when the frame (and, for the first frame of a
        # level, its forced block) was created, and try_mark the trail
        # length before the currently-applied candidate.
        stack: list[list] = []

        def open_frame(li: int, entry: int) -> None:
            z = pick_next(plan[li][0], rem[li])
            rem[li].discard(z)
            stack.append([li, z, candidates(plan[li][0], z),
                          entry, len(trail)])

        def descend(li: int) -> str:
            """Advance to the next decision point; "sol", "dead" or "frame"."""
            while li < len(plan):
                entry = len(trail)
                if not run_forced(li):
                    self._unset(trail, entry)
                    return "dead"
                if rem[li]:
                    open_frame(li, entry)
                    return "frame"
                li += 1
            return "sol"

        state = descend(0)
        while True:
            if state == "sol":
                emitted += 1
                yield [dict(v) for v in self.values]
                if limit is not None and emitted >= limit:
                    self._unset(trail, 0)
                    return
                state = "dead"
            if state == "frame":
                state = "dead"  # fresh frame: fall through to try a candidate
            # backtrack: advance the top frame to its next viable candidate
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
                    rem[fr[0]].add(fr[1])
                    stack.pop()
                    continue
                if rem[fr[0]]:
                    open_frame(fr[0], len(trail))
                    continue
                state = descend(fr[0] + 1)
                if state != "dead":
                    break
            else:
                self._unset(trail, 0)
                return


def _map_spec(x, y, boundary: dict | None = None) -> AssignmentSpec:
    """AssignmentSpec for plain simplicial maps x -> y (optional forcing)."""
    x_faces = x.face_getters
    degex = x.degeneracy_table
    y_faces = y.face_tuples
    y_index = y.face_index
    y_degens = y.degen_lists
    pools = [list(range(y.sizes[n])) for n in range(y.N + 1)]
    bounds: list[dict[int, int]] = [dict() for _ in range(x.N + 1)]
    for (n, z), v in (boundary or {}).items():
        bounds[n][z] = int(v)

    def pool(n):
        return pools[n]

    def required(n, z, values):
        if n == 0:
            return None
        return x_faces[n][z](values[n - 1])

    def lookup(n, key):
        return y_index[n].get(key, ())

    def image_faces(n, v):
        if n == 0:
            return None
        return y_faces[n][v]

    def force(n, z, values):
        exprs = degex[n].get(z)
        v = bounds[n].get(z)
        if exprs is None and v is None:
            return None
        if values is None:
            return -1  # probe: "is forced", value unknown yet
        if exprs is not None:
            below = values[n - 1]
            degens = y_degens[n - 1]
            for i, w in exprs:
                u = degens[i][below[w]]
                if v is None:
                    v = u
                elif u != v:
                    return -2  # two forcing rules disagree
        return v

    return AssignmentSpec(x, 0, pool, required, lookup, image_faces, force)


def enumerate_simplicial_maps(x: TruncatedSimplicialSet, y: TruncatedSimplicialSet,
                              budget: Budget | None = None) -> list[SimplicialMap]:
    """All simplicial maps x -> y, sorted by their level-value encoding.

    Raises BudgetError when the search would exceed the budget; never
    silently truncates.
    """
    if x.N != y.N:
        raise StructureError("sources and targets need equal truncations")
    budget = budget or Budget(what="map enumeration")
    spec = _map_spec(x, y)
    out = []
    for values in _Search(spec, budget).solutions():
        arrs = [np.array([values[n][z] for z in range(x.sizes[n])], dtype=np.int64)
                for n in range(x.N + 1)]
        f = SimplicialMap(x, y, arrs)
        rep = validate_map(f)
        if rep.ok:
            out.append(f)
    out.sort(key=lambda f: f.encoding())
    return out


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
        prism = sset_product(x, d1)
    boundary: dict[tuple[int, int], int] = {}
    for n in range(x.N + 1):
        m = d1.sizes[n]
        e0 = _const_vertex_index(d1, n, 0)
        e1 = _const_vertex_index(d1, n, 1)
        for a, (fa, ga) in enumerate(zip(f.levels[n].tolist(), g.levels[n].tolist())):
            boundary[(n, a * m + e0)] = fa
            boundary[(n, a * m + e1)] = ga
    spec = _map_spec(prism, y, boundary=boundary)
    for values in _Search(spec, budget).solutions(limit=1):
        arrs = [np.array([values[n][z] for z in range(prism.sizes[n])], dtype=np.int64)
                for n in range(prism.N + 1)]
        h = SimplicialMap(prism, y, arrs, name="homotopy")
        rep = validate_map(h)
        if not rep.ok:
            raise StructureError(f"search produced an invalid prism map: {rep.summary()}")
        return h
    return None


def homotopy_classes(maps: list[SimplicialMap],
                     budget: Budget | None = None,
                     probe: int = 20_000) -> tuple[list[list[int]], dict]:
    """Partition `maps` into homotopy classes; returns (classes, witnesses).

    Only classifying-space targets (marked `wbar_of`) are accepted: for
    those the homotopy relation is an equivalence, so testing against one
    representative per class is enough.

    Each map is first probed against the representatives under a small
    node cap: most homotopies are found cheaply and a probe that exhausts
    its search space below the cap is already a genuine refutation.  Only
    pairs whose probe was cut off by the cap are retried without it, so
    the expensive full refutations happen once per new class, not once per
    map.
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
    prism = sset_product(x, d1)
    classes: list[list[int]] = []
    witnesses: dict[tuple[int, int], SimplicialMap] = {}
    for i, f in enumerate(maps):
        placed = False
        undecided: list[list[int]] = []
        for cls in classes:
            rep = maps[cls[0]]
            try:
                h = simplicially_homotopic(
                    rep, f, budget=Budget(limit=probe, what="homotopy probe"),
                    prism=prism, d1=d1)
            except BudgetError:
                undecided.append(cls)
                continue
            if h is not None:
                witnesses[(cls[0], i)] = h
                cls.append(i)
                placed = True
                break
        if not placed:
            for cls in undecided:
                rep = maps[cls[0]]
                b = budget or Budget(what="homotopy search")
                h = simplicially_homotopic(rep, f, budget=b, prism=prism, d1=d1)
                if h is not None:
                    witnesses[(cls[0], i)] = h
                    cls.append(i)
                    placed = True
                    break
        if not placed:
            classes.append([i])
    return classes, witnesses


# ---------------------------------------------------------------------------
# serialization


def sset_to_json(x: TruncatedSimplicialSet) -> dict:
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
