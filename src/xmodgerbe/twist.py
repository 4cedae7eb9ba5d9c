"""Twistings, twisted Cartesian products, and the bar-construction W-bar.

A twisting on a base X with values in a simplicial group G is a
degree-lowering function tau: X_n -> G_{n-1} satisfying the four standard
compatibility conditions; it is exactly the gluing datum of a principal
simplicial bundle, and `build_twisted_product` realizes that bundle as a
simplicial set G x_tau X with the 0-face twisted on the fiber coordinate.

`build_wbar` produces the classifying space of a simplicial group together
with its canonical twisting; `classify_bundles` cross-checks the two
descriptions of bundles over a base (twisting-equivalence classes versus
homotopy classes of maps into W-bar) and reports loudly when they disagree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .simplicial import (AssignmentSpec, SimplicialMap,
                         TruncatedSimplicialGroup, TruncatedSimplicialSet,
                         _guard_sizes, _radix_digits, _radix_encode,
                         _Search, enumerate_simplicial_maps, homotopy_classes,
                         partition, truncate_sset, validate_simplicial)
from .util import Budget, Report, StructureError

__all__ = [
    "Twisting",
    "TwistedProduct",
    "validate_twisting",
    "build_twisted_product",
    "build_wbar",
    "enumerate_twistings",
    "twistings_equivalent",
    "pullback_twisting",
    "classify_bundles",
    "BundleClassification",
]


@dataclass
class Twisting:
    """tau: X_n -> G_{n-1} for 1 <= n <= X.N; values[0] is unused.

    A level may also be a stack, one row per twisting, of the same level of
    many twistings on one base; `validate_twisting` then checks every row."""

    base: TruncatedSimplicialSet
    group: TruncatedSimplicialGroup
    values: list[np.ndarray]
    name: str = "tau"

    def __post_init__(self):
        if len(self.values) != self.base.N + 1:
            raise StructureError(f"{self.name}: need {self.base.N + 1} value levels")
        for n in range(1, self.base.N + 1):
            arr = np.asarray(self.values[n], dtype=np.int64)
            if arr.ndim > 2 or arr.shape[-1:] != (self.base.sizes[n],):
                raise StructureError(f"{self.name}: level {n} wrong length")
            if arr.size and (arr.min() < 0 or arr.max() >= self.group.sizes[n - 1]):
                raise StructureError(f"{self.name}: level {n} out of group range")
            self.values[n] = arr

    def __call__(self, n: int, x: int) -> int:
        return int(self.values[n][x])

    def encoding(self) -> tuple:
        return tuple(tuple(int(v) for v in self.values[n])
                     for n in range(1, self.base.N + 1))


def validate_twisting(t: Twisting) -> Report:
    """The four twisting conditions, exhaustively within the truncation,
    with a pass flag per row (`Report.rows`) when t's values are a stack."""
    rep = Report()
    x, g = t.base, t.group
    N = x.N
    if g.N < N - 1:
        rep.add("group-truncation", False,
                f"group truncated at {g.N}, need {N - 1}")
        return rep
    # (1) d0 tau(z) = tau(d1 z) * tau(d0 z)^-1          (z at level >= 2)
    for n in range(2, N + 1):
        grp = g.groups[n - 2]
        t1 = t.values[n - 1][..., x.faces[n][1]]
        t0 = t.values[n - 1][..., x.faces[n][0]]
        rhs = grp.table[t1, grp.inverses[t0]]
        lhs = g.faces[n - 1][0][t.values[n]]
        rep.add_rows(f"twist-d0@{n}", lhs == rhs)
    # (2) d_i tau(z) = tau(d_{i+1} z)                   (1 <= i <= n-1)
    for n in range(2, N + 1):
        for i in range(1, n):
            lhs = g.faces[n - 1][i][t.values[n]]
            rhs = t.values[n - 1][..., x.faces[n][i + 1]]
            rep.add_rows(f"twist-d{i}@{n}", lhs == rhs)
    # (3) s_i tau(z) = tau(s_{i+1} z)                   (0 <= i <= n-1)
    for n in range(1, N):
        for i in range(n):
            lhs = g.degens[n - 1][i][t.values[n]]
            rhs = t.values[n + 1][..., x.degens[n][i + 1]]
            rep.add_rows(f"twist-s{i}@{n}", lhs == rhs)
    # (4) tau(s_0 z) = e
    for n in range(N):
        got = t.values[n + 1][..., x.degens[n][0]]
        rep.add_rows(f"twist-s0-e@{n}", got == g.identity(n))
    return rep


# ---------------------------------------------------------------------------
# twisted Cartesian product


@dataclass
class TwistedProduct:
    """G x_tau X: pairs (g, x) encoded g * |X_n| + x, with twisted d_0."""

    total: TruncatedSimplicialSet
    twisting: Twisting
    section: list[np.ndarray]      # X_n -> P_n,  x |-> (e, x)
    fiber_coord: list[np.ndarray]  # P_n -> G_n,  (g, x) |-> g
    projection: SimplicialMap      # P -> X
    report: Report = field(default_factory=Report)


def build_twisted_product(t: Twisting) -> TwistedProduct:
    """Total space of the bundle glued by t, with its structure checks.

    The output report records: all simplicial identities of the total space,
    the fiber-coordinate identity d0(sigma(p)) = sigma(d0 p) * tau(x)^-1 and
    its untwisted companions, the pseudo-section behavior, and (on
    instances with at most 200,000 action pairs per level) compatibility of
    the level-wise left G-action with every face and degeneracy.
    """
    rep = validate_twisting(t)
    if not rep.ok:
        raise StructureError(f"invalid twisting: {rep.summary()}")
    x, g = t.base, t.group
    N = min(x.N, g.N)
    xt = truncate_sset(x, N)
    sizes = [g.sizes[n] * xt.sizes[n] for n in range(N + 1)]
    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        xs = xt.sizes[n]
        gi = np.repeat(np.arange(g.sizes[n]), xs)
        xi = np.tile(np.arange(xs), g.sizes[n])
        grp = g.groups[n - 1]
        g0 = grp.table[g.faces[n][0][gi], t.values[n][xi]]
        faces[n].append(g0 * xt.sizes[n - 1] + xt.faces[n][0][xi])
        for i in range(1, n + 1):
            faces[n].append(g.faces[n][i][gi] * xt.sizes[n - 1] + xt.faces[n][i][xi])
    for n in range(N):
        xs = xt.sizes[n]
        gi = np.repeat(np.arange(g.sizes[n]), xs)
        xi = np.tile(np.arange(xs), g.sizes[n])
        for i in range(n + 1):
            degens[n].append(g.degens[n][i][gi] * xt.sizes[n + 1] + xt.degens[n][i][xi])
    total = TruncatedSimplicialSet(N, sizes, faces, degens,
                                   name=f"{g.name}x_tau{x.name}")
    srep = validate_simplicial(total)
    for name, okflag in srep.checks:
        rep.add("tp-" + name, okflag)

    section = [np.arange(xt.sizes[n]) + g.identity(n) * xt.sizes[n]
               for n in range(N + 1)]
    fiber = [np.repeat(np.arange(g.sizes[n]), xt.sizes[n]) for n in range(N + 1)]
    proj_levels = [np.tile(np.arange(xt.sizes[n]), g.sizes[n]) for n in range(N + 1)]
    projection = SimplicialMap(total, xt, proj_levels, name="proj")

    # fiber-coordinate identities: twisted in d_0, plain elsewhere
    for n in range(1, N + 1):
        grp = g.groups[n - 1]
        xi = proj_levels[n]
        lhs = g.faces[n][0][fiber[n]]
        rhs = grp.table[fiber[n - 1][faces[n][0]], grp.inverses[t.values[n][xi]]]
        rep.add(f"sigma-d0@{n}", np.array_equal(lhs, rhs))
        for i in range(1, n + 1):
            rep.add(f"sigma-d{i}@{n}",
                    np.array_equal(g.faces[n][i][fiber[n]], fiber[n - 1][faces[n][i]]))
    for n in range(N):
        for i in range(n + 1):
            rep.add(f"sigma-s{i}@{n}",
                    np.array_equal(g.degens[n][i][fiber[n]], fiber[n + 1][degens[n][i]]))
    # pseudo-section: commutes with everything except d_0, whose defect is tau
    for n in range(1, N + 1):
        for i in range(1, n + 1):
            rep.add(f"section-d{i}@{n}",
                    np.array_equal(faces[n][i][section[n]], section[n - 1][xt.faces[n][i]]))
        defect = fiber[n - 1][faces[n][0][section[n]]]
        rep.add(f"section-d0-defect@{n}", np.array_equal(defect, t.values[n]))
    for n in range(N):
        for i in range(n + 1):
            rep.add(f"section-s{i}@{n}",
                    np.array_equal(degens[n][i][section[n]], section[n + 1][xt.degens[n][i]]))

    if all(g.sizes[n] * sizes[n] <= 200_000 for n in range(N + 1)):
        # left principal action a.(g, x) = (a g, x) commutes with all maps
        for n in range(1, N + 1):
            grp = g.groups[n]
            a = np.repeat(np.arange(g.sizes[n]), sizes[n])
            p = np.tile(np.arange(sizes[n]), g.sizes[n])
            gi, xi = p // xt.sizes[n], p % xt.sizes[n]
            ap = grp.table[a, gi] * xt.sizes[n] + xi
            for i in range(n + 1):
                lhs = faces[n][i][ap]
                fa = g.faces[n][i][a]
                fp = faces[n][i][p]
                rhs = g.groups[n - 1].table[fa, fp // xt.sizes[n - 1]] \
                    * xt.sizes[n - 1] + fp % xt.sizes[n - 1]
                rep.add(f"action-d{i}@{n}", np.array_equal(lhs, rhs))
    return TwistedProduct(total, t, section, fiber, projection, rep)


# ---------------------------------------------------------------------------
# W-bar


def build_wbar(g: TruncatedSimplicialGroup, N: int | None = None,
               name: str | None = None, budget: Budget | None = None
               ) -> tuple[TruncatedSimplicialSet, Twisting]:
    """Classifying space of g and its canonical twisting tau = first slot.

    Level 0 is a point; level n is the tuple set G_{n-1} x ... x G_0 (first
    component most significant in the index).  Needs g truncated at >= N-1.

    Index encoding: a level-n simplex (t_0, ..., t_{n-1}), t_k in G_{n-1-k},
    is the mixed-radix number with digits t_k and radices |G_{n-1-k}|, the
    position of the tuple in itertools.product order; `label` decodes the
    tuple from the index.  A whole level is built at once: every face and
    degeneracy component is a column gather through the faces,
    degeneracies and tables of g, re-encoded below or above.
    """
    if N is None:
        N = g.N
    if N - 1 > g.N:
        raise StructureError(f"W-bar at truncation {N} needs group level {N - 1}")
    name = name or f"Wbar({g.name})"
    radix = [[g.sizes[n - 1 - k] for k in range(n)] for n in range(N + 1)]
    sizes = [math.prod(r) for r in radix]
    _guard_sizes(sizes, budget, name)

    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    tau_vals = [np.zeros(0, dtype=np.int64)]
    for n in range(N + 1):
        t = list(_radix_digits(radix[n]))
        size = sizes[n]
        if n >= 1:
            tau_vals.append(t[0].copy())
            faces[n].append(_radix_encode(t[1:], radix[n - 1], size))
            for i in range(1, n):
                head = [g.faces[n - 1 - k][i - 1 - k][t[k]] for k in range(i - 1)]
                mid = g.groups[n - 1 - i].table[g.faces[n - i][0][t[i - 1]], t[i]]
                faces[n].append(_radix_encode(head + [mid] + t[i + 1:],
                                              radix[n - 1], size))
            last = [g.faces[n - 1 - k][n - 1 - k][t[k]] for k in range(n - 1)]
            faces[n].append(_radix_encode(last, radix[n - 1], size))
        if n < N:
            degens[n].append(_radix_encode([g.identity(n)] + t, radix[n + 1], size))
            for j in range(1, n + 1):
                head = [g.degens[n - 1 - k][j - 1 - k][t[k]] for k in range(j)]
                degens[n].append(_radix_encode(head + [g.identity(n - j)] + t[j:],
                                               radix[n + 1], size))
    w = TruncatedSimplicialSet(N, sizes, faces, degens, name=name,
                               wbar_of=g.name, radix=radix)
    tau = Twisting(w, g, tau_vals, name=f"tau({name})")
    return w, tau


# ---------------------------------------------------------------------------
# enumeration of twistings


def _twisted_key(mul, inv, f0, f1, rest, below):
    """Face key of a twisting value on z with faces (f0, f1, *rest):
    (tau(d1 z) tau(d0 z)^-1, tau(d2 z), ...)."""
    return (mul[below[f1]][inv[below[f0]]],) + tuple([below[f] for f in rest])


def _twisting_spec(x: TruncatedSimplicialSet, g: TruncatedSimplicialGroup) -> AssignmentSpec:
    gs = g.sset()
    keys = [None, None]
    for n in range(2, x.N + 1):
        grp = g.groups[n - 2]
        mul, inv = grp.table.tolist(), grp.inverses.tolist()
        keys.append([partial(_twisted_key, mul, inv, f[0], f[1], f[2:])
                     for f in x.face_tuples[n]])
    # tau on level n takes values in G_{n-1}: the group set's tables, shifted
    index = [None] + gs.face_index[:x.N]
    faces_of = [None] + gs.face_tuples[:x.N]
    # tau(s_0 y) = e: pinned at level 1, which has no values below it, and
    # the constant-e table above; tau(s_j y) = s_{j-1} tau(y) for j >= 1
    pins = [{} for _ in range(x.N + 1)]
    pins[1] = dict.fromkeys(x.degeneracy_table[1], g.identity(0))
    degens = [None] + [[[g.identity(n)] * g.sizes[n - 1]] + gs.degen_lists[n - 1]
                       for n in range(1, x.N)]
    return AssignmentSpec(x, 1, list(range(g.sizes[0])), keys, index, faces_of,
                          pins, degens)


def enumerate_twistings(x: TruncatedSimplicialSet, g: TruncatedSimplicialGroup,
                        budget: Budget | None = None) -> list[Twisting]:
    """All twistings on x with values in g, deterministically ordered."""
    if g.N < x.N - 1:
        raise StructureError("group truncation too small for this base")
    budget = budget or Budget(what="twisting enumeration")
    spec = _twisting_spec(x, g)
    out = []
    for values in _Search(spec, budget).solutions():
        t = Twisting(x, g, [np.zeros(0, dtype=np.int64)]
                     + [np.array(v, dtype=np.int64) for v in values[1:]])
        rep = validate_twisting(t)
        if not rep.ok:
            raise StructureError(f"search produced invalid twisting: {rep.summary()}")
        out.append(t)
    out.sort(key=lambda t: t.encoding())
    return out


# ---------------------------------------------------------------------------
# equivalence


def _gauge_key(mul, t1, t2inv, f0, rest, below):
    """Face key of a gauge value on z with faces (f0, *rest):
    (tau1(z) psi(d0 z) tau2(z)^-1, psi(d1 z), ...)."""
    return (mul[mul[t1][below[f0]]][t2inv],) + tuple([below[f] for f in rest])


def _equivalence_spec(t1: Twisting, t2: Twisting) -> AssignmentSpec:
    """psi: X_n -> G_n with d0 psi(z) = tau1(z) psi(d0 z) tau2(z)^-1 and the
    untwisted conditions for the other faces and all degeneracies."""
    x, g = t1.base, t1.group
    gs = g.sset()
    keys = [None]
    for n in range(1, x.N + 1):
        grp = g.groups[n - 1]
        mul, inv = grp.table.tolist(), grp.inverses.tolist()
        keys.append([partial(_gauge_key, mul, a, inv[b], f[0], f[1:])
                     for f, a, b in zip(x.face_tuples[n], t1.values[n].tolist(),
                                        t2.values[n].tolist())])
    return AssignmentSpec(x, 0, list(range(g.sizes[0])), keys, gs.face_index,
                          gs.face_tuples, [{} for _ in range(x.N + 1)],
                          gs.degen_lists)


def twistings_equivalent(t1: Twisting, t2: Twisting,
                         budget: Budget | None = None) -> SimplicialMap | None:
    """A fiber-wise gauge psi carrying t1's bundle onto t2's, or None.

    The witness is returned as a level-wise map into the group's underlying
    simplicial set; it commutes with all structure maps except d_0, where it
    intertwines the two twistings.
    """
    if t1.base is not t2.base and t1.base.sizes != t2.base.sizes:
        raise StructureError("twistings live on different bases")
    if t1.group is not t2.group and t1.group.sizes != t2.group.sizes:
        raise StructureError("twistings have different structure groups")
    budget = budget or Budget(what="twisting equivalence search")
    spec = _equivalence_spec(t1, t2)
    for values in _Search(spec, budget).solutions(limit=1):
        psi = SimplicialMap(t1.base, t1.group.sset(),
                            [np.array(v, dtype=np.int64) for v in values], name="psi")
        rep = _check_witness(t1, t2, psi)
        if not rep.ok:
            raise StructureError(f"equivalence witness fails: {rep.summary()}")
        return psi
    return None


def _check_witness(t1: Twisting, t2: Twisting, psi: SimplicialMap) -> Report:
    """Whether psi is a gauge from t1 to t2: d0 psi(z) tau2(z) = tau1(z)
    psi(d0 z), and psi commutes with the other faces and every degeneracy.
    Stacks of twistings and gauges are checked row by row, with a pass flag
    per row in `Report.rows`."""
    rep = Report()
    x, g = t1.base, t1.group
    for n in range(1, x.N + 1):
        grp = g.groups[n - 1]
        lhs = grp.table[g.faces[n][0][psi.levels[n]], t2.values[n]]
        rhs = grp.table[t1.values[n], psi.levels[n - 1][..., x.faces[n][0]]]
        rep.add_rows(f"twisted-d0@{n}", lhs == rhs)
        for i in range(1, n + 1):
            rep.add_rows(f"d{i}@{n}", g.faces[n][i][psi.levels[n]]
                         == psi.levels[n - 1][..., x.faces[n][i]])
    for n in range(x.N):
        for i in range(n + 1):
            rep.add_rows(f"s{i}@{n}", g.degens[n][i][psi.levels[n]]
                         == psi.levels[n + 1][..., x.degens[n][i]])
    return rep


def pullback_twisting(t: Twisting, f: SimplicialMap, name: str | None = None) -> Twisting:
    """Compose a twisting with a simplicial map into its base (with a stack
    of maps, the stack of their twistings)."""
    if f.target is not t.base and f.target.sizes != t.base.sizes:
        raise StructureError("map target does not match twisting base")
    vals = [np.zeros(0, dtype=np.int64)]
    for n in range(1, f.source.N + 1):
        vals.append(t.values[n][f.levels[n]])
    tt = Twisting(f.source, t.group, vals, name=name or f"{t.name}*")
    rep = validate_twisting(tt)
    if not rep.ok:
        raise StructureError(f"pullback twisting invalid: {rep.summary()}")
    return tt


# ---------------------------------------------------------------------------
# the two classifications, cross-checked


@dataclass
class BundleClassification:
    twistings: list[Twisting]
    twisting_classes: list[list[int]]
    maps: list[SimplicialMap]
    map_classes: list[list[int]]
    matching: list[int]          # map-class index -> twisting-class index
    bijection_ok: bool
    report: Report


def classify_bundles(x: TruncatedSimplicialSet, g: TruncatedSimplicialGroup,
                     budget: Budget | None = None) -> BundleClassification:
    """Count bundles over x with structure group g both ways and compare.

    Route A enumerates twistings and partitions them by gauge equivalence;
    route B enumerates simplicial maps into the classifying space and
    partitions them by simplicial homotopy.  The two partitions are matched
    through the twistings induced by maps (pullback of the canonical
    twisting); any mismatch is flagged in the report, never papered over.

    Both routes go through `partition`.  Route A partitions the enumerated
    twistings followed by every induced twisting the enumeration lacks; as
    the partition is made item by item, the enumerated ones get the same
    classes either way, and an induced twisting that lands in no class
    founded by an enumerated one matches no twisting class.  Each gauge
    search gets a fresh budget of the run's limit.
    """
    budget = budget or Budget(what="bundle classification")
    rep = Report()
    twistings = enumerate_twistings(x, g, budget=budget)

    wbar, tau_univ = build_wbar(g, N=x.N, budget=budget)
    maps = enumerate_simplicial_maps(x, wbar, budget=budget)
    m_classes, _ = homotopy_classes(maps, budget=budget)

    index = {t.encoding(): i for i, t in enumerate(twistings)}
    items = list(twistings)
    induced = []
    for f in maps:
        t = pullback_twisting(tau_univ, f)
        i = index.setdefault(t.encoding(), len(items))
        if i == len(items):
            items.append(t)
        induced.append(i)

    def decide(r: int, i: int, _b: Budget | None) -> SimplicialMap | None:
        return twistings_equivalent(items[r], items[i],
                                    budget=Budget(budget.limit, what="psi search"))

    classes, _ = partition(len(items), decide)
    t_classes = [cls for cls in classes if cls[0] < len(twistings)]
    rep.add("counts-equal", len(t_classes) == len(m_classes),
            f"{len(t_classes)} twisting classes vs {len(m_classes)} homotopy classes")
    class_of = [-1] * len(items)
    for ci, cls in enumerate(t_classes):
        for i in cls:
            class_of[i] = ci
    t_classes = [[i for i in cls if i < len(twistings)] for cls in t_classes]

    matching = []
    ok = True
    for ci, cls in enumerate(m_classes):
        hits = sorted(set(class_of[induced[i]] for i in cls))
        if len(hits) != 1 or hits[0] < 0:
            rep.add(f"map-class-{ci}-consistent", False,
                    f"induced twisting classes {hits}")
            ok = False
            matching.append(-1)
        else:
            matching.append(hits[0])
    onto = sorted(m for m in matching if m >= 0)
    bij = ok and onto == list(range(len(t_classes))) and len(matching) == len(t_classes)
    rep.add("bijection", bij, f"matching {matching}")
    return BundleClassification(twistings, t_classes, maps, m_classes,
                                matching, bij, rep)
