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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .simplicial import (AssignmentSpec, SimplicialMap,
                         TruncatedSimplicialGroup, TruncatedSimplicialSet,
                         _Search, enumerate_simplicial_maps, homotopy_classes,
                         truncate_sset, validate_simplicial)
from .util import Budget, Report, StructureError

__all__ = [
    "Twisting",
    "TwistedProduct",
    "validate_twisting",
    "build_twisted_product",
    "build_wbar",
    "enumerate_twistings",
    "twistings_equivalent",
    "witness_compose",
    "witness_invert",
    "pullback_twisting",
    "classify_bundles",
    "BundleClassification",
]


@dataclass
class Twisting:
    """tau: X_n -> G_{n-1} for 1 <= n <= X.N; values[0] is unused."""

    base: TruncatedSimplicialSet
    group: TruncatedSimplicialGroup
    values: list[np.ndarray]
    name: str = "tau"

    def __post_init__(self):
        if len(self.values) != self.base.N + 1:
            raise StructureError(f"{self.name}: need {self.base.N + 1} value levels")
        for n in range(1, self.base.N + 1):
            arr = np.asarray(self.values[n], dtype=np.int64)
            if arr.shape != (self.base.sizes[n],):
                raise StructureError(f"{self.name}: level {n} wrong length")
            if len(arr) and (arr.min() < 0 or arr.max() >= self.group.sizes[n - 1]):
                raise StructureError(f"{self.name}: level {n} out of group range")
            self.values[n] = arr

    def __call__(self, n: int, x: int) -> int:
        return int(self.values[n][x])

    def encoding(self) -> tuple:
        return tuple(tuple(int(v) for v in self.values[n])
                     for n in range(1, self.base.N + 1))


def validate_twisting(t: Twisting) -> Report:
    """The four twisting conditions, exhaustively within the truncation."""
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
        t1 = t.values[n - 1][x.faces[n][1]]
        t0 = t.values[n - 1][x.faces[n][0]]
        rhs = grp.table[t1, grp.inverses[t0]]
        lhs = g.faces[n - 1][0][t.values[n]]
        rep.add(f"twist-d0@{n}", np.array_equal(lhs, rhs))
    # (2) d_i tau(z) = tau(d_{i+1} z)                   (1 <= i <= n-1)
    for n in range(2, N + 1):
        for i in range(1, n):
            lhs = g.faces[n - 1][i][t.values[n]]
            rhs = t.values[n - 1][x.faces[n][i + 1]]
            rep.add(f"twist-d{i}@{n}", np.array_equal(lhs, rhs))
    # (3) s_i tau(z) = tau(s_{i+1} z)                   (0 <= i <= n-1)
    for n in range(1, N):
        for i in range(n):
            lhs = g.degens[n - 1][i][t.values[n]]
            rhs = t.values[n + 1][x.degens[n][i + 1]]
            rep.add(f"twist-s{i}@{n}", np.array_equal(lhs, rhs))
    # (4) tau(s_0 z) = e
    for n in range(N):
        got = t.values[n + 1][x.degens[n][0]]
        rep.add(f"twist-s0-e@{n}", bool(np.all(got == g.identity(n))))
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


def build_twisted_product(t: Twisting, check_action: bool | None = None) -> TwistedProduct:
    """Total space of the bundle glued by t, with its structure checks.

    The output report records: all simplicial identities of the total space,
    the fiber-coordinate identity d0(sigma(p)) = sigma(d0 p) * tau(x)^-1 and
    its untwisted companions, the pseudo-section behavior, and (on small
    instances, or when `check_action` forces it) compatibility of the
    level-wise left G-action with every face and degeneracy.
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

    if check_action is None:
        check_action = all(g.sizes[n] * sizes[n] <= 200_000 for n in range(N + 1))
    if check_action:
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
               name: str | None = None) -> tuple[TruncatedSimplicialSet, Twisting]:
    """Classifying space of g and its canonical twisting tau = first slot.

    Level 0 is a point; level n is the tuple set G_{n-1} x ... x G_0 (first
    component most significant in the index).  Needs g truncated at >= N-1.
    """
    if N is None:
        N = g.N
    if N - 1 > g.N:
        raise StructureError(f"W-bar at truncation {N} needs group level {N - 1}")
    name = name or f"Wbar({g.name})"
    tuples: list[list[tuple]] = [[()]]
    index: list[dict[tuple, int]] = [{(): 0}]
    for n in range(1, N + 1):
        lvl = list(itertools.product(*[range(g.sizes[n - 1 - k]) for k in range(n)]))
        tuples.append(lvl)
        index.append({t: i for i, t in enumerate(lvl)})
    sizes = [len(lvl) for lvl in tuples]

    def face(n: int, i: int, tup: tuple) -> tuple:
        if i == 0:
            return tup[1:]
        if i < n:
            head = tuple(g.face(n - 1 - k, i - 1 - k, tup[k]) for k in range(i - 1))
            mid = g.groups[n - 1 - i].mul(g.face(n - i, 0, tup[i - 1]), tup[i])
            return head + (mid,) + tup[i + 1:]
        return tuple(g.face(n - 1 - k, n - 1 - k, tup[k]) for k in range(n - 1))

    def degen(n: int, j: int, tup: tuple) -> tuple:
        if j == 0:
            return (g.identity(n),) + tup
        head = tuple(g.degen(n - 1 - k, j - 1 - k, tup[k]) for k in range(j))
        return head + (g.identity(n - j),) + tup[j:]

    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        for i in range(n + 1):
            faces[n].append(np.array([index[n - 1][face(n, i, t)] for t in tuples[n]],
                                     dtype=np.int64))
    for n in range(N):
        for j in range(n + 1):
            degens[n].append(np.array([index[n + 1][degen(n, j, t)] for t in tuples[n]],
                                      dtype=np.int64))
    w = TruncatedSimplicialSet(N, sizes, faces, degens, labels=tuples,
                               name=name, wbar_of=g.name)
    tau_vals = [np.zeros(0, dtype=np.int64)]
    for n in range(1, N + 1):
        tau_vals.append(np.array([t[0] for t in tuples[n]], dtype=np.int64))
    tau = Twisting(w, g, tau_vals, name=f"tau({name})")
    return w, tau


# ---------------------------------------------------------------------------
# enumeration of twistings


def _twisting_spec(x: TruncatedSimplicialSet, g: TruncatedSimplicialGroup) -> AssignmentSpec:
    gs = g.sset()
    g_index, g_faces, g_degens = gs.face_index, gs.face_tuples, gs.degen_lists
    x_faces = x.face_tuples
    degex = x.degeneracy_table
    pools = [None, list(range(g.sizes[0]))] + \
        [list(range(g.sizes[n - 1])) for n in range(2, x.N + 1)]

    def pool(n):
        return pools[n]

    def required(n, z, values):
        if n == 1:
            return None
        grp = g.groups[n - 2]
        below = values[n - 1]
        faces = x_faces[n][z]
        first = grp.mul(below[faces[1]], grp.inv(below[faces[0]]))
        return (first,) + tuple([below[f] for f in faces[2:]])

    def lookup(n, key):
        return g_index[n - 1].get(key, ())

    def image_faces(n, v):
        if n == 1:
            return None
        return g_faces[n - 1][v]

    def force(n, z, values):
        exprs = degex[n].get(z)
        if exprs is None:
            return None
        if values is None:
            return -1
        vals = set()
        for j, y in exprs:
            if j == 0:
                vals.add(g.identity(n - 1))
            else:
                vals.add(g_degens[n - 2][j - 1][values[n - 1][y]])
        return vals.pop() if len(vals) == 1 else -2

    return AssignmentSpec(x, 1, pool, required, lookup, image_faces, force)


def enumerate_twistings(x: TruncatedSimplicialSet, g: TruncatedSimplicialGroup,
                        budget: Budget | None = None) -> list[Twisting]:
    """All twistings on x with values in g, deterministically ordered."""
    if g.N < x.N - 1:
        raise StructureError("group truncation too small for this base")
    budget = budget or Budget(what="twisting enumeration")
    spec = _twisting_spec(x, g)
    out = []
    for values in _Search(spec, budget).solutions():
        vals = [np.zeros(0, dtype=np.int64)]
        for n in range(1, x.N + 1):
            vals.append(np.array([values[n][z] for z in range(x.sizes[n])],
                                 dtype=np.int64))
        t = Twisting(x, g, vals)
        rep = validate_twisting(t)
        if not rep.ok:
            raise StructureError(f"search produced invalid twisting: {rep.summary()}")
        out.append(t)
    out.sort(key=lambda t: t.encoding())
    return out


# ---------------------------------------------------------------------------
# equivalence


def _equivalence_spec(t1: Twisting, t2: Twisting) -> AssignmentSpec:
    """psi: X_n -> G_n with d0 psi(z) = tau1(z) psi(d0 z) tau2(z)^-1 and the
    untwisted conditions for the other faces and all degeneracies."""
    x, g = t1.base, t1.group
    gs = g.sset()
    g_index, g_faces, g_degens = gs.face_index, gs.face_tuples, gs.degen_lists
    x_faces = x.face_tuples
    degex = x.degeneracy_table
    tau1 = [None] + [t1.values[n].tolist() for n in range(1, x.N + 1)]
    tau2 = [None] + [t2.values[n].tolist() for n in range(1, x.N + 1)]
    pools = [list(range(g.sizes[n])) for n in range(x.N + 1)]

    def pool(n):
        return pools[n]

    def required(n, z, values):
        if n == 0:
            return None
        grp = g.groups[n - 1]
        below = values[n - 1]
        faces = x_faces[n][z]
        first = grp.mul(grp.mul(tau1[n][z], below[faces[0]]), grp.inv(tau2[n][z]))
        return (first,) + tuple([below[f] for f in faces[1:]])

    def lookup(n, key):
        return g_index[n].get(key, ())

    def image_faces(n, v):
        if n == 0:
            return None
        return g_faces[n][v]

    def force(n, z, values):
        exprs = degex[n].get(z)
        if exprs is None:
            return None
        if values is None:
            return -1
        vals = set(g_degens[n - 1][j][values[n - 1][y]] for j, y in exprs)
        return vals.pop() if len(vals) == 1 else -2

    return AssignmentSpec(x, 0, pool, required, lookup, image_faces, force)


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
    x, g = t1.base, t1.group
    spec = _equivalence_spec(t1, t2)
    for values in _Search(spec, budget).solutions(limit=1):
        arrs = [np.array([values[n][z] for z in range(x.sizes[n])], dtype=np.int64)
                for n in range(x.N + 1)]
        psi = SimplicialMap(x, g.sset(), arrs, name="psi")
        _check_witness(t1, t2, psi)
        return psi
    return None


def _check_witness(t1: Twisting, t2: Twisting, psi: SimplicialMap) -> None:
    x, g = t1.base, t1.group
    for n in range(1, x.N + 1):
        grp = g.groups[n - 1]
        lhs = grp.table[g.faces[n][0][psi.levels[n]], t2.values[n]]
        rhs = grp.table[t1.values[n], psi.levels[n - 1][x.faces[n][0]]]
        if not np.array_equal(lhs, rhs):
            raise StructureError(f"equivalence witness fails twisted d0 at level {n}")
        for i in range(1, n + 1):
            if not np.array_equal(g.faces[n][i][psi.levels[n]],
                                  psi.levels[n - 1][x.faces[n][i]]):
                raise StructureError(f"equivalence witness fails d{i} at level {n}")
    for n in range(x.N):
        for i in range(n + 1):
            if not np.array_equal(g.degens[n][i][psi.levels[n]],
                                  psi.levels[n + 1][x.degens[n][i]]):
                raise StructureError(f"equivalence witness fails s{i} at level {n}")


def witness_compose(t1: Twisting, psi12: SimplicialMap,
                    psi23: SimplicialMap) -> SimplicialMap:
    """Pointwise product witness for transitivity: (t1->t2) then (t2->t3)."""
    g = t1.group
    arrs = [g.groups[n].table[psi12.levels[n], psi23.levels[n]]
            for n in range(t1.base.N + 1)]
    return SimplicialMap(psi12.source, psi12.target, arrs, name="psi-composed")


def witness_invert(t1: Twisting, psi: SimplicialMap) -> SimplicialMap:
    """Pointwise inverse witness for symmetry."""
    g = t1.group
    arrs = [g.groups[n].inverses[psi.levels[n]] for n in range(t1.base.N + 1)]
    return SimplicialMap(psi.source, psi.target, arrs, name="psi-inverse")


def pullback_twisting(t: Twisting, f: SimplicialMap, name: str | None = None) -> Twisting:
    """Compose a twisting with a simplicial map into its base."""
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


def _partition_twistings(twistings: list[Twisting],
                         budget_limit: int) -> tuple[list[list[int]], dict]:
    classes: list[list[int]] = []
    witnesses: dict = {}
    for i, t in enumerate(twistings):
        placed = False
        for cls in classes:
            psi = twistings_equivalent(twistings[cls[0]], t,
                                       budget=Budget(budget_limit, what="psi search"))
            if psi is not None:
                witnesses[(cls[0], i)] = psi
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    return classes, witnesses


def classify_bundles(x: TruncatedSimplicialSet, g: TruncatedSimplicialGroup,
                     budget: Budget | None = None) -> BundleClassification:
    """Count bundles over x with structure group g both ways and compare.

    Route A enumerates twistings and partitions them by gauge equivalence;
    route B enumerates simplicial maps into the classifying space and
    partitions them by simplicial homotopy.  The two partitions are matched
    through the twistings induced by maps (pullback of the canonical
    twisting); any mismatch is flagged in the report, never papered over.
    """
    budget = budget or Budget(what="bundle classification")
    rep = Report()
    twistings = enumerate_twistings(x, g, budget=budget)
    t_classes, _ = _partition_twistings(twistings, budget.limit)

    wbar, tau_univ = build_wbar(g, N=x.N)
    maps = enumerate_simplicial_maps(x, wbar, budget=budget)
    m_classes, _ = homotopy_classes(maps, budget=budget)
    rep.add("counts-equal", len(t_classes) == len(m_classes),
            f"{len(t_classes)} twisting classes vs {len(m_classes)} homotopy classes")

    enc_to_tclass = {}
    for ci, cls in enumerate(t_classes):
        for i in cls:
            enc_to_tclass[twistings[i].encoding()] = ci

    def class_of(t: Twisting) -> int:
        ci = enc_to_tclass.get(t.encoding())
        if ci is not None:
            return ci
        for cj, cls in enumerate(t_classes):
            psi = twistings_equivalent(twistings[cls[0]], t,
                                       budget=Budget(budget.limit, what="psi search"))
            if psi is not None:
                return cj
        return -1

    matching = []
    ok = True
    for ci, cls in enumerate(m_classes):
        hits = sorted(set(class_of(pullback_twisting(tau_univ, maps[i])) for i in cls))
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
