"""Nonabelian Čech cocycles for crossed-module gerbes on finite covers.

A gerbe cocycle on a cover assigns d_ab in D to admissible increasing chart
pairs and h_abc in H to admissible increasing triples, subject to

    d_ab d_bc = alpha(h_abc) d_ac          (edge condition, triples)
    h_abc h_acd = (d_ab . h_bcd) h_abd     (tetrahedron condition, 4-tuples)

where . is the crossed-module action.  Stable equivalence is generated by
witnesses (r_a, s_ab); `classify_gerbes` computes the orbit partition by
breadth-first search over single-chart / single-pair generator witnesses
with canonical-form hashing.  `abelian_oracle` independently computes Čech
cohomology of the cover with finite abelian coefficients through integer
Smith normal form, `LiftPlan` lifts cocycles along alpha with an H^3
obstruction cross-check, and `ordered_cocycle_maps` writes each cocycle
down as a simplicial map from the ordered cover nerve into the classifying
space, for the homotopy-theoretic count of the same classification
(`cocycle_to_simplicial_map` extends one to the full cover nerve by search).
"""
from __future__ import annotations

import itertools
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
    "StableWitness",
    "check_cocycle",
    "identity_witness",
    "apply_witness",
    "enumerate_cocycles",
    "GerbeClass",
    "GerbeClassification",
    "classify_gerbes",
    "CohomologyResult",
    "abelian_oracle",
    "LiftResult",
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


@dataclass
class StableWitness:
    """(r_a, s_ab) data acting on cocycles; any assignment is allowed."""

    r: dict[int, int]
    s: dict[tuple[int, int], int]


def identity_witness(cover: CoverComplex, xm: CrossedModule) -> StableWitness:
    return StableWitness({a: xm.D.identity for a in range(cover.charts)},
                         {p: xm.H.identity for p in cover.simplices(1)})


def check_cocycle(c: GerbeCocycle, what: str,
                  laws: _HCompletions | None = None) -> None:
    """Raise StructureError "<what>: <check>" at the first failing check of
    c: its d-domain or h-domain, the edge condition on a triple
    ("edge@a,b,c") or the tetrahedron condition on a quad
    ("tetra@a,b,c,d"); a cocycle passes silently.

    `laws` are the tables of c's cover and crossed module; without them
    they are built here, so a caller that checks many cocycles passes them.
    """
    laws = laws or _HCompletions(c.cover, c.xm)
    if (c.d.keys() != laws.pair_set
            or not all(0 <= v < len(laws.dmul) for v in c.d.values())):
        raise StructureError(f"{what}: d-domain")
    if (c.h.keys() != laws.triple_set
            or not all(0 <= v < len(laws.hmul) for v in c.h.values())):
        raise StructureError(f"{what}: h-domain")
    d = [c.d[p] for p in laws.pairs]
    h = [c.h[t] for t in laws.triples]
    dmul, alpha = laws.dmul, laws.alpha
    for t, (ab, bc, ac), hv in zip(laws.triples, laws.edges, h):
        if dmul[d[ab]][d[bc]] != dmul[alpha[hv]][d[ac]]:
            raise StructureError(f"{what}: edge@{','.join(map(str, t))}")
    for q, pos in zip(laws.tetras, laws.quads):
        lhs, rhs = _tetra_sides(laws.hmul, laws.act, d, h, *pos)
        if lhs != rhs:
            raise StructureError(f"{what}: tetra@{','.join(map(str, q))}")


def _tetra_sides(hmul, act, d, h, ab, abc, acd, bcd, abd) -> tuple[int, int]:
    """Both sides, h_abc h_acd and (d_ab . h_bcd) h_abd, of the tetrahedron
    law, with H's product and the action as lists and d, h read at the
    positions (or keys) ab, abc, acd, bcd, abd of a quad's pair and triples."""
    return hmul[h[abc]][h[acd]], hmul[act[d[ab]][h[bcd]]][h[abd]]


def apply_witness(c: GerbeCocycle, w: StableWitness,
                  laws: _HCompletions | None = None) -> GerbeCocycle:
    """Act on a cocycle by a witness; the result is re-validated, with
    `laws` as for check_cocycle.

    d'_ab  = r_a alpha(s_ab) d_ab r_b^-1
    h'_abc = (r_a . s_ab)(r_a d_ab . s_bc)(r_a . h_abc)(r_a . s_ac)^-1

    A validation failure of the output is a hard error: it would mean the
    transformation law itself is wrong, not the input.
    """
    xm = c.xm
    D, H = xm.D, xm.H
    d2: dict[tuple[int, int], int] = {}
    h2: dict[tuple[int, int, int], int] = {}
    for (a, b) in c.cover.simplices(1):
        d2[(a, b)] = D.mul(D.mul(D.mul(w.r[a], xm.alpha(w.s[(a, b)])),
                                 c.d[(a, b)]), D.inv(w.r[b]))
    for (a, b, cc) in c.cover.simplices(2):
        ra = w.r[a]
        t1 = xm.act(ra, w.s[(a, b)])
        t2 = xm.act(D.mul(ra, c.d[(a, b)]), w.s[(b, cc)])
        t3 = xm.act(ra, c.h[(a, b, cc)])
        t4 = H.inv(xm.act(ra, w.s[(a, cc)]))
        h2[(a, b, cc)] = H.mul(H.mul(H.mul(t1, t2), t3), t4)
    out = GerbeCocycle(c.cover, xm, d2, h2, name=c.name)
    check_cocycle(out, "witness action broke the cocycle conditions", laws)
    return out


# ---------------------------------------------------------------------------
# enumeration and classification


class _HCompletions:
    """The search for the h-values completing a d-assignment, built once
    per (cover, crossed module); its tables are also the ones
    check_cocycle reads.

    d and h are read by position in the cover's pair and triple lists:
    `edges` holds each triple's (ab, bc, ac) pairs, `quads` each quad's
    (ab, abc, acd, bcd, abd) positions in the cover's quad order, and
    `by_depth[i]` the quads whose lexicographically last triple is triple
    i, which the search checks as soon as it sets that triple.
    """

    def __init__(self, cover: CoverComplex, xm: CrossedModule):
        self.pairs, self.triples = cover.simplices(1), cover.simplices(2)
        self.tetras = cover.simplices(3)
        self.pair_set, self.triple_set = set(self.pairs), set(self.triples)
        pidx = {p: i for i, p in enumerate(self.pairs)}
        tidx = {t: i for i, t in enumerate(self.triples)}
        self.dmul, self.dinv = xm.D.table.tolist(), xm.D.inverses.tolist()
        self.hmul, self.act = xm.H.table.tolist(), xm.action.table.tolist()
        self.alpha = xm.alpha.mapping.tolist()
        self.pre: list[list[int]] = [[] for _ in range(xm.D.order)]
        for hval, dval in enumerate(self.alpha):
            self.pre[dval].append(hval)
        self.edges = [(pidx[a, b], pidx[b, c], pidx[a, c]) for (a, b, c) in tidx]
        self.quads = [(pidx[a, b], tidx[a, b, c], tidx[a, c, d], tidx[b, c, d],
                       tidx[a, b, d]) for (a, b, c, d) in self.tetras]
        self.by_depth: list[list[tuple]] = [[] for _ in tidx]
        for q in self.quads:
            self.by_depth[max(q[1:])].append(q)

    def cosets(self, d) -> list[list[int]]:
        """Per triple, the alpha-preimage of d_ab d_bc d_ac^-1: the values
        the edge condition leaves h_abc."""
        dmul, dinv, pre = self.dmul, self.dinv, self.pre
        return [pre[dmul[dmul[d[ab]][d[bc]]][dinv[d[ac]]]]
                for ab, bc, ac in self.edges]

    def completions(self, d, budget: Budget | None = None):
        """Every h completing the d-assignment to a cocycle, in lexicographic
        order, each as a list over the triples; each value tried is charged
        to `budget` when one is given."""
        cosets = self.cosets(d)
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
            for q in by_depth[i]:
                lhs, rhs = _tetra_sides(hmul, act, d, h, *q)
                if lhs != rhs:
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
                       laws: _HCompletions | None = None) -> list[GerbeCocycle]:
    """All valid cocycles, in lexicographic (d, h) order.

    d runs over all assignments to increasing pairs; for each, the h values
    are confined to alpha-preimage cosets forced by the edge condition and
    filtered by the tetrahedron condition.  `laws` are the tables of the
    cover and crossed module, as for check_cocycle.
    """
    budget = budget or Budget(what="cocycle enumeration")
    budget.spend(_exhaustive_bound(cover, xm))
    pairs = cover.simplices(1)
    triples = cover.simplices(2)
    search = laws or _HCompletions(cover, xm)
    out = []
    for d in itertools.product(range(xm.D.order), repeat=len(pairs)):
        for h in search.completions(d):
            out.append(GerbeCocycle(cover, xm, dict(zip(pairs, d)),
                                    dict(zip(triples, h))))
    return out


def _generator_witnesses(cover: CoverComplex, xm: CrossedModule) -> list[StableWitness]:
    """Single-chart r changes and single-pair s changes (they generate)."""
    gens: list[StableWitness] = []
    base = identity_witness(cover, xm)
    d_moves = [v for v in xm.D.elements() if v != xm.D.identity]
    h_moves = [v for v in xm.H.elements() if v != xm.H.identity]
    for a in range(cover.charts):
        for dval in d_moves:
            w = StableWitness(dict(base.r), dict(base.s))
            w.r[a] = dval
            gens.append(w)
    for p in cover.simplices(1):
        for hval in h_moves:
            w = StableWitness(dict(base.r), dict(base.s))
            w.s[p] = hval
            gens.append(w)
    return gens


@dataclass
class GerbeClass:
    representative: GerbeCocycle
    key: tuple
    orbit_size: int


@dataclass
class GerbeClassification:
    cover: CoverComplex
    xm: CrossedModule
    cocycles: list[GerbeCocycle]
    classes: list[GerbeClass]
    exhaustive: bool
    # orbit_of[i] is the index in `classes` of the orbit of cocycles[i]
    orbit_of: list[int]

    def counts(self) -> tuple[int, int]:
        return len(self.cocycles), len(self.classes)


GUARD_CHARTS = 5
GUARD_ORDER = 16


def classify_gerbes(cover: CoverComplex, xm: CrossedModule,
                    budget: Budget | None = None,
                    force: bool = False) -> GerbeClassification:
    """Partition all valid cocycles into stable classes.

    Orbits are computed by BFS from the lexicographically least unvisited
    cocycle, applying generator witnesses and hashing canonical key forms;
    classes are listed by their least member, and `orbit_of` names each
    cocycle's class.  Instances beyond the exhaustive-mode guard (> 5
    charts or |H|*|D| > 16) require `force` and are flagged non-exhaustive.
    """
    guard = cover.charts > GUARD_CHARTS or xm.H.order * xm.D.order > GUARD_ORDER
    budget = budget or Budget(what="gerbe classification")
    if guard and not force:
        raise BudgetError(
            f"gerbe classification beyond the exhaustive guard "
            f"({cover.charts} charts, |H||D| = {xm.H.order * xm.D.order})",
            _exhaustive_bound(cover, xm), budget.limit)
    laws = _HCompletions(cover, xm)
    cocycles = enumerate_cocycles(cover, xm, budget=budget, laws=laws)
    keys = [c.key() for c in cocycles]
    index = dict(zip(keys, cocycles))
    gens = _generator_witnesses(cover, xm)
    least: dict[tuple, tuple] = {}     # cocycle key -> its orbit's least key
    classes: list[GerbeClass] = []
    for k in sorted(index):
        if k in least:
            continue
        orbit = {k}
        frontier = [index[k]]
        while frontier:
            cur = frontier.pop()
            for w in gens:
                budget.spend()
                nxt = apply_witness(cur, w, laws)
                nk = nxt.key()
                if nk not in index:
                    raise StructureError("witness action left the enumerated "
                                         "cocycle set (enumeration bug)")
                if nk not in orbit:
                    orbit.add(nk)
                    frontier.append(nxt)
        mk = min(orbit)
        least.update(dict.fromkeys(orbit, mk))
        classes.append(GerbeClass(index[mk], mk, len(orbit)))
    classes.sort(key=lambda cl: cl.key)
    position = {cl.key: i for i, cl in enumerate(classes)}
    orbit_of = [position[least[k]] for k in keys]
    return GerbeClassification(cover, xm, cocycles, classes,
                               exhaustive=not guard, orbit_of=orbit_of)


# ---------------------------------------------------------------------------
# abelian cohomology oracle (integer SNF + coefficient change)


@dataclass
class CohomologyResult:
    degree: int
    order: int
    invariants: list[int]          # cyclic factor orders > 1, descending
    betti: int                     # integral betti number in this degree
    torsion: list[int]             # integral torsion in this degree


def _boundary_matrix(cover: CoverComplex, k: int) -> list[list[int]] | None:
    """Integer matrix of the k-th simplicial boundary on increasing tuples."""
    rows = cover.simplices(k - 1)
    cols = cover.simplices(k)
    if not rows or not cols:
        return None
    ridx = {s: i for i, s in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for i in range(k + 1):
            face = s[:i] + s[i + 1:]
            mat[ridx[face]][j] += (-1) ** i
    return mat


def _integral_homology(cover: CoverComplex, k: int) -> tuple[int, list[int]]:
    if k < 0 or not cover.simplices(k):
        return 0, []
    return homology(_boundary_matrix(cover, k), _boundary_matrix(cover, k + 1),
                    len(cover.simplices(k)))


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


class LiftPlan:
    """Lifting data of a (cover, target) pair, built once for all cocycles.

    Only the search and the defect 3-cochain depend on the cocycle.  The
    plan holds the rest: the image module the cocycles live over, ker alpha
    with its centrality and action checks, the h-completion search of the
    target, the cocycle laws of the image module and, when the obstruction
    is emitted, H^3 of the cover in ker alpha, cyclic coordinates of ker
    alpha, the coboundary matrix from triples to quads and, when there are
    quads, one factored solver of that matrix per cyclic modulus of ker
    alpha.
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

        self.triples = cover.simplices(2)
        self.quads = cover.simplices(3)
        self.search = _HCompletions(cover, xm)
        self.base_laws = _HCompletions(cover, self.base)

        self.oracle: CohomologyResult | None = None
        if self.emitted:
            self.oracle = abelian_oracle(cover, ker_g, 3)
            _, self.moduli, self.coord = _abelian_coordinates(ker_g)
            self.ker_back = {int(v): i for i, v in enumerate(ker_inc.mapping)}
            self.hinv = H.inverses.tolist()
            # coboundary from triples to quads, one row per quad
            self.mat = [[0] * len(self.triples) for _ in self.quads]
            for row, (_ab, abc, acd, bcd, abd) in zip(self.mat, self.search.quads):
                row[abc] += 1
                row[acd] += 1
                row[abd] -= 1
                row[bcd] -= 1
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

    def lift(self, c: GerbeCocycle, budget: Budget | None = None) -> LiftResult:
        """Lift a cocycle over `self.base` to one for the target, if possible.

        The lift is the first h-completion of c's d-values for the target:
        each h_abc runs over the alpha-preimage coset the edge condition
        forces, against the tetrahedron condition.  When the obstruction is
        emitted, the defect 3-cochain of an arbitrary set-level lift is
        computed and its class is tested for triviality by linear algebra;
        the two verdicts are cross-checked.
        """
        budget = budget or Budget(what="gerbe lift")
        if not self.is_base(c.xm):
            raise StructureError("cocycle is not over the image module of the target")
        if (c.cover.charts, c.cover.sets) != (self.cover.charts, self.cover.sets):
            raise StructureError("cocycle is not on the cover of the lift plan")
        check_cocycle(c, "cannot lift an invalid cocycle", self.base_laws)
        xm = self.xm
        search = self.search
        d, _ = c.key()

        lifted = None
        h = next(search.completions(d, budget), None)
        if h is not None:
            lifted = GerbeCocycle(c.cover, xm, dict(c.d), dict(zip(self.triples, h)),
                                  name=f"{c.name}-lift")
            check_cocycle(lifted, "lift search returned an invalid cocycle",
                          search)

        obstruction_zero = None
        agreement = None
        defect_out = None
        if self.emitted:
            ref = [cs[0] for cs in search.cosets(d)]     # arbitrary set-level lift
            defect_out = {}
            zrows = []
            for q, pos in zip(self.quads, search.quads):
                lhs, rhs = _tetra_sides(search.hmul, search.act, d, ref, *pos)
                z = search.hmul[self.hinv[rhs]][lhs]
                if z not in self.ker_back:
                    raise StructureError("lift defect landed outside ker alpha")
                exps = self.coord[self.ker_back[z]]
                defect_out[q] = tuple(int(e) for e in exps)
                zrows.append(exps)
            obstruction_zero = True
            for ci, solver in enumerate(self.solvers):
                rhs_vec = [(-row[ci]) % solver.mod for row in zrows]
                if solver.solve(rhs_vec) is None:
                    obstruction_zero = False
                    break
            agreement = (lifted is not None) == obstruction_zero
        return LiftResult(lifted, self.central, self.action_trivial,
                          obstruction_zero, agreement, self.oracle, defect_out)


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
                   ) -> list[tuple[list[list[int]], list[list[int]]]]:
    """What the map of a cocycle reads on each simplex of x, the ordered
    nerve of `cover`: per level n, the pair each spine edge (i, i+1) reads,
    then the triple each free triangle (i, i+1, k) of the 2-nerve reads, as
    positions in cover.simplices(1) and cover.simplices(2), one list per
    edge or triangle over the level's simplices.  The position one past the
    last pair (triple) stands for the identity of D (H), which an edge on a
    repeated chart reads, and so does a triangle with a repeated chart, as
    in the 2-nerve's own degeneracies."""
    from .xnerve import _free_triples   # loaded with the 2-nerve already
    pairs, triples = cover.simplices(1), cover.simplices(2)
    at_d = {p: i for i, p in enumerate(pairs)}
    at_h = {t: i for i, t in enumerate(triples)}
    reads = []
    for n in range(x.N + 1):
        tuples = x.labels[n]
        edges = [[len(pairs) if t[i] == t[i + 1] else at_d[t[i], t[i + 1]]
                  for t in tuples] for i in range(n)]
        tris = [[len(triples) if t[i] == t[i + 1] or t[i + 1] == t[k]
                 else at_h[t[i], t[i + 1], t[k]] for t in tuples]
                for i, k in _free_triples(n)]
        reads.append((edges, tris))
    return reads


def ordered_cocycle_maps(cocycles: list[GerbeCocycle], match,
                         budget: Budget | None = None) -> list[SimplicialMap]:
    """The map X<= -> W-bar of each cocycle, written down, not searched.

    X<= is `ordered_cover_nerve` of the cocycles' (common) cover at the
    truncation of `match`, a MatchResult for their crossed module.  On X<=
    the free data of a simplex's image in the 2-nerve are its spine edges
    and its triangles (i, i+1, k), each a value of the cocycle or an
    identity (see `_ordered_reads`), so the map is unique.  A level is
    built for all cocycles at once, as column gathers and one radix
    encoding, then carried into W-bar by `match.inverse`.  Every map must
    pass `validate_map`, or this is a StructureError.  `budget` bounds the
    size of X<=.
    """
    cover, xm = cocycles[0].cover, cocycles[0].xm
    if any(c.cover.sets != cover.sets for c in cocycles):
        raise StructureError("cocycles live on different covers")
    x = ordered_cover_nerve(cover, match.wbar.N, budget=budget)
    # one row per cocycle: its values in pair (triple) order, then the
    # identity that repeated charts read
    dv = np.array([[c.d[p] for p in cover.simplices(1)] + [xm.D.identity]
                   for c in cocycles], dtype=np.int64)
    hv = np.array([[c.h[t] for t in cover.simplices(2)] + [xm.H.identity]
                   for c in cocycles], dtype=np.int64)
    levels = []
    for n, (edges, tris) in enumerate(_ordered_reads(cover, x)):
        digits = [dv[:, at] for at in edges] + [hv[:, at] for at in tris]
        radix, _ = _radix_split(match.duskin.radix[n])
        image = _radix_encode(digits, radix, (len(cocycles), x.sizes[n]))
        levels.append(match.inverse[n][image])
    maps = []
    for j, c in enumerate(cocycles):
        f = SimplicialMap(x, match.wbar, [lvl[j] for lvl in levels],
                          name=f"{c.name}-wmap")
        rep = validate_map(f)
        if not rep.ok:
            raise StructureError(f"closed-form map of {c.name} failed "
                                 f"validation: {rep.summary()}")
        maps.append(f)
    return maps


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
