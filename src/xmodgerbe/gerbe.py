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
obstruction cross-check, and `cocycle_to_simplicial_map` converts cocycles
into simplicial maps from the cover nerve into the 2-categorical nerve and
the classifying space, for the homotopy-theoretic count of the same
classification.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fingroup import (CrossedModule, FiniteGroup, abelian_invariants,
                       derived_crossed_modules, kernel,
                       validate_crossed_module, xmod_from_json, xmod_to_json)
from .intlinalg import ModSolver, homology
from .simplicial import (CoverComplex, SimplicialMap, TruncatedSimplicialSet,
                         _map_spec, _Search, cover_nerve)
from .simplicial import validate_map
from .util import Budget, BudgetError, Report, StructureError

__all__ = [
    "GerbeCocycle",
    "StableWitness",
    "CMBundleCocycle",
    "validate_cocycle",
    "trivial_cocycle",
    "identity_witness",
    "apply_witness",
    "compose_witness",
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
    "cocycle_to_simplicial_map",
    "map_to_cocycle",
    "validate_bundle_cocycle",
    "trivial_bundle",
    "bundle_product",
    "CoverMap",
    "pullback_cocycle",
    "cocycle_to_json",
    "cocycle_from_json",
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


def trivial_cocycle(cover: CoverComplex, xm: CrossedModule) -> GerbeCocycle:
    return GerbeCocycle(cover, xm,
                        {p: xm.D.identity for p in cover.simplices(1)},
                        {t: xm.H.identity for t in cover.simplices(2)},
                        name="trivial")


def identity_witness(cover: CoverComplex, xm: CrossedModule) -> StableWitness:
    return StableWitness({a: xm.D.identity for a in range(cover.charts)},
                         {p: xm.H.identity for p in cover.simplices(1)})


def validate_cocycle(c: GerbeCocycle) -> Report:
    """Check domains and both cocycle conditions on all admissible tuples."""
    rep = Report()
    xm = c.xm
    D, H = xm.D, xm.H
    pairs = c.cover.simplices(1)
    triples = c.cover.simplices(2)
    rep.add("d-domain", set(c.d) == set(pairs)
            and all(0 <= v < D.order for v in c.d.values()))
    rep.add("h-domain", set(c.h) == set(triples)
            and all(0 <= v < H.order for v in c.h.values()))
    if not rep.ok:
        return rep
    for (a, b, cc) in triples:
        lhs = D.mul(c.d[(a, b)], c.d[(b, cc)])
        rhs = D.mul(xm.alpha(c.h[(a, b, cc)]), c.d[(a, cc)])
        rep.add(f"edge@{a},{b},{cc}", lhs == rhs)
    for (a, b, cc, dd) in c.cover.simplices(3):
        lhs = H.mul(c.h[(a, b, cc)], c.h[(a, cc, dd)])
        rhs = H.mul(xm.act(c.d[(a, b)], c.h[(b, cc, dd)]), c.h[(a, b, dd)])
        rep.add(f"tetra@{a},{b},{cc},{dd}", lhs == rhs)
    return rep


def apply_witness(c: GerbeCocycle, w: StableWitness) -> GerbeCocycle:
    """Act on a cocycle by a witness; the result is re-validated.

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
    rep = validate_cocycle(out)
    if not rep.ok:
        raise StructureError(
            f"witness action broke the cocycle conditions: {rep.summary()}")
    return out


def compose_witness(w2: StableWitness, w1: StableWitness,
                    cover: CoverComplex, xm: CrossedModule) -> StableWitness:
    """Witness with apply(c, w3) = apply(apply(c, w1), w2)."""
    D, H = xm.D, xm.H
    r3 = {a: D.mul(w2.r[a], w1.r[a]) for a in range(cover.charts)}
    s3 = {p: H.mul(xm.act(D.inv(w1.r[p[0]]), w2.s[p]), w1.s[p])
          for p in cover.simplices(1)}
    return StableWitness(r3, s3)


# ---------------------------------------------------------------------------
# enumeration and classification


def _preimage_lists(xm: CrossedModule) -> list[list[int]]:
    pre: list[list[int]] = [[] for _ in range(xm.D.order)]
    for hval in range(xm.H.order):
        pre[int(xm.alpha.mapping[hval])].append(hval)
    return pre


def _valid_h_assignments(dvals, xm, triples, quads, pidx, tidx, pre):
    """All h-assignments completing the given d-assignment to a valid cocycle."""
    D, H = xm.D, xm.H
    cosets = []
    for (a, b, cc) in triples:
        target = D.mul(D.mul(dvals[pidx[(a, b)]], dvals[pidx[(b, cc)]]),
                       D.inv(dvals[pidx[(a, cc)]]))
        cs = pre[target]
        if not cs:
            return []
        cosets.append(cs)
    out = []
    for hvals in itertools.product(*cosets):
        ok = True
        for (a, b, cc, dd) in quads:
            lhs = H.mul(hvals[tidx[(a, b, cc)]], hvals[tidx[(a, cc, dd)]])
            rhs = H.mul(xm.act(dvals[pidx[(a, b)]], hvals[tidx[(b, cc, dd)]]),
                        hvals[tidx[(a, b, dd)]])
            if lhs != rhs:
                ok = False
                break
        if ok:
            out.append(tuple(int(v) for v in hvals))
    return out


def enumerate_cocycles(cover: CoverComplex, xm: CrossedModule,
                       budget: Budget | None = None) -> list[GerbeCocycle]:
    """All valid cocycles, in lexicographic (d, h) order.

    d runs over all assignments to increasing pairs; for each, the h values
    are confined to alpha-preimage cosets forced by the edge condition and
    filtered by the tetrahedron condition.
    """
    budget = budget or Budget(what="cocycle enumeration")
    pairs = cover.simplices(1)
    triples = cover.simplices(2)
    quads = cover.simplices(3)
    ker_size = sum(1 for v in xm.alpha.mapping if v == xm.D.identity)
    bound = xm.D.order ** len(pairs) * max(1, ker_size) ** len(triples)
    budget.spend(bound)
    pre = _preimage_lists(xm)
    pidx = {p: i for i, p in enumerate(pairs)}
    tidx = {t: i for i, t in enumerate(triples)}
    out = []
    for dvals in itertools.product(range(xm.D.order), repeat=len(pairs)):
        for hvals in _valid_h_assignments(dvals, xm, triples, quads, pidx,
                                          tidx, pre):
            out.append(GerbeCocycle(cover, xm,
                                    dict(zip(pairs, dvals)),
                                    dict(zip(triples, hvals))))
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
    guard_exceeded: bool

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
    classes are listed by their least member.  Instances beyond the
    exhaustive-mode guard (> 5 charts or |H|*|D| > 16) require `force` and
    are flagged non-exhaustive.
    """
    guard = cover.charts > GUARD_CHARTS or xm.H.order * xm.D.order > GUARD_ORDER
    budget = budget or Budget(what="gerbe classification")
    if guard and not force:
        ker_size = sum(1 for v in xm.alpha.mapping if v == xm.D.identity)
        bound = (xm.D.order ** len(cover.simplices(1))
                 * max(1, ker_size) ** len(cover.simplices(2)))
        raise BudgetError(
            f"gerbe classification beyond the exhaustive guard "
            f"({cover.charts} charts, |H||D| = {xm.H.order * xm.D.order})",
            bound, budget.limit)
    cocycles = enumerate_cocycles(cover, xm, budget=budget)
    index = {c.key(): c for c in cocycles}
    gens = _generator_witnesses(cover, xm)
    visited: set[tuple] = set()
    classes: list[GerbeClass] = []
    for k in sorted(index):
        if k in visited:
            continue
        orbit = {k}
        frontier = [index[k]]
        while frontier:
            cur = frontier.pop()
            for w in gens:
                budget.spend()
                nxt = apply_witness(cur, w)
                nk = nxt.key()
                if nk not in index:
                    raise StructureError("witness action left the enumerated "
                                         "cocycle set (enumeration bug)")
                if nk not in orbit:
                    orbit.add(nk)
                    frontier.append(nxt)
        visited |= orbit
        mk = min(orbit)
        classes.append(GerbeClass(index[mk], mk, len(orbit)))
    classes.sort(key=lambda cl: cl.key)
    return GerbeClassification(cover, xm, cocycles, classes,
                               exhaustive=not guard, guard_exceeded=guard)


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

    Only the preimage cosets, the search and the defect 3-cochain depend on
    the cocycle.  The plan holds the rest: the image module the cocycles
    live over, ker alpha with its centrality and action checks, the
    triple/quad index maps, and, when the obstruction is emitted, H^3 of the
    cover in ker alpha, cyclic coordinates of ker alpha, the coboundary
    matrix from triples to quads and, when there are quads, one factored
    solver of that matrix per cyclic modulus of ker alpha.
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
        self.tidx = {t: i for i, t in enumerate(self.triples)}
        self.pre = _preimage_lists(xm)
        # quads become checkable once their lexicographically last triple is set
        self.by_depth: list[list[tuple]] = [[] for _ in self.triples]
        for q in self.quads:
            a, b, cc, dd = q
            parts = [(a, b, cc), (a, b, dd), (a, cc, dd), (b, cc, dd)]
            self.by_depth[max(self.tidx[t] for t in parts)].append(q)

        self.oracle: CohomologyResult | None = None
        if self.emitted:
            self.oracle = abelian_oracle(cover, ker_g, 3)
            _, self.moduli, self.coord = _abelian_coordinates(ker_g)
            self.ker_back = {int(v): i for i, v in enumerate(ker_inc.mapping)}
            # coboundary from triples to quads, one row per quad
            self.mat = [[0] * len(self.triples) for _ in self.quads]
            for qi, (a, b, cc, dd) in enumerate(self.quads):
                self.mat[qi][self.tidx[(a, b, cc)]] += 1
                self.mat[qi][self.tidx[(a, cc, dd)]] += 1
                self.mat[qi][self.tidx[(a, b, dd)]] -= 1
                self.mat[qi][self.tidx[(b, cc, dd)]] -= 1
            self.solvers = ([ModSolver(self.mat, m) for m in self.moduli]
                            if self.quads else [])

    @property
    def emitted(self) -> bool:
        """Whether the H^3 obstruction applies: ker alpha central, fixed by D."""
        return self.central and self.action_trivial

    def is_base(self, m: CrossedModule) -> bool:
        """Whether m is the image module: equal group tables and alpha."""
        return (np.array_equal(m.H.table, self.base.H.table)
                and np.array_equal(m.D.table, self.base.D.table)
                and np.array_equal(m.alpha.mapping, self.base.alpha.mapping))

    def lift(self, c: GerbeCocycle, budget: Budget | None = None) -> LiftResult:
        """Lift a cocycle over `self.base` to one for the target, if possible.

        The h-values are lifted triple by triple within alpha-preimage cosets
        by exhaustive backtracking against the tetrahedron condition.  When
        the obstruction is emitted, the defect 3-cochain of an arbitrary
        set-level lift is computed and its class is tested for triviality by
        linear algebra; the two verdicts are cross-checked.
        """
        budget = budget or Budget(what="gerbe lift")
        if not self.is_base(c.xm):
            raise StructureError("cocycle is not over the image module of the target")
        if (c.cover.charts, c.cover.sets) != (self.cover.charts, self.cover.sets):
            raise StructureError("cocycle is not on the cover of the lift plan")
        rep = validate_cocycle(c)
        if not rep.ok:
            raise StructureError(f"cannot lift an invalid cocycle: {rep.summary()}")
        xm = self.xm
        H, D = xm.H, xm.D
        triples, tidx, by_depth = self.triples, self.tidx, self.by_depth
        # the image module's alpha is the inclusion im alpha -> D
        im_inc = self.base.alpha.mapping
        cosets = [self.pre[int(im_inc[c.h[t]])] for t in triples]

        def quad_ok(q, vals) -> bool:
            a, b, cc, dd = q
            lhs = H.mul(vals[tidx[(a, b, cc)]], vals[tidx[(a, cc, dd)]])
            rhs = H.mul(xm.act(c.d[(a, b)], vals[tidx[(b, cc, dd)]]),
                        vals[tidx[(a, b, dd)]])
            return lhs == rhs

        lifted_vals: list[int] | None = None
        stack_vals: list[int] = []

        def dfs(i: int) -> bool:
            if i == len(triples):
                return True
            for v in cosets[i]:
                budget.spend()
                stack_vals.append(v)
                if all(quad_ok(q, stack_vals) for q in by_depth[i]) and dfs(i + 1):
                    return True
                stack_vals.pop()
            return False

        if not triples:
            lifted_vals = []
        elif dfs(0):
            lifted_vals = list(stack_vals)

        lifted = None
        if lifted_vals is not None:
            lifted = GerbeCocycle(c.cover, xm, dict(c.d),
                                  {t: lifted_vals[i] for i, t in enumerate(tidx)},
                                  name=f"{c.name}-lift")
            lrep = validate_cocycle(lifted)
            if not lrep.ok:
                raise StructureError(f"lift search returned an invalid cocycle: "
                                     f"{lrep.summary()}")

        obstruction_zero = None
        agreement = None
        defect_out = None
        if self.emitted:
            ref = [cs[0] for cs in cosets]          # arbitrary set-level lift
            defect_out = {}
            zrows = []
            for q in self.quads:
                a, b, cc, dd = q
                lhs = H.mul(ref[tidx[(a, b, cc)]], ref[tidx[(a, cc, dd)]])
                rhs = H.mul(xm.act(c.d[(a, b)], ref[tidx[(b, cc, dd)]]),
                            ref[tidx[(a, b, dd)]])
                z = H.mul(H.inv(rhs), lhs)
                if int(xm.alpha.mapping[z]) != D.identity:
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
    yourself to lift many cocycles on one cover."""
    return LiftPlan(c.cover, xm).lift(c, budget)


# ---------------------------------------------------------------------------
# cocycles as simplicial maps


@dataclass
class CocycleMaps:
    nerve: TruncatedSimplicialSet
    duskin_map: SimplicialMap
    wbar_map: SimplicialMap


def _duskin_index(duskin: TruncatedSimplicialSet) -> list[dict]:
    return [{lab: i for i, lab in enumerate(duskin.labels[n])}
            for n in range(duskin.N + 1)]


def cocycle_to_simplicial_map(c: GerbeCocycle, match, budget: Budget | None = None,
                              nerve: TruncatedSimplicialSet | None = None) -> CocycleMaps:
    """Extend a cocycle to a full simplicial map out of the cover nerve.

    Increasing tuples are pinned directly from (d, h); reversed pairs are
    pinned to inverses; the values on the remaining (non-monotone) tuples
    are found by backtracking and the result is re-validated.  The map into
    the classifying space is the 2-nerve map composed with the model
    dictionary `match` (a MatchResult for the same crossed module).
    """
    if not match.found:
        raise StructureError("model dictionary unavailable (no isomorphism)")
    duskin = match.duskin
    budget = budget or Budget(what="cocycle extension")
    x = nerve
    if x is None:
        x = cover_nerve(c.cover, match.wbar.N, budget=budget)
    idx = _duskin_index(duskin)
    D = c.xm.D
    boundary: dict[tuple[int, int], int] = {}
    vx = {lab: i for i, lab in enumerate(x.labels[0])}
    e1 = {lab: i for i, lab in enumerate(x.labels[1])}
    e2 = {lab: i for i, lab in enumerate(x.labels[2])}
    for a in range(c.cover.charts):
        boundary[(0, vx[(a,)])] = 0
    inv_pins: dict[tuple[int, int], int] = {}
    for (a, b), dv in c.d.items():
        boundary[(1, e1[(a, b)])] = idx[1][((dv,), ())]
        inv_pins[(1, e1[(b, a)])] = idx[1][((D.inv(dv),), ())]
    for (a, b, cc), hv in c.h.items():
        boundary[(2, e2[(a, b, cc)])] = idx[2][((c.d[(a, b)], c.d[(b, cc)]), (hv,))]

    def attempt(bnd):
        spec = _map_spec(x, duskin, boundary=bnd)
        for values in _Search(spec, budget).solutions(limit=1):
            arrs = [np.array([values[n][z] for z in range(x.sizes[n])],
                             dtype=np.int64) for n in range(x.N + 1)]
            return SimplicialMap(x, duskin, arrs, name=f"{c.name}-map")
        return None

    f = attempt({**boundary, **inv_pins})
    if f is None:
        f = attempt(boundary)
    if f is None:
        raise StructureError("no simplicial extension of the cocycle exists")
    rep = validate_map(f)
    if not rep.ok:
        raise StructureError(f"cocycle extension failed validation: {rep.summary()}")
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
    `match` provides the translation."""
    levels = f.levels
    target = f.target
    if match is not None and getattr(target, "wbar_of", None) is not None:
        levels = [match.iso.levels[n][levels[n]] for n in range(f.source.N + 1)]
        target = match.duskin
    e1 = {lab: i for i, lab in enumerate(f.source.labels[1])}
    e2 = {lab: i for i, lab in enumerate(f.source.labels[2])}
    d = {}
    h = {}
    for p in cover.simplices(1):
        ds, _hs = target.label(1, int(levels[1][e1[p]]))
        d[p] = int(ds[0])
    for t in cover.simplices(2):
        _ds, hs = target.label(2, int(levels[2][e2[t]]))
        h[t] = int(hs[0])
    out = GerbeCocycle(cover, xm, d, h, name=f"{f.name}-cocycle")
    rep = validate_cocycle(out)
    if not rep.ok:
        raise StructureError(f"extracted data is not a cocycle: {rep.summary()}")
    return out


# ---------------------------------------------------------------------------
# principal-bundle cocycles and their product


@dataclass
class CMBundleCocycle:
    """Chart-wise objects d_a plus morphism labels g_ab trivializing them."""

    cover: CoverComplex
    xm: CrossedModule
    d: dict[int, int]
    g: dict[tuple[int, int], int]
    name: str = "bundle"


def validate_bundle_cocycle(b: CMBundleCocycle) -> Report:
    rep = Report()
    xm = b.xm
    rep.add("d-domain", set(b.d) == set(range(b.cover.charts)))
    rep.add("g-domain", set(b.g) == set(b.cover.simplices(1)))
    if not rep.ok:
        return rep
    for (a, bb) in b.cover.simplices(1):
        rep.add(f"source@{a},{bb}",
                xm.D.mul(xm.alpha(b.g[(a, bb)]), b.d[bb]) == b.d[a])
    for (a, bb, cc) in b.cover.simplices(2):
        rep.add(f"cocycle@{a},{bb},{cc}",
                xm.H.mul(b.g[(a, bb)], b.g[(bb, cc)]) == b.g[(a, cc)])
    return rep


def trivial_bundle(cover: CoverComplex, xm: CrossedModule) -> CMBundleCocycle:
    return CMBundleCocycle(cover, xm,
                           {a: xm.D.identity for a in range(cover.charts)},
                           {p: xm.H.identity for p in cover.simplices(1)},
                           name="trivial")


def bundle_product(b1: CMBundleCocycle, b2: CMBundleCocycle) -> CMBundleCocycle:
    """Chart-wise horizontal composition (g, d)(g', d') = (g (d . g'), d d')."""
    if b1.cover is not b2.cover and b1.cover.sets != b2.cover.sets:
        raise StructureError("bundle product needs a common cover")
    xm = b1.xm
    d3 = {a: xm.D.mul(b1.d[a], b2.d[a]) for a in range(b1.cover.charts)}
    g3 = {p: xm.H.mul(b1.g[p], xm.act(b1.d[p[1]], b2.g[p]))
          for p in b1.cover.simplices(1)}
    out = CMBundleCocycle(b1.cover, xm, d3, g3, name=f"{b1.name}*{b2.name}")
    rep = validate_bundle_cocycle(out)
    if not rep.ok:
        raise StructureError(f"bundle product failed validation: {rep.summary()}")
    return out


# ---------------------------------------------------------------------------
# pullback along cover maps


@dataclass
class CoverMap:
    """Chart map source -> target carrying admissible sets to admissible sets."""

    source: CoverComplex
    target: CoverComplex
    chart_map: list[int]

    def __post_init__(self):
        if len(self.chart_map) != self.source.charts:
            raise StructureError("chart map length mismatch")
        if any(v < 0 or v >= self.target.charts for v in self.chart_map):
            raise StructureError("chart map out of range")
        for s in self.source.sets:
            img = frozenset(self.chart_map[a] for a in s)
            if not self.target.admissible(img):
                raise StructureError(f"image of {sorted(s)} is not admissible")


def pullback_cocycle(c: GerbeCocycle, f: CoverMap) -> GerbeCocycle:
    """Pull a cocycle on f.target back to f.source (monotone chart maps)."""
    if c.cover.sets != f.target.sets or c.cover.charts != f.target.charts:
        raise StructureError("cocycle does not live on the map's target cover")
    rho = f.chart_map
    if any(rho[i] > rho[j] for i in range(len(rho)) for j in range(i + 1, len(rho))):
        raise StructureError("pullback implemented for monotone chart maps")
    xm = c.xm
    d = {}
    for (a, b) in f.source.simplices(1):
        d[(a, b)] = (xm.D.identity if rho[a] == rho[b]
                     else c.d[(rho[a], rho[b])])
    h = {}
    for (a, b, cc) in f.source.simplices(2):
        i, j, k = rho[a], rho[b], rho[cc]
        h[(a, b, cc)] = (xm.H.identity if i == j or j == k
                         else c.h[(i, j, k)])
    out = GerbeCocycle(f.source, xm, d, h, name=f"{c.name}-pullback")
    rep = validate_cocycle(out)
    if not rep.ok:
        raise StructureError(f"pullback failed validation: {rep.summary()}")
    return out


# ---------------------------------------------------------------------------
# serialization


def cocycle_to_json(c: GerbeCocycle) -> dict:
    return {
        "cover": c.cover.to_json(),
        "xmod": xmod_to_json(c.xm),
        "d": {f"{a},{b}": int(v) for (a, b), v in sorted(c.d.items())},
        "h": {f"{a},{b},{cc}": int(v) for (a, b, cc), v in sorted(c.h.items())},
        "name": c.name,
    }


def cocycle_from_json(d: dict) -> GerbeCocycle:
    cover = CoverComplex.from_json(d["cover"])
    xm = xmod_from_json(d["xmod"])
    dd = {tuple(int(x) for x in k.split(",")): int(v) for k, v in d["d"].items()}
    hh = {tuple(int(x) for x in k.split(",")): int(v) for k, v in d["h"].items()}
    return GerbeCocycle(cover, xm, dd, hh, name=d.get("name", "cocycle"))
