"""Simplicial groups and sets attached to a finite crossed module.

A crossed module (H -> D) presents a strict 2-group: objects D, 2-cells
H x D.  Two simplicial objects encode it here:

* `build_nerve` -- the simplicial *group* N whose n-simplices are chains
  (d; h_1..h_n): an anchor vertex d in D and n composable 2-cell labels,
  with vertices v_0 = d, v_i = alpha(h_i...h_1) d.  Multiplication is
  horizontal composition; faces compose/discard chain entries.
* `build_duskin` -- the simplicial *set* of 2-categorical simplices: edge
  labels d_ij and triangle labels h_ijk satisfying the pasting conditions,
  stored through dimension 4 and parameterized by spine edges d_{i,i+1}
  plus the triangles (i, i+1, k).

`match_wbar_duskin` writes down the level-wise isomorphism between the
classifying space of the first and the second — the paper's two equivalent
models of the same homotopy type — and checks it.  The commands use
these three.  The rest states facts about N that the suite checks against
independent routes; no command runs them:

* `nerve_homotopy`: pi_0 N = coker alpha and pi_1 N = ker alpha, checked
  against the kernel and cokernel of `fingroup`;
* `homotopy_quotient`: N is (the nerve of H -> H) x D modulo the diagonal
  H-action, and `semidirect_model`: N is the quotient of (the nerve of
  H -> H) semidirect D by a copy of H; both are checked against
  `build_nerve`, through the collapse ((x; h..), d) -> (alpha(x) d; h..);
* `exactness_check`: the nerves of the derived crossed modules form two
  level-wise short exact sequences around N.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fingroup import (CrossedModule, FiniteGroup, cokernel,
                       derived_crossed_modules, groups_isomorphic, image,
                       kernel, quotient, subgroup, validate_crossed_module,
                       xmod_identity)
from .simplicial import (SimplicialMap, TruncatedSimplicialGroup,
                         TruncatedSimplicialSet, _guard_sizes, _radix_digits,
                         _radix_encode, _radix_labels, moore_homotopy,
                         validate_map, validate_simplicial)
from .twist import Twisting, build_wbar
from .util import Budget, Report, StructureError

__all__ = [
    "NerveGroup",
    "build_nerve",
    "nerve_homotopy",
    "build_duskin",
    "MatchResult",
    "match_wbar_duskin",
    "homotopy_quotient",
    "HomotopyQuotient",
    "semidirect_model",
    "SemidirectModel",
    "exactness_check",
]


# ---------------------------------------------------------------------------
# the nerve simplicial group


@dataclass
class NerveGroup(TruncatedSimplicialGroup):
    """Simplicial group with level n = D x H^n; see module docstring."""

    xm: CrossedModule | None = None


def _nerve_radix(xm: CrossedModule, n: int) -> list[int]:
    """Digit radices of the level-n nerve index d |H|^n + sum h_i |H|^(n-i)."""
    return [xm.D.order] + [xm.H.order] * n


def _collapse(xm: CrossedModule, n: int, p: np.ndarray,
              d: np.ndarray) -> np.ndarray:
    """Level-n index in the nerve of xm of (alpha(x) d; h..), for each p,
    the level-n index (x; h..) in the nerve of (H -> H), and d in D."""
    x, *hs = _radix_digits([xm.H.order] * (n + 1))[:, p]
    return _radix_encode([xm.D.table[xm.alpha.mapping[x], d]] + hs,
                         _nerve_radix(xm, n), len(p))


def build_nerve(xm: CrossedModule, N: int,
                budget: Budget | None = None) -> NerveGroup:
    """The nerve simplicial group of a crossed module, truncated at N.

    Level-n elements are (d; h_1..h_n) encoded d * |H|^n + sum h_i |H|^(n-i),
    the mixed-radix index of `_nerve_radix`.  The product acts as horizontal
    composition: anchors multiply in D and h-slots combine as
    h_i * (v_{i-1} acting on h_i') with v from the left factor.  The face d_0
    drops h_1 and moves the anchor to alpha(h_1) d; d_i for 0 < i < n
    replaces h_i, h_{i+1} by the product h_{i+1} h_i; d_n drops h_n.  The
    degeneracy s_i inserts the identity of H after the first i slots.  All
    faces and degeneracies are homomorphisms.
    """
    rep = validate_crossed_module(xm)
    if not rep.ok:
        raise StructureError(f"invalid crossed module: {rep.summary()}")
    radix = [_nerve_radix(xm, n) for n in range(N + 1)]
    sizes = [math.prod(r) for r in radix]
    _guard_sizes(sizes, budget, f"N({xm.name})")
    ht, dt = xm.H.table, xm.D.table
    act = xm.action.table
    al = xm.alpha.mapping

    groups: list[FiniteGroup] = []
    for n in range(N + 1):
        d, *hs = _radix_digits(radix[n])
        vs = [d]                # vertex chain v_i = alpha(h_i) v_{i-1}
        for h in hs:
            vs.append(dt[al[h], vs[-1]])
        slots = [ht[hs[i][:, None], act[vs[i][:, None], hs[i][None, :]]]
                 for i in range(n)]
        tab = _radix_encode([dt[d[:, None], d[None, :]]] + slots, radix[n],
                            (sizes[n], sizes[n]))
        groups.append(FiniteGroup(tab, name=f"N({xm.name})_{n}"))

    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        d, *hs = _radix_digits(radix[n])
        down = radix[n - 1]
        # d_0: drop the first 2-cell, advance the anchor along it
        faces[n].append(_radix_encode([dt[al[hs[0]], d]] + hs[1:], down, sizes[n]))
        for i in range(1, n):
            merged = hs[:i - 1] + [ht[hs[i], hs[i - 1]]] + hs[i + 1:]
            faces[n].append(_radix_encode([d] + merged, down, sizes[n]))
        faces[n].append(_radix_encode([d] + hs[:-1], down, sizes[n]))
    for n in range(N):
        d, *hs = _radix_digits(radix[n])
        for i in range(n + 1):
            degens[n].append(_radix_encode([d] + hs[:i] + [xm.H.identity] + hs[i:],
                                           radix[n + 1], sizes[n]))

    nerve = NerveGroup(N, groups, faces, degens, name=f"N({xm.name})", xm=xm)
    srep = validate_simplicial(nerve)
    if not srep.ok:
        raise StructureError(f"nerve failed simplicial checks: {srep.summary()}")
    return nerve


def nerve_homotopy(xm: CrossedModule, N: int = 2) -> tuple[FiniteGroup, FiniteGroup]:
    """(pi_0, pi_1) of the nerve via its Moore complex (needs N >= 2): the
    groups coker alpha and ker alpha, as the suite checks."""
    nerve = build_nerve(xm, N)
    return moore_homotopy(nerve, 0), moore_homotopy(nerve, 1)


# ---------------------------------------------------------------------------
# the 2-categorical nerve (through dimension 4)


def _free_triples(n: int) -> list[tuple[int, int]]:
    """(i, k) indexing the free triangle labels h_{i, i+1, k}."""
    return [(i, k) for i in range(n - 1) for k in range(i + 2, n + 1)]


def _duskin_radix(xm: CrossedModule, n: int) -> list[int]:
    """Digit radices of a level-n 2-nerve index: spine edges, then triangles."""
    return [xm.D.order] * n + [xm.H.order] * len(_free_triples(n))


def _derive_labels(xm: CrossedModule, n: int, digits: np.ndarray):
    """Every edge label d_ij and triangle label h_ijk at level n, as columns.

    `digits` holds the free data of every level-n simplex (spine edges, then
    the triangles of `_free_triples`); the rest follows from the pasting
    conditions, derived from the last vertex backwards.
    """
    dt, ht = xm.D.table, xm.H.table
    dinv, hinv = xm.D.inverses, xm.H.inverses
    al, act = xm.alpha.mapping, xm.action.table
    d = {(i, i + 1): digits[i] for i in range(n)}
    h = {(i, i + 1, k): digits[n + t] for t, (i, k) in enumerate(_free_triples(n))}
    for i in range(n - 2, -1, -1):
        for k in range(i + 2, n):
            for l in range(k + 1, n + 1):
                a = hinv[h[i, i + 1, k]]
                b = act[d[i, i + 1], h[i + 1, k, l]]
                h[i, k, l] = ht[ht[a, b], h[i, i + 1, l]]
        for k in range(i + 2, n + 1):
            d[i, k] = dt[dt[dinv[al[h[i, i + 1, k]]], d[i, i + 1]], d[i + 1, k]]
    return d, h


def _pasting_holds(xm: CrossedModule, n: int, d: dict, h: dict) -> bool:
    """Every triangle and tetrahedron condition, on every level-n simplex."""
    dt, ht = xm.D.table, xm.H.table
    al, act = xm.alpha.mapping, xm.action.table
    for i, j, k in itertools.combinations(range(n + 1), 3):
        if not np.array_equal(dt[d[i, j], d[j, k]], dt[al[h[i, j, k]], d[i, k]]):
            return False
    for i, j, k, l in itertools.combinations(range(n + 1), 4):
        if not np.array_equal(ht[h[i, j, k], h[i, k, l]],
                              ht[act[d[i, j], h[j, k, l]], h[i, j, l]]):
            return False
    return True


def build_duskin(xm: CrossedModule, N: int,
                 budget: Budget | None = None) -> TruncatedSimplicialSet:
    """2-categorical nerve: level n carries edge/triangle labels, n <= 4.

    Level n is parameterized by the spine edges d_{i,i+1} and the triangles
    h_{i,i+1,k}; all other labels are derived, and every derived simplex
    is checked against all pasting conditions.

    Index encoding: a level-n simplex is the mixed-radix number whose digits
    are d_{0,1}, ..., d_{n-1,n} (radix |D|, most significant first) and then
    the h_{i,i+1,k} in `_free_triples` order (radix |H|), i.e. the position
    of its label (ds, hs) in itertools.product order; `label` decodes the
    label from the index.  A whole level is built at once: labels are
    derived as columns, and each face or degeneracy re-reads the free data
    of the image along its vertex map, with identities on the collapsed
    edges and triangles.
    """
    if N > 4:
        raise StructureError("2-categorical nerve unsupported above dimension 4")
    rep = validate_crossed_module(xm)
    if not rep.ok:
        raise StructureError(f"invalid crossed module: {rep.summary()}")
    D, H = xm.D, xm.H
    radix = [_duskin_radix(xm, n) for n in range(N + 1)]
    sizes = [math.prod(r) for r in radix]
    _guard_sizes(sizes, budget, f"D({xm.name})")

    def read_free(m: int, vmap: list[int], d: dict, h: dict, size: int) -> np.ndarray:
        """Level-m indices of the simplices on the (non-decreasing) vertices vmap."""
        digits = [d[a, b] if a != b else D.identity for a, b in zip(vmap, vmap[1:])]
        for i, k in _free_triples(m):
            a, b, c = vmap[i], vmap[i + 1], vmap[k]
            digits.append(H.identity if a == b or b == c else h[a, b, c])
        return _radix_encode(digits, radix[m], size)

    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(N + 1):
        d, h = _derive_labels(xm, n, _radix_digits(radix[n]))
        if n >= 2 and not _pasting_holds(xm, n, d, h):
            raise StructureError(
                f"derived simplex data violates a pasting condition at level {n}")
        if n >= 1:
            for j in range(n + 1):
                vmap = [m for m in range(n + 1) if m != j]
                faces[n].append(read_free(n - 1, vmap, d, h, sizes[n]))
        if n < N:
            for j in range(n + 1):
                vmap = [m if m <= j else m - 1 for m in range(n + 2)]
                degens[n].append(read_free(n + 1, vmap, d, h, sizes[n]))

    # names ((d_01, ..), (h_012, ..)): the spine digits, then the triangles
    named = [[r[:n], r[n:]] for n, r in enumerate(radix)]
    out = TruncatedSimplicialSet(N, sizes, faces, degens, name=f"D({xm.name})",
                                 radix=named)
    srep = validate_simplicial(out)
    if not srep.ok:
        raise StructureError(f"2-categorical nerve failed checks: {srep.summary()}")
    return out


# ---------------------------------------------------------------------------
# matching the two models


@dataclass
class MatchResult:
    """The classifying-space / 2-nerve isomorphism with its inverse
    permutations; `tau` is the canonical twisting of `wbar`, valued in the
    nerve it was built from."""

    wbar: TruncatedSimplicialSet
    duskin: TruncatedSimplicialSet
    iso: SimplicialMap
    inverse: list[np.ndarray]
    tau: Twisting

    def dictionary(self) -> dict:
        """JSON-ready translation table between the two models."""
        return {
            "found": True,
            "truncation": self.wbar.N,
            "levels": [arr.tolist() for arr in self.iso.levels],
            "inverse": [arr.tolist() for arr in self.inverse],
            "wbar_labels": [_radix_labels(r) for r in self.wbar.radix],
            "duskin_labels": [_radix_labels(r) for r in self.duskin.radix],
        }


def _face_on(x: TruncatedSimplicialSet, n: int,
             vertices: tuple[int, ...]) -> np.ndarray:
    """Index of the face spanned by `vertices` of every level-n simplex of
    x: the other vertices are deleted highest first, so none renumbers a
    vertex still to be deleted."""
    idx, m = np.arange(x.sizes[n]), n
    for j in range(n, -1, -1):
        if j not in vertices:
            idx, m = x.faces[m][j][idx], m - 1
    return idx


def _iso_levels(xm: CrossedModule,
                wbar: TruncatedSimplicialSet) -> list[np.ndarray]:
    """The image in the 2-nerve of every W-bar simplex, a level at a time.

    Level 1 is the identity on D.  A level-2 simplex (t_0, t_1) with
    t_0 = (d; h) in N_1 and t_1 = d' in N_0 has faces d', alpha(h) d d' and
    d; it goes to d_01 = d, d_12 = d', h_012 = h^-1.  The pasting law
    d d' = alpha(h_012) alpha(h) d d' asks alpha(h_012 h) = 1, which h^-1
    meets in every crossed module.
    Above level 2 a simplex goes to the 2-nerve simplex whose free data are
    the images of its spine edges (i, i+1) and of its triangles (i, i+1, k)
    of `_free_triples`, each reached through W-bar's own faces.
    """
    oh, od = xm.H.order, xm.D.order
    levels = [np.arange(s) for s in wbar.sizes[:2]]
    if wbar.N >= 2:
        d, h, d2 = _radix_digits([od, oh, od])
        levels.append(_radix_encode([d, d2, xm.H.inverses[h]],
                                    _duskin_radix(xm, 2), wbar.sizes[2]))
    for n in range(3, wbar.N + 1):
        # the spine edges are level-1 indices already; h_012 is the last
        # (least significant) digit of a level-2 image
        digits = [_face_on(wbar, n, (i, i + 1)) for i in range(n)]
        digits += [levels[2][_face_on(wbar, n, (i, i + 1, k))] % oh
                   for i, k in _free_triples(n)]
        levels.append(_radix_encode(digits, _duskin_radix(xm, n),
                                    wbar.sizes[n]))
    return levels


def match_wbar_duskin(xm: CrossedModule, N: int = 3,
                      budget: Budget | None = None) -> MatchResult:
    """The simplicial isomorphism W-bar(nerve) -> 2-nerve at N <= 4.

    The two models of the classifying space are isomorphic (both have
    |D|^n |H|^(n(n-1)/2) simplices at level n); `_iso_levels` writes the
    isomorphism down.  It is checked as any searched map would be: it must
    pass `validate_map` and be bijective at every level, or the match is a
    StructureError.  `budget` bounds only the sizes of the three models.
    """
    if N > 4:
        raise StructureError("matching unsupported above dimension 4")
    nerve = build_nerve(xm, max(2, N - 1), budget=budget)
    wbar, tau = build_wbar(nerve, N, budget=budget)
    duskin = build_duskin(xm, N, budget=budget)
    iso = SimplicialMap(wbar, duskin, _iso_levels(xm, wbar), name="model-iso")
    rep = validate_map(iso)
    if not rep.ok:
        raise StructureError(f"model dictionary is not a simplicial map: "
                             f"{rep.summary()}")
    inverse = []
    for n, arr in enumerate(iso.levels):
        inv = np.full(duskin.sizes[n], -1, dtype=np.int64)
        inv[arr] = np.arange(len(arr))
        if len(arr) != duskin.sizes[n] or (inv < 0).any():
            raise StructureError(f"model dictionary is not bijective at "
                                 f"level {n}")
        inverse.append(inv)
    return MatchResult(wbar, duskin, iso, inverse, tau)


# ---------------------------------------------------------------------------
# homotopy quotient model


@dataclass
class HomotopyQuotient:
    total: TruncatedSimplicialSet
    iso: SimplicialMap            # identity-indexed iso onto the nerve levels
    report: Report


def homotopy_quotient(xm: CrossedModule, N: int = 2) -> HomotopyQuotient:
    """(nerve of H -> H) x D modulo the diagonal H-action, compared to the nerve.

    Classes are canonicalized to anchor e; the class of ((x; h..), d) maps to
    (alpha(x) d; h..), and the induced faces/degeneracies are checked to be
    well-defined on every representative, not only the canonical ones.  The
    report says whether identity indexing is then an isomorphism onto the
    nerve's underlying simplicial set.
    """
    exm = xmod_identity(xm.H)
    eh = build_nerve(exm, N)
    nerve = build_nerve(xm, N)
    rep = Report()
    od = xm.D.order

    def representatives(n: int) -> tuple[np.ndarray, np.ndarray]:
        """Anchor and, at anchor e, the (H -> H)-nerve representative of
        every level-n nerve element."""
        dbar, *hs = _radix_digits(_nerve_radix(xm, n))
        return dbar, _radix_encode([xm.H.identity] + hs, _nerve_radix(exm, n),
                                   len(dbar))

    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        dbar, p_rep = representatives(n)
        for i in range(n + 1):
            faces[n].append(_collapse(xm, n - 1, eh.faces[n][i][p_rep], dbar))
    for n in range(N):
        dbar, p_rep = representatives(n)
        for i in range(n + 1):
            degens[n].append(_collapse(xm, n + 1, eh.degens[n][i][p_rep], dbar))

    total = TruncatedSimplicialSet(N, list(nerve.sizes), faces, degens,
                                   name=f"E({xm.H.name})x_aD")
    srep = validate_simplicial(total)
    rep.add("quotient-simplicial", srep.ok, srep.summary())

    # induced maps are independent of the representative
    for n in range(1, N + 1):
        p = np.repeat(np.arange(eh.sizes[n]), od)
        d = np.tile(np.arange(od), eh.sizes[n])
        cls = _collapse(xm, n, p, d)
        for i in range(n + 1):
            direct = _collapse(xm, n - 1, eh.faces[n][i][p], d)
            rep.add(f"well-defined-d{i}@{n}",
                    np.array_equal(direct, faces[n][i][cls]))
    # identity indexing is an isomorphism onto the nerve's underlying sset
    iso = SimplicialMap(total, nerve.sset(),
                        [np.arange(s) for s in total.sizes], name="quotient-iso")
    vrep = validate_map(iso)
    rep.add("matches-nerve", vrep.ok, vrep.summary())
    return HomotopyQuotient(total, iso, rep)


# ---------------------------------------------------------------------------
# semidirect model


@dataclass
class SemidirectModel:
    sgroup: TruncatedSimplicialGroup
    phi: list[np.ndarray]          # level-wise surjection onto the nerve
    kernel_orders: list[int]
    report: Report


def semidirect_model(xm: CrossedModule, N: int = 2) -> SemidirectModel:
    """(nerve of H -> H) semidirect D, collapsed onto the nerve of (H -> D).

    D acts slot-wise through the crossed-module action.  At each level the
    map ((x; h..), d) -> (alpha(x) d; h..) is checked to be a surjective
    homomorphism commuting with faces/degeneracies, its kernel is checked
    to be a copy of H, and the induced map from the quotient is checked to
    be an isomorphism of groups.
    """
    exm = xmod_identity(xm.H)
    eh = build_nerve(exm, N)
    nerve = build_nerve(xm, N)
    od = xm.D.order
    dt = xm.D.table
    act = xm.action.table
    rep = Report()

    # D-action on each level of the (H -> H)-nerve, slot-wise
    actE: list[np.ndarray] = []
    for n in range(N + 1):
        radix = _nerve_radix(exm, n)
        digits = _radix_digits(radix)               # anchor + h's
        actE.append(np.stack([_radix_encode(act[d][digits], radix, eh.sizes[n])
                              for d in range(od)]))

    groups: list[FiniteGroup] = []
    phis: list[np.ndarray] = []
    kers: list[int] = []
    for n in range(N + 1):
        m = eh.sizes[n]
        order = m * od
        s = np.arange(order)
        p, d = s // od, s % od
        tab = eh.groups[n].table[p[:, None], actE[n][d[:, None], p[None, :]]] * od \
            + dt[d[:, None], d[None, :]]
        g = FiniteGroup(tab, name=f"E{n}:D")
        groups.append(g)
        phi = _collapse(xm, n, p, d)
        phis.append(phi)
        ok_hom = np.array_equal(phi[tab], nerve.groups[n].table[np.ix_(phi, phi)])
        rep.add(f"phi-hom@{n}", ok_hom)
        rep.add(f"phi-onto@{n}", len(set(int(v) for v in phi)) == nerve.sizes[n])
        ker_elems = [int(v) for v in np.flatnonzero(phi == nerve.groups[n].identity)]
        kers.append(len(ker_elems))
        kg, _ = subgroup(g, ker_elems, name="K")
        rep.add(f"kernel-is-fiber@{n}", groups_isomorphic(kg, xm.H),
                f"kernel order {kg.order} vs |H| = {xm.H.order}")
        q, proj = quotient(g, ker_elems, name="Q")
        induced = np.zeros(q.order, dtype=np.int64)
        seen = np.full(q.order, -1, dtype=np.int64)
        for sidx in range(order):
            c = int(proj.mapping[sidx])
            if seen[c] < 0:
                seen[c] = sidx
                induced[c] = phi[sidx]
        rep.add(f"induced-well-defined@{n}",
                bool(np.all(induced[proj.mapping] == phi)))
        ok_iso = (len(set(int(v) for v in induced)) == nerve.sizes[n]
                  and np.array_equal(induced[q.table],
                                     nerve.groups[n].table[np.ix_(induced, induced)]))
        rep.add(f"quotient-iso@{n}", ok_iso)

    faces: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    degens: list[list[np.ndarray]] = [[] for _ in range(N + 1)]
    for n in range(1, N + 1):
        s = np.arange(groups[n].order)
        p, d = s // od, s % od
        for i in range(n + 1):
            faces[n].append(eh.faces[n][i][p] * od + d)
    for n in range(N):
        s = np.arange(groups[n].order)
        p, d = s // od, s % od
        for i in range(n + 1):
            degens[n].append(eh.degens[n][i][p] * od + d)
    sg = TruncatedSimplicialGroup(N, groups, faces, degens, name=f"E({xm.H.name}):D")
    srep = validate_simplicial(sg)
    rep.add("semidirect-simplicial", srep.ok, srep.summary())
    for n in range(1, N + 1):
        for i in range(n + 1):
            rep.add(f"phi-commutes-d{i}@{n}",
                    np.array_equal(phis[n - 1][faces[n][i]],
                                   nerve.faces[n][i][phis[n]]))
    for n in range(N):
        for i in range(n + 1):
            rep.add(f"phi-commutes-s{i}@{n}",
                    np.array_equal(phis[n + 1][degens[n][i]],
                                   nerve.degens[n][i][phis[n]]))
    return SemidirectModel(sg, phis, kers, rep)


# ---------------------------------------------------------------------------
# the two level-wise short exact sequences


def exactness_check(xm: CrossedModule, N: int = 2) -> Report:
    """Level-wise exactness of the two nerve sequences of derived modules.

    Sequence A: (H -> im a)  >->  (H -> D)  ->>  (1 -> coker a)
    Sequence B: (ker a -> 1) >->  (H -> D)  ->>  (im a -> D)
    For each level <= N: the first map is an injective homomorphism, the
    second a surjective homomorphism, and image = kernel in the middle.
    """
    rep = Report()
    main = build_nerve(xm, N)
    derived = derived_crossed_modules(xm)
    _, im_inc = image(xm.alpha, name="im")
    _, cok_proj = cokernel(xm.alpha, name="coker")
    ker_g, ker_inc = kernel(xm.alpha, name="ker")
    im_back = {int(v): i for i, v in enumerate(im_inc.mapping)}

    n_toim = build_nerve(derived["to-image"], N)
    n_cok = build_nerve(derived["coker-base"], N)
    n_ker = build_nerve(derived["kernel-fiber"], N)
    n_imb = build_nerve(derived["image-in-base"], N)

    okr = ker_g.order
    for n in range(N + 1):
        # A: include (H -> im)-chains, project anchors to the cokernel
        radix = _nerve_radix(xm, n)
        d_s, *hs_s = _radix_digits(_nerve_radix(derived["to-image"], n))
        inj_a = _radix_encode([im_inc.mapping[d_s]] + hs_s, radix, len(d_s))
        d_m, *hs_m = _radix_digits(radix)
        # coker-base nerve has trivial fiber: its level-n index is the anchor
        proj_a = cok_proj.mapping[d_m]
        rep.add(f"A-inj-hom@{n}",
                np.array_equal(inj_a[n_toim.groups[n].table],
                               main.groups[n].table[np.ix_(inj_a, inj_a)]))
        rep.add(f"A-inj@{n}", len(set(int(v) for v in inj_a)) == n_toim.sizes[n])
        rep.add(f"A-proj-hom@{n}",
                np.array_equal(proj_a[main.groups[n].table],
                               n_cok.groups[n].table[np.ix_(proj_a, proj_a)]))
        rep.add(f"A-onto@{n}", len(set(int(v) for v in proj_a)) == n_cok.sizes[n])
        ker_mid = set(int(v) for v in
                      np.flatnonzero(proj_a == n_cok.groups[n].identity))
        rep.add(f"A-exact@{n}", ker_mid == set(int(v) for v in inj_a))

        # B: include (ker -> 1)-chains, push fibers forward along alpha
        _d_k, *hs_k = _radix_digits(_nerve_radix(derived["kernel-fiber"], n))
        inj_b = _radix_encode([xm.D.identity] + [ker_inc.mapping[h] for h in hs_k],
                              radix, okr ** n)
        al_im = np.array([im_back[int(v)] for v in xm.alpha.mapping], dtype=np.int64)
        proj_b = _radix_encode([d_m] + [al_im[h] for h in hs_m],
                               _nerve_radix(derived["image-in-base"], n), len(d_m))
        rep.add(f"B-inj-hom@{n}",
                np.array_equal(inj_b[n_ker.groups[n].table],
                               main.groups[n].table[np.ix_(inj_b, inj_b)]))
        rep.add(f"B-inj@{n}", len(set(int(v) for v in inj_b)) == n_ker.sizes[n])
        rep.add(f"B-proj-hom@{n}",
                np.array_equal(proj_b[main.groups[n].table],
                               n_imb.groups[n].table[np.ix_(proj_b, proj_b)]))
        rep.add(f"B-onto@{n}", len(set(int(v) for v in proj_b)) == n_imb.sizes[n])
        ker_mid = set(int(v) for v in
                      np.flatnonzero(proj_b == n_imb.groups[n].identity))
        rep.add(f"B-exact@{n}", ker_mid == set(int(v) for v in inj_b))
    return rep
