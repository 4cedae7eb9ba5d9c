"""Independently written reference checks used by the test suite.

Everything here is deliberately written in the most naive style possible
(scalar loops, no shared helpers from the package internals) so that
agreement with the library is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def scan_group_axioms(table: np.ndarray) -> list[str]:
    """Brute-force group axioms on a multiplication table."""
    n = len(table)
    bad = []
    if any(table[a][b] < 0 or table[a][b] >= n
           for a in range(n) for b in range(n)):
        return ["range"]
    assoc = all(table[table[a][b]][c] == table[a][table[b][c]]
                for a in range(n) for b in range(n) for c in range(n))
    if not assoc:
        bad.append("associativity")
    ident = [e for e in range(n)
             if all(table[e][a] == a and table[a][e] == a for a in range(n))]
    if len(ident) != 1:
        bad.append("identity")
    else:
        e = ident[0]
        if not all(any(table[a][b] == e and table[b][a] == e
                       for b in range(n)) for a in range(n)):
            bad.append("inverses")
    return bad


def scan_xmod_axioms(xm) -> list[str]:
    """Exhaustive crossed-module axiom scan, written from the definitions."""
    H, D = xm.H, xm.D
    alpha = xm.alpha.mapping
    act = xm.action.table
    bad = []
    bad += [f"H-{b}" for b in scan_group_axioms(H.table)]
    bad += [f"D-{b}" for b in scan_group_axioms(D.table)]
    if bad:
        return bad
    eh, ed = H.identity, D.identity
    if int(alpha[eh]) != ed:
        bad.append("alpha-identity")
    if not all(int(alpha[H.table[h1][h2]])
               == int(D.table[alpha[h1]][alpha[h2]])
               for h1 in range(H.order) for h2 in range(H.order)):
        bad.append("alpha-hom")
    if not all(int(act[ed][h]) == h for h in range(H.order)):
        bad.append("action-identity")
    if not all(int(act[d][H.table[h1][h2]])
               == int(H.table[act[d][h1]][act[d][h2]])
               for d in range(D.order)
               for h1 in range(H.order) for h2 in range(H.order)):
        bad.append("action-automorphism")
    if not all(int(act[D.table[d1][d2]][h]) == int(act[d1][act[d2][h]])
               for d1 in range(D.order) for d2 in range(D.order)
               for h in range(H.order)):
        bad.append("action-hom")
    if not all(int(alpha[act[d][h]])
               == int(D.table[D.table[d][alpha[h]]][D.inverses[d]])
               for d in range(D.order) for h in range(H.order)):
        bad.append("equivariance")
    if not all(int(act[alpha[h]][h2])
               == int(H.table[H.table[h][h2]][H.inverses[h]])
               for h in range(H.order) for h2 in range(H.order)):
        bad.append("peiffer")
    return bad


def scan_sigma_bar(tp) -> list[str]:
    """Scalar-loop check of the fiber-coordinate equivariance on a product.

    Writing p = (g, x) for a total-space simplex and sigma(p) = g for its
    fiber coordinate, the 0-face must satisfy
        d0(sigma(p)) = sigma(d0(p)) * tau(x)^-1
    while every face i >= 1 and the projection must act coordinatewise:
        sigma(d_i(p)) = d_i(g),   proj(d_i(p)) = d_i(x).
    Returns the list of violated identities (empty when all hold).  The
    builder computes faces by the explicit product formula; this transcribes
    the equivariance law instead, so the two routes are independent.
    """
    t = tp.twisting
    g, x = t.group, t.base
    total = tp.total
    bad = []
    for n in range(1, total.N + 1):
        xs = x.sizes[n]
        xs_down = x.sizes[n - 1]
        grp = g.groups[n - 1]
        for p in range(total.sizes[n]):
            gi, xi = divmod(p, xs)
            tau = int(t.values[n][xi])
            q = int(total.faces[n][0][p])
            qg, qx = divmod(q, xs_down)
            if grp.mul(qg, grp.inv(tau)) != int(g.faces[n][0][gi]):
                bad.append(f"sigma-d0@{n}:{p}")
            if qx != int(x.faces[n][0][xi]):
                bad.append(f"proj-d0@{n}:{p}")
            for i in range(1, n + 1):
                q = int(total.faces[n][i][p])
                qg, qx = divmod(q, xs_down)
                if qg != int(g.faces[n][i][gi]):
                    bad.append(f"sigma-d{i}@{n}:{p}")
                if qx != int(x.faces[n][i][xi]):
                    bad.append(f"proj-d{i}@{n}:{p}")
    return bad


def sympy_smith_invariants(a) -> list[int]:
    """Nonzero diagonal of the Smith form, via sympy."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    m = Matrix(a.tolist() if hasattr(a, "tolist") else a)
    if m.rows == 0 or m.cols == 0:
        return []
    s = smith_normal_form(m)
    out = []
    for i in range(min(s.rows, s.cols)):
        v = abs(int(s[i, i]))
        if v:
            out.append(v)
    return out


def brute_cech_h2_order(cover, group) -> int:
    """|H^2| of a cover with coefficients in a finite abelian group.

    Cocycles on increasing triples (tetrahedron condition) divided by
    coboundaries of increasing-pair cochains, counted by direct
    enumeration.  Only usable on very small instances.
    """
    import itertools
    pairs = cover.simplices(1)
    triples = cover.simplices(2)
    quads = cover.simplices(3)
    n = group.order
    tbl = group.table
    inv = group.inverses

    def add(a, b):
        return int(tbl[a][b])

    def neg(a):
        return int(inv[a])

    cocycles = set()
    for vals in itertools.product(range(n), repeat=len(triples)):
        h = dict(zip(triples, vals))
        ok = True
        for (a, b, c, d) in quads:
            s = add(add(h[(b, c, d)], neg(h[(a, c, d)])),
                    add(h[(a, b, d)], neg(h[(a, b, c)])))
            if s != group.identity:
                ok = False
                break
        if ok:
            cocycles.add(vals)
    if not cocycles:
        return 0
    coboundaries = set()
    for vals in itertools.product(range(n), repeat=len(pairs)):
        g = dict(zip(pairs, vals))
        cb = tuple(add(add(g[(b, c)], neg(g[(a, c)])), g[(a, b)])
                   for (a, b, c) in triples)
        coboundaries.add(cb)
    return len(cocycles) // len(coboundaries)


def brute_simplicial_maps(x, y) -> list[tuple]:
    """Encodings of every simplicial map x -> y, by level-wise brute force.

    Level 0 is every function X_0 -> Y_0; each map found so far is then
    extended to level n in every way a scalar scan of the raw face and
    degeneracy arrays allows: an image of z must have the images of z's
    faces as its faces, and s_i a must go to s_i of the image of a.  Only
    usable on very small instances; shares nothing with the search engine.
    """
    import itertools
    partial = [[vals] for vals in itertools.product(range(y.sizes[0]),
                                                    repeat=x.sizes[0])]
    for n in range(1, x.N + 1):
        grown = []
        for levels in partial:
            below = levels[n - 1]
            options = []
            for z in range(x.sizes[n]):
                ok = []
                for v in range(y.sizes[n]):
                    if any(int(y.faces[n][i][v]) != below[int(x.faces[n][i][z])]
                           for i in range(n + 1)):
                        continue
                    if any(int(x.degens[n - 1][i][a]) == z
                           and int(y.degens[n - 1][i][below[a]]) != v
                           for i in range(n) for a in range(x.sizes[n - 1])):
                        continue
                    ok.append(v)
                options.append(ok)
            for vals in itertools.product(*options):
                grown.append(levels + [vals])
        partial = grown
    return sorted(tuple(tuple(lvl) for lvl in levels) for levels in partial)


def relabel(xm, perm_h, perm_d):
    """The same crossed module with every label moved along a permutation.

    Element a of H becomes perm_h[a] and element d of D becomes perm_d[d]:
    both multiplication tables, alpha and the action are transported by
    scalar loops, so the identities may land on any label.
    """
    from xmodgerbe.fingroup import (CrossedModule, FiniteGroup, GroupAction,
                                    GroupHom)
    nh, nd = xm.H.order, xm.D.order

    def moved(table, perm):
        n = len(perm)
        out = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                out[perm[a]][perm[b]] = perm[int(table[a][b])]
        return np.array(out, dtype=np.int64)

    H = FiniteGroup(moved(xm.H.table, perm_h), name=xm.H.name)
    D = FiniteGroup(moved(xm.D.table, perm_d), name=xm.D.name)
    alpha = [0] * nh
    for a in range(nh):
        alpha[perm_h[a]] = perm_d[int(xm.alpha.mapping[a])]
    action = [[0] * nh for _ in range(nd)]
    for d in range(nd):
        for a in range(nh):
            action[perm_d[d]][perm_h[a]] = perm_h[int(xm.action.table[d][a])]
    return CrossedModule(H, D, GroupHom(H, D, np.array(alpha), name="alpha"),
                         GroupAction(D, H, np.array(action)), name=xm.name)


def naive_duskin(xm, N):
    """(sizes, faces, degens, labels) of the 2-categorical nerve, one simplex
    at a time.

    A level-n simplex is (ds, hs): spine edges d_{i,i+1} and the triangles
    h_{i,i+1,k}, listed in itertools.product order.  Every other edge and
    triangle label is derived from the pasting conditions by scalar table
    reads, and each face or degeneracy is found by looking up the re-read
    free data in a dict.
    """
    import itertools
    dt, ht = xm.D.table.tolist(), xm.H.table.tolist()
    dinv, hinv = xm.D.inverses.tolist(), xm.H.inverses.tolist()
    al, act = xm.alpha.mapping.tolist(), xm.action.table.tolist()
    ed, eh = xm.D.identity, xm.H.identity

    def free(n):
        return [(i, k) for i in range(n - 1) for k in range(i + 2, n + 1)]

    def derive(n, ds, hs):
        d = {(i, i + 1): ds[i] for i in range(n)}
        h = {(i, i + 1, k): hs[t] for t, (i, k) in enumerate(free(n))}
        for i in range(n - 2, -1, -1):
            for k in range(i + 2, n):
                for l in range(k + 1, n + 1):
                    a = hinv[h[(i, i + 1, k)]]
                    b = act[d[(i, i + 1)]][h[(i + 1, k, l)]]
                    h[(i, k, l)] = ht[ht[a][b]][h[(i, i + 1, l)]]
            for k in range(i + 2, n + 1):
                da = al[h[(i, i + 1, k)]]
                d[(i, k)] = dt[dt[dinv[da]][d[(i, i + 1)]]][d[(i + 1, k)]]
        return d, h

    def read_free(m, vmap, d, h):
        ds = tuple(d[(vmap[i], vmap[i + 1])] if vmap[i] != vmap[i + 1] else ed
                   for i in range(m))
        hs = []
        for (i, k) in free(m):
            a, b, c = vmap[i], vmap[i + 1], vmap[k]
            hs.append(eh if a == b or b == c or a == c else h[(a, b, c)])
        return ds, tuple(hs)

    labels, index = [], []
    for n in range(N + 1):
        lvl = [(ds, hs)
               for ds in itertools.product(range(len(dt)), repeat=n)
               for hs in itertools.product(range(len(ht)), repeat=len(free(n)))]
        labels.append(lvl)
        index.append({t: i for i, t in enumerate(lvl)})
    faces = [[] for _ in range(N + 1)]
    degens = [[] for _ in range(N + 1)]
    for n in range(N + 1):
        derived = [derive(n, ds, hs) for ds, hs in labels[n]]
        if n >= 1:
            for j in range(n + 1):
                vmap = [m for m in range(n + 1) if m != j]
                faces[n].append([index[n - 1][read_free(n - 1, vmap, d, h)]
                                 for d, h in derived])
        if n < N:
            for j in range(n + 1):
                vmap = [m if m <= j else m - 1 for m in range(n + 2)]
                degens[n].append([index[n + 1][read_free(n + 1, vmap, d, h)]
                                  for d, h in derived])
    return [len(lvl) for lvl in labels], faces, degens, labels


def naive_wbar(g, N):
    """(sizes, faces, degens, labels) of the bar construction W-bar g, one
    simplex at a time.

    Level n lists the tuples (t_0, ..., t_{n-1}), t_k in G_{n-1-k}, in
    itertools.product order.  Faces and degeneracies follow the textbook
    formulas with scalar reads of g's face, degeneracy and multiplication
    arrays, and are found by looking the resulting tuple up in a dict.
    """
    import itertools
    gf = [[arr.tolist() for arr in lvl] for lvl in g.faces]
    gs = [[arr.tolist() for arr in lvl] for lvl in g.degens]
    tables = [grp.table.tolist() for grp in g.groups]
    ident = [grp.identity for grp in g.groups]

    def face(n, i, tup):
        if i == 0:
            return tup[1:]
        if i < n:
            head = tuple(gf[n - 1 - k][i - 1 - k][tup[k]] for k in range(i - 1))
            mid = tables[n - 1 - i][gf[n - i][0][tup[i - 1]]][tup[i]]
            return head + (mid,) + tup[i + 1:]
        return tuple(gf[n - 1 - k][n - 1 - k][tup[k]] for k in range(n - 1))

    def degen(n, j, tup):
        if j == 0:
            return (ident[n],) + tup
        head = tuple(gs[n - 1 - k][j - 1 - k][tup[k]] for k in range(j))
        return head + (ident[n - j],) + tup[j:]

    labels = [[()]]
    for n in range(1, N + 1):
        labels.append(list(itertools.product(
            *[range(len(tables[n - 1 - k])) for k in range(n)])))
    index = [{t: i for i, t in enumerate(lvl)} for lvl in labels]
    faces = [[[index[n - 1][face(n, i, t)] for t in labels[n]]
              for i in range(n + 1)] if n else [] for n in range(N + 1)]
    degens = [[[index[n + 1][degen(n, j, t)] for t in labels[n]]
               for j in range(n + 1)] if n < N else [] for n in range(N + 1)]
    return [len(lvl) for lvl in labels], faces, degens, labels


def brute_cocycles(cover, xm) -> list[tuple]:
    """(d, h) keys of every gerbe cocycle, by brute force.

    Runs over the whole product D^pairs x H^triples in itertools.product
    order, d first, and keeps the assignments satisfying the two laws of
    the gerbe module docstring:
        d_ab d_bc = alpha(h_abc) d_ac
        h_abc h_acd = (d_ab . h_bcd) h_abd
    Only usable on very small instances.
    """
    import itertools
    pairs = cover.simplices(1)
    triples = cover.simplices(2)
    quads = cover.simplices(3)
    dt, ht = xm.D.table, xm.H.table
    al, act = xm.alpha.mapping, xm.action.table
    out = []
    for dvals in itertools.product(range(xm.D.order), repeat=len(pairs)):
        d = dict(zip(pairs, dvals))
        for hvals in itertools.product(range(xm.H.order), repeat=len(triples)):
            h = dict(zip(triples, hvals))
            edges = all(int(dt[d[(a, b)]][d[(b, c)]])
                        == int(dt[al[h[(a, b, c)]]][d[(a, c)]])
                        for (a, b, c) in triples)
            tetras = all(int(ht[h[(a, b, c)]][h[(a, c, e)]])
                         == int(ht[act[d[(a, b)]][h[(b, c, e)]]][h[(a, b, e)]])
                         for (a, b, c, e) in quads)
            if edges and tetras:
                out.append((dvals, hvals))
    return out


def check_cocycle_loops(c, what):
    """Raise the StructureError `check_cocycle` raises for c, by scalar
    loops over its dicts as the package checked one cocycle before its
    table check: the d- and h-domains, the edge law d_ab d_bc =
    alpha(h_abc) d_ac on each triple, then the tetrahedron law
    h_abc h_acd = (d_ab . h_bcd) h_abd on each quad, in cover order."""
    from xmodgerbe.util import StructureError
    xm, cover = c.xm, c.cover
    dt, ht = xm.D.table, xm.H.table
    al, act = xm.alpha.mapping, xm.action.table
    d, h = c.d, c.h
    if (set(d) != set(cover.simplices(1))
            or not all(0 <= v < xm.D.order for v in d.values())):
        raise StructureError(f"{what}: d-domain")
    if (set(h) != set(cover.simplices(2))
            or not all(0 <= v < xm.H.order for v in h.values())):
        raise StructureError(f"{what}: h-domain")
    for (a, b, cc) in cover.simplices(2):
        if dt[d[(a, b)], d[(b, cc)]] != dt[al[h[(a, b, cc)]], d[(a, cc)]]:
            raise StructureError(f"{what}: edge@{a},{b},{cc}")
    for (a, b, cc, e) in cover.simplices(3):
        lhs = ht[h[(a, b, cc)], h[(a, cc, e)]]
        rhs = ht[act[d[(a, b)], h[(b, cc, e)]], h[(a, b, e)]]
        if lhs != rhs:
            raise StructureError(f"{what}: tetra@{a},{b},{cc},{e}")


def completions(cover, xm, d, budget=None):
    """Every h completing the d-assignment `d` (a dict over the cover's
    pairs) to a cocycle, as dicts over the triples, depth-first in
    lexicographic order.

    h_abc runs over the alpha-preimage of d_ab d_bc d_ac^-1 in ascending
    order, one `budget` step for each value set, and the tetrahedron law of
    a quad is checked as soon as its last triple is set; a d with an empty
    preimage on some triple has no completion and charges nothing.
    """
    triples = cover.simplices(2)
    dt, ht = xm.D.table, xm.H.table
    al, act = xm.alpha.mapping, xm.action.table
    cosets = []
    for (a, b, c) in triples:
        x = int(dt[dt[d[(a, b)]][d[(b, c)]]][xm.D.inverses[d[(a, c)]]])
        cosets.append([v for v in range(xm.H.order) if int(al[v]) == x])
    if not all(cosets):
        return
    last = {t: [] for t in triples}
    for (a, b, c, e) in cover.simplices(3):
        faces = [(a, b, c), (a, c, e), (b, c, e), (a, b, e)]
        last[max(faces, key=triples.index)].append(faces)
    h = {}

    def extend(i):
        if i == len(triples):
            yield dict(h)
            return
        for v in cosets[i]:
            if budget is not None:
                budget.spend()
            h[triples[i]] = v
            if all(int(ht[h[abc]][h[ace]])
                   == int(ht[act[d[abc[:2]]][h[bce]]][h[abe]])
                   for abc, ace, bce, abe in last[triples[i]]):
                yield from extend(i + 1)
        del h[triples[i]]

    yield from extend(0)


def dfs_cocycles(cover, xm):
    """(d rows, h rows) of every gerbe cocycle in lexicographic order: d
    runs over D^pairs in itertools.product order and each d over its
    `completions`, the depth-first enumeration the package used before its
    array frontier."""
    import itertools
    pairs, triples = cover.simplices(1), cover.simplices(2)
    ds, hs = [], []
    for dvals in itertools.product(range(xm.D.order), repeat=len(pairs)):
        for h in completions(cover, xm, dict(zip(pairs, dvals))):
            ds.append(list(dvals))
            hs.append([h[t] for t in triples])
    return ds, hs


def lift_one(plan, c, budget=None):
    """(lifted h as a dict or None, obstruction zero, agreement, defect) of
    one cocycle over the image module, as `LiftPlan.lift` computed them
    one cocycle at a time before the table lift: the first of c's
    `completions` for the target, and, when the obstruction is emitted,
    the defect of the set-level lift taking the least value of every coset,
    in `plan.coord`'s kernel coordinates per quad, with a fresh
    `solve_mod` per cyclic modulus.  The rest are None when not emitted."""
    from xmodgerbe.intlinalg import solve_mod
    xm, cover = plan.xm, plan.cover
    lifted = next(completions(cover, xm, c.d, budget), None)
    if not plan.emitted:
        return lifted, None, None, None
    ht, hinv, act = xm.H.table, xm.H.inverses, xm.action.table
    dt, dinv, al = xm.D.table, xm.D.inverses, xm.alpha.mapping
    ref = {}
    for (a, b, cc) in cover.simplices(2):
        x = dt[dt[c.d[(a, b)]][c.d[(b, cc)]]][dinv[c.d[(a, cc)]]]
        ref[(a, b, cc)] = min(v for v in range(xm.H.order) if al[v] == x)
    defect = {}
    for (a, b, cc, e) in plan.quads:
        lhs = ht[ref[(a, b, cc)]][ref[(a, cc, e)]]
        rhs = ht[act[c.d[(a, b)]][ref[(b, cc, e)]]][ref[(a, b, e)]]
        z = int(ht[hinv[rhs]][lhs])
        assert al[z] == xm.D.identity, "defect outside ker alpha"
        defect[(a, b, cc, e)] = tuple(int(v) for v in plan.coord[z])
    zero = all(
        solve_mod(plan.mat, [(-defect[q][ci]) % m for q in plan.quads],
                  m) is not None
        for ci, m in enumerate(plan.moduli)) if plan.quads else True
    return lifted, zero, (lifted is not None) == zero, defect


@dataclass
class StableWitness:
    """(r_a, s_ab) data acting on cocycles; any assignment is allowed."""

    r: dict[int, int]
    s: dict[tuple[int, int], int]


def identity_witness(cover, xm) -> StableWitness:
    return StableWitness({a: xm.D.identity for a in range(cover.charts)},
                         {p: xm.H.identity for p in cover.simplices(1)})


def apply_witness(c, w: StableWitness):
    """Act on a GerbeCocycle by a witness, one value at a time; the result is
    re-validated by `check_cocycle_loops`.

    d'_ab  = r_a alpha(s_ab) d_ab r_b^-1
    h'_abc = (r_a . s_ab)(r_a d_ab . s_bc)(r_a . h_abc)(r_a . s_ac)^-1

    A validation failure of the output is a hard error: it would mean the
    transformation law itself is wrong, not the input.
    """
    from xmodgerbe.gerbe import GerbeCocycle
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
    check_cocycle_loops(out, "witness action broke the cocycle conditions")
    return out


def search_orbits(cocycles, budget=None):
    """(least keys, orbit sizes, orbit_of) of the witness orbits of every
    cocycle in `cocycles` (GerbeCocycles), by graph search over the keys.

    From the least key not yet reached, every single-chart r change and
    single-pair s change (never to the identity) is applied by
    `apply_witness` to each cocycle the search reaches, one `budget` step
    each; orbits are listed by their least key and orbit_of[i] names the
    orbit of cocycles[i].  A key outside `cocycles` is an AssertionError.
    """
    cocycles = list(cocycles)
    cover, xm = cocycles[0].cover, cocycles[0].xm
    gens = []
    base = identity_witness(cover, xm)
    for a in range(cover.charts):
        for dval in range(xm.D.order):
            if dval != xm.D.identity:
                gens.append(StableWitness({**base.r, a: dval}, base.s))
    for p in cover.simplices(1):
        for hval in range(xm.H.order):
            if hval != xm.H.identity:
                gens.append(StableWitness(base.r, {**base.s, p: hval}))
    keys = [c.key() for c in cocycles]
    index = dict(zip(keys, cocycles))
    least: dict[tuple, tuple] = {}     # cocycle key -> its orbit's least key
    sizes: dict[tuple, int] = {}
    for k in sorted(index):
        if k in least:
            continue
        orbit = {k}
        frontier = [index[k]]
        while frontier:
            cur = frontier.pop()
            for w in gens:
                if budget is not None:
                    budget.spend()
                nxt = apply_witness(cur, w)
                nk = nxt.key()
                assert nk in index, "witness action left the cocycle set"
                if nk not in orbit:
                    orbit.add(nk)
                    frontier.append(nxt)
        least.update(dict.fromkeys(orbit, min(orbit)))
        sizes[min(orbit)] = len(orbit)
    firsts = sorted(sizes)
    position = {k: i for i, k in enumerate(firsts)}
    return firsts, [sizes[k] for k in firsts], [position[least[k]] for k in keys]


def naive_nerve(xm, N):
    """(tables, faces, degens) of the nerve of a crossed module, one element
    at a time.

    Level n lists the chains (d; h_1, ..., h_n) in itertools.product order,
    so that the index of a chain is d |H|^n + sum h_i |H|^(n-i).  The
    vertices of a chain are v_0 = d, v_i = alpha(h_i) v_{i-1}; the product
    of two chains multiplies the anchors and puts h_i (v_{i-1} . h'_i) in
    slot i, v taken from the left factor.  d_0 drops h_1 and moves the
    anchor to alpha(h_1) d, d_i (0 < i < n) puts h_{i+1} h_i in place of
    h_i, h_{i+1}, d_n drops h_n, and s_i inserts the identity of H after the
    first i slots.  Every result is found by looking the chain up in a dict.
    """
    import itertools
    dt, ht = xm.D.table.tolist(), xm.H.table.tolist()
    al, act = xm.alpha.mapping.tolist(), xm.action.table.tolist()
    eh = xm.H.identity
    chains = [list(itertools.product(range(len(dt)), *[range(len(ht))] * n))
              for n in range(N + 1)]
    index = [{c: i for i, c in enumerate(lvl)} for lvl in chains]
    tables = []
    for n in range(N + 1):
        table = []
        for c in chains[n]:
            v = [c[0]]
            for hi in c[1:]:
                v.append(dt[al[hi]][v[-1]])
            row = []
            for c2 in chains[n]:
                prod = (dt[c[0]][c2[0]],) + tuple(
                    ht[c[i]][act[v[i - 1]][c2[i]]] for i in range(1, n + 1))
                row.append(index[n][prod])
            table.append(row)
        tables.append(table)

    def face(n, i, c):
        if i == 0:
            return (dt[al[c[1]]][c[0]],) + c[2:]
        if i < n:
            return c[:i] + (ht[c[i + 1]][c[i]],) + c[i + 2:]
        return c[:-1]

    faces = [[[index[n - 1][face(n, i, c)] for c in chains[n]]
              for i in range(n + 1)] if n else [] for n in range(N + 1)]
    degens = [[[index[n + 1][c[:i + 1] + (eh,) + c[i + 1:]] for c in chains[n]]
               for i in range(n + 1)] if n < N else [] for n in range(N + 1)]
    return tables, faces, degens


def brute_automorphisms(g) -> list[list[int]]:
    """Value lists of every automorphism of g, in lexicographic order: the
    permutations of its elements that preserve the multiplication table."""
    import itertools
    t = g.table.tolist()
    n = len(t)
    return [list(p) for p in itertools.permutations(range(n))
            if all(p[t[a][b]] == t[p[a]][p[b]]
                   for a in range(n) for b in range(n))]


def map_rows(f):
    """The maps of a stacked SimplicialMap, one per row."""
    from xmodgerbe.simplicial import SimplicialMap
    return [SimplicialMap(f.source, f.target, [lvl[j] for lvl in f.levels],
                          name=f"{f.name}[{j}]")
            for j in range(len(f.levels[0]))]


def gauge_partition(xm, match, maps):
    """Homotopy classes of maps f: X -> W-bar N(H -> D) into the W-bar of
    `match`, decided as gauge classes of the pulled-back twistings f*tau by
    search alone: every item is tested with `twistings_equivalent` against
    one representative per class, as `partition` does.

    Maps X -> W-bar G up to homotopy are twistings X -> G up to gauge
    equivalence (May, Simplicial Objects in Algebraic Topology, 18-21), so
    the searches run over X, not X x Delta[1], each with the default
    budget.  The map-homotopy cross-check of `gerbe-classify` merges along
    certified generator moves instead; this is the search-only reference it
    is held to."""
    from xmodgerbe.simplicial import partition
    from xmodgerbe.twist import Twisting, pullback_twisting, twistings_equivalent
    from xmodgerbe.util import Budget
    from xmodgerbe.xnerve import build_nerve
    # tau takes values in levels 0-2 of the nerve; a gauge on X reaches
    # level 3, whose lower levels are the same tables
    tau = Twisting(match.wbar, build_nerve(xm, 3), list(match.tau.values))
    twistings = [pullback_twisting(tau, f) for f in maps]
    classes, _ = partition(
        len(twistings),
        lambda r, i, _b: twistings_equivalent(
            twistings[r], twistings[i],
            budget=Budget(what="gauge equivalence")))
    return classes
