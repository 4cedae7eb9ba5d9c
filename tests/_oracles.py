"""Independently written reference checks used by the test suite.

Everything here is deliberately written in the most naive style possible
(scalar loops, no shared helpers from the package internals) so that
agreement with the library is meaningful.
"""

from __future__ import annotations

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
