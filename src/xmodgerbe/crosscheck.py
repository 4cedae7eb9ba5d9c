"""The map-homotopy cross-check of `gerbe-classify`: classes merged by
certified gauges, split by exhausted searches.

The classification theorem H^1(X; H -> D) = [X, B|N(H -> D)|] counts the
stable classes of gerbe cocycles a second way, as homotopy classes of the
cocycles' maps f: X<= -> W-bar N(H -> D) out of the ordered cover nerve.
Maps into W-bar G up to homotopy are twistings into G up to gauge
equivalence (May, Simplicial Objects in Algebraic Topology, 18-21), so the
classes are gauge classes of the pulled-back twistings f*tau.

`certified_classes` merges two classes only along an edge whose gauge
passed `twist._check_witness`: the spanning forest of the classification's
orbits proposes the edges, and `move_gauge` writes each one's gauge down in
closed form.  A class is founded only once `twistings_equivalent` searches
have refuted every earlier class's representative.  Only `gerbe-classify`
loads this module.
"""
from __future__ import annotations

import numpy as np

from .gerbe import GerbeClassification, _slots, _spanning, ordered_cocycle_maps
from .simplicial import CoverComplex, SimplicialMap, partition
from .twist import (Twisting, _check_witness, pullback_twisting,
                    twistings_equivalent)
from .util import Budget
from .xnerve import build_nerve, match_wbar_duskin

__all__ = ["certified_classes", "move_gauge"]

# rows of the stacked arrays (cocycles, or the edges of one move) handled
# at once: it bounds the temporaries of the map gathers and the batched
# law checks
BLOCK = 4096


def move_gauge(t1: Twisting, t2: Twisting, cover: CoverComplex,
               r: np.ndarray, s: np.ndarray) -> SimplicialMap:
    """The gauge psi: X<= -> N(H -> D) that the generator move (r, s) gives
    from tau1 = f_c*tau to tau2 = f_{g.c}*tau, written down for a stack of
    edges c -> g.c: t1 and t2 are the stacks of their pulled-back
    twistings, on the ordered nerve of `cover`, whose pairs s runs over.

    psi(a) = r_a^-1 on a chart, and psi(a, b) = (r_a^-1; s_ab^-1), with the
    identity of H for a = b.  On a level-n simplex z, n >= 2, psi(z) is the
    digits of psi(d_n z) followed by the last H digit of tau1(z) psi(d_0 z)
    tau2(z)^-1 in N_{n-1}.  Nothing here is trusted: `_check_witness`
    checks every row."""
    x, group = t1.base, t1.group
    H = group.xm.H
    s_inv = np.append(H.inverses[s], H.identity)
    psi = [np.broadcast_to(group.xm.D.inverses[r],
                           (len(t1.values[1]), x.sizes[0]))]
    psi.append(psi[0][:, x.faces[1][1]] * H.order
               + s_inv[_slots(cover, x, 1)])
    for n in range(2, x.N + 1):
        grp = group.groups[n - 1]
        last = grp.table[grp.table[t1.values[n], psi[n - 1][:, x.faces[n][0]]],
                         grp.inverses[t2.values[n]]] % H.order
        psi.append(psi[n - 1][:, x.faces[n][n]] * H.order + last)
    return SimplicialMap(x, group.sset(), psi, name="psi")


def certified_classes(cl: GerbeClassification,
                      budget_limit: int) -> tuple[list[list[int]], dict]:
    """The homotopy classes of the maps X<= -> W-bar N(H -> D) of the
    cocycles of `cl`, decided as gauge classes of the pulled-back twistings
    f*tau, and counts of how the merges and splits were decided.

    `ordered_cocycle_maps` writes the maps down from the cocycle table a
    block of rows at a time.  Classes are merged along the spanning forest
    of the orbits that the generator moves of `cl` carry: `move_gauge`
    writes down each forest edge's gauge, and the edges whose gauge passes
    `_check_witness` join their ends (`_spanning`).  The least rows of the
    components are then partitioned by `twistings_equivalent` searches, so
    a class is founded only once every earlier class's representative is
    refuted.  The moves only propose edges: a gauge that fails its check
    costs a search, never a verdict.  Classes come out as `partition` gives
    them, rows ascending and first members first, and each model and
    search gets a budget of the run's limit."""
    xm = cl.xm
    match = match_wbar_duskin(xm, N=3,
                              budget=Budget(budget_limit, what="dictionary"))
    # tau takes values in levels 0-2 of the nerve; a gauge on X reaches
    # level 3, whose lower levels are the same tables
    group = build_nerve(xm, 3, budget=Budget(budget_limit, what="nerve"))
    tau = Twisting(match.wbar, group, list(match.tau.values))
    table = cl.cocycles
    pulled = [pullback_twisting(tau, ordered_cocycle_maps(
        table[lo:lo + BLOCK], match, budget=Budget(budget_limit, what="nerve")))
        for lo in range(0, len(table), BLOCK)]
    x = pulled[0].base
    values = [np.concatenate([t.values[n] for t in pulled])
              for n in range(x.N + 1)]
    del pulled

    def stack(rows) -> Twisting:
        """The pulled-back twistings of `rows`, an int or an index array."""
        return Twisting(x, group, values[:1] + [v[rows] for v in values[1:]])
    stats = {"certified": 0, "failed": 0, "searches": 0, "refuted": 0}
    ends = [np.zeros((2, 0), dtype=np.intp)]     # the passed edges' ends
    for r, s, perm, edges in cl.moves:
        for k in range(0, len(edges), BLOCK):
            rows = edges[k:k + BLOCK]
            t1, t2 = stack(rows), stack(perm[rows])
            psi = move_gauge(t1, t2, table.cover, r, s)
            ok = _check_witness(t1, t2, psi).rows
            stats["certified"] += int(ok.sum())
            stats["failed"] += int((~ok).sum())
            ends.append(np.sort((rows, perm[rows]), axis=0)[:, ok])
    label = _spanning(*np.hstack(ends), len(table))[1]
    reps = np.flatnonzero(label == np.arange(len(table))).tolist()

    def decide(a: int, b: int, _budget):
        stats["searches"] += 1
        w = twistings_equivalent(
            stack(reps[a]), stack(reps[b]),
            budget=Budget(budget_limit, what="gauge equivalence"))
        stats["refuted"] += w is None
        return w
    joined, _ = partition(len(reps), decide)
    class_of = np.empty(len(table), dtype=np.intp)
    for c, members in enumerate(joined):
        class_of[[reps[i] for i in members]] = c
    class_of = class_of[label]
    order = np.argsort(class_of, kind="stable")
    cuts = np.cumsum(np.bincount(class_of, minlength=len(joined)))[:-1]
    return [rows.tolist() for rows in np.split(order, cuts)], stats
