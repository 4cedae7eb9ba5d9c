"""Twistings, twisted products, and bundle classification."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from xmodgerbe import crosscheck, gerbe
from xmodgerbe.cli import parse_xmod
from xmodgerbe.fingroup import (cyclic_group, preset_corpus, symmetric_group,
                                xmod_automorphism, xmod_identity, xmod_mod,
                                xmod_trivial_base, xmod_trivial_fiber)
from xmodgerbe.gerbe import (classify_gerbes, cocycle_to_simplicial_map,
                             enumerate_cocycles, ordered_cocycle_maps)
from xmodgerbe.simplicial import (CoverComplex, SimplicialMap, _Search,
                                  ball_cover, circle, circle_cover, constant_simplicial_group,
                                  cover_nerve, homotopy_classes, sphere_cover,
                                  validate_map, validate_simplicial)
from xmodgerbe.twist import (Twisting, _check_witness, _twisting_spec,
                             build_twisted_product, build_wbar,
                             classify_bundles, enumerate_twistings,
                             pullback_twisting, twistings_equivalent,
                             validate_twisting)
from xmodgerbe.util import DEFAULT_BUDGET, Budget, StructureError
from xmodgerbe.xnerve import build_nerve, match_wbar_duskin

from _oracles import (dfs_cocycles, gauge_partition, map_rows, naive_wbar,
                      relabel, scan_sigma_bar)


def test_enumerate_twistings_circle_s3():
    sg = constant_simplicial_group(symmetric_group(3), 2)
    ts = enumerate_twistings(circle(2), sg, budget=Budget(what="tw"))
    # one free value on the nondegenerate loop, forced elsewhere
    assert len(ts) == 6
    for t in ts:
        assert validate_twisting(t).ok


@pytest.mark.parametrize("group, nodes, digest, bundle_nodes", [
    (symmetric_group(3), 49,
     "a556136db2fec21ee989f5b37f6c70d315aeb9b1b99a812feb5e158dec15c79e", 99),
    (cyclic_group(4), 33,
     "0a3e9967386f7bae8f041959edebb1c0e220a8640297b3e2a76c323bb477dd53", 67),
], ids=["S3", "Z4"])
def test_twisting_search_is_pinned(group, nodes, digest, bundle_nodes):
    # node counts of the twisting enumeration and of the whole bundle
    # classification on circle(3), and the unsorted solution sequence,
    # which follows the engine's pick order
    x = circle(3)
    sg = constant_simplicial_group(group, 3)
    budget = Budget(what="tw")
    enumerate_twistings(x, sg, budget=budget)
    assert budget.used == nodes
    sha = hashlib.sha256()
    for values in _Search(_twisting_spec(x, sg), Budget(what="tw")).solutions():
        sha.update(repr([[values[n][z] for z in range(x.sizes[n])]
                         for n in range(1, x.N + 1)]).encode())
    assert sha.hexdigest() == digest
    budget = Budget(what="bundles")
    classify_bundles(x, sg, budget=budget)
    assert budget.used == bundle_nodes


def test_twisting_corpus_size_and_validity(twisting_corpus):
    total = sum(len(ts) for _, _, ts in twisting_corpus)
    assert total >= 50
    for _, _, ts in twisting_corpus:
        for t in ts:
            assert validate_twisting(t).ok


def test_twisted_products_pass_both_routes(twisting_corpus):
    for base, sg, ts in twisting_corpus:
        for t in ts:
            tp = build_twisted_product(t)
            assert tp.report.ok, (t.name, tp.report.summary())
            assert validate_simplicial(tp.total).ok
            # independent scalar-loop transcription of the face laws
            assert scan_sigma_bar(tp) == []


def test_corrupted_twisting_rejected():
    sg = constant_simplicial_group(cyclic_group(4), 2)
    t = enumerate_twistings(circle(2), sg, budget=Budget(what="tw"))[1]
    bad_values = [v.copy() for v in t.values]
    bad_values[2][-1] = (bad_values[2][-1] + 1) % 4
    bad = Twisting(t.base, t.group, bad_values, name="bad")
    assert not validate_twisting(bad).ok
    with pytest.raises(StructureError):
        build_twisted_product(bad)


def test_classify_bundles_counts(bundle_counts):
    s3 = bundle_counts["S3"]
    z4 = bundle_counts["Z4"]
    assert len(s3.twisting_classes) == 3
    assert len(z4.twisting_classes) == 4
    for bc in (s3, z4):
        assert bc.bijection_ok
        assert len(bc.map_classes) == len(bc.twisting_classes)
        assert sorted(bc.matching) == list(range(len(bc.twisting_classes)))
        assert bc.report.ok


def test_witness_compose_and_invert():
    # a twisting has an equivalence witness to itself, none to an
    # inequivalent twisting
    sg = constant_simplicial_group(cyclic_group(4), 2)
    ts = enumerate_twistings(circle(2), sg, budget=Budget(what="tw"))
    t1 = ts[1]
    assert twistings_equivalent(t1, t1, budget=Budget(what="eq")) is not None
    t3 = ts[3]
    assert twistings_equivalent(t1, t3, budget=Budget(what="eq")) is None


def test_pullback_along_identity():
    sg = constant_simplicial_group(cyclic_group(4), 2)
    t = enumerate_twistings(circle(2), sg, budget=Budget(what="tw"))[1]
    x = t.base
    ident = SimplicialMap(x, x, [np.arange(n) for n in x.sizes], name="id")
    back = pullback_twisting(t, ident)
    assert validate_twisting(back).ok
    for a, b in zip(back.values, t.values):
        assert np.array_equal(a, b)


def test_wbar_sizes():
    w2, tau2 = build_wbar(constant_simplicial_group(cyclic_group(2), 3))
    assert w2.sizes == [1, 2, 4, 8]
    assert validate_simplicial(w2).ok
    assert validate_twisting(tau2).ok
    w6, _ = build_wbar(constant_simplicial_group(symmetric_group(3), 3))
    assert w6.sizes == [1, 6, 36, 216]


def test_wbar_universal_twisted_product():
    w, tau = build_wbar(constant_simplicial_group(cyclic_group(3), 2))
    tp = build_twisted_product(tau)
    assert tp.report.ok
    assert scan_sigma_bar(tp) == []
    # total space of the universal twisting is the contractible W construction
    assert tp.total.sizes == [3, 9, 27]


def test_wbar_matches_scalar_oracle():
    xm = xmod_mod(8, 4)
    moved = relabel(xm, list(range(7, -1, -1)), [1, 2, 3, 0])
    groups = [constant_simplicial_group(symmetric_group(3), 3),
              constant_simplicial_group(cyclic_group(2), 3),
              build_nerve(xm, 2), build_nerve(moved, 2)]
    assert all(grp.identity != 0 for grp in groups[-1].groups)
    for g in groups:
        w, tau = build_wbar(g, 3)
        labels = [[w.label(n, i) for i in range(w.sizes[n])] for n in range(4)]
        got = (w.sizes, [[a.tolist() for a in lvl] for lvl in w.faces],
               [[a.tolist() for a in lvl] for lvl in w.degens], labels)
        assert got == naive_wbar(g, 3), g.name
        for n in range(1, 4):
            assert tau.values[n].tolist() == [t[0] for t in labels[n]]


# ---------------------------------------------------------------------------
# the gauge route of the map-homotopy cross-check

SMALL = [xm for xm in preset_corpus() if xm.H.order * xm.D.order <= 16]
ROUTE_CASES = (
    [(f"{name}-{xm.name}", cover, xm, most)
     for name, cover, most in (("circle3", circle_cover(3), None),
                               ("ball3", ball_cover(3), None),
                               ("ball4", ball_cover(4), 48))
     for xm in SMALL]
    + [(f"sphere4-{spec}", sphere_cover(4), parse_xmod(spec), None)
       for spec in ("xmod_fiber:cyclic:2", "xmod_id:cyclic:2", "xmod_mod:2:2")])

# the route cases, and seven instances up to 65,536 cocycles on which the
# array frontier was first compared with the depth-first enumeration (two
# of them are route cases too)
FRONTIER_CASES = list({case[0]: case[:3] for case in ROUTE_CASES + [
    (f"{name}-{xm.name}", cover, xm, None) for name, cover, xm in (
        ("sphere4", sphere_cover(4), xmod_mod(4, 2)),
        ("sphere4", sphere_cover(4), xmod_automorphism(cyclic_group(3))),
        ("sphere4", sphere_cover(4), xmod_identity(cyclic_group(5))),
        ("circle3", circle_cover(3), xmod_trivial_base(symmetric_group(3))),
        ("circle3", circle_cover(3), xmod_trivial_base(symmetric_group(4))),
        ("ball4", ball_cover(4), xmod_automorphism(cyclic_group(3))),
        ("sphere5", sphere_cover(5), xmod_mod(4, 2)))]}.values())


@pytest.mark.parametrize("cover, xm", [c[1:] for c in FRONTIER_CASES],
                         ids=[c[0] for c in FRONTIER_CASES])
def test_enumeration_matches_the_depth_first_reference(cover, xm):
    # the same int64 arrays, row order included
    table = enumerate_cocycles(cover, xm)
    d, h = dfs_cocycles(cover, xm)
    assert d
    assert table.d.dtype == table.h.dtype == np.int64
    assert table.d.tolist() == d and table.h.tolist() == h
    assert table.d.shape == (len(d), len(cover.simplices(1)))
    assert table.h.shape == (len(d), len(cover.simplices(2)))


# the distinct covers of ROUTE_CASES, and a 6-chart family of triple and
# pair overlaps
INDEX_COVERS = {name.split("-")[0]: cover for name, cover, _, _ in ROUTE_CASES}
INDEX_COVERS["json6"] = CoverComplex.from_sets(
    6, [[0, 1, 2], [2, 3, 4], [1, 4, 5], [0, 5]])


@pytest.mark.parametrize("cover", INDEX_COVERS.values(), ids=INDEX_COVERS)
def test_cover_positions_and_faces_index_the_simplices(cover):
    # position(k) inverts simplices(k), column i of faces(k) is the
    # position of the tuple without its i-th chart, and the boundary
    # matrices built from the faces square to zero
    top = max(len(s) for s in cover.sets)
    for k in range(top + 1):
        simplices = cover.simplices(k)
        at = cover.position(k)
        assert len(at) == len(simplices)
        assert [at[s] for s in simplices] == list(range(len(simplices)))
        if k:
            assert cover.faces(k).shape == (len(simplices), k + 1)
            assert cover.faces(k).tolist() == [
                [cover.simplices(k - 1).index(s[:i] + s[i + 1:])
                 for i in range(k + 1)] for s in simplices]
    for k in (2, 3):
        product = (gerbe._boundary_matrix(cover, k - 1)
                   @ gerbe._boundary_matrix(cover, k))
        assert product.shape == (len(cover.simplices(k - 2)),
                                 len(cover.simplices(k)))
        assert not product.any()


def _strided(cocycles, most):
    """An evenly strided subset of at most `most` cocycles (all for None)."""
    return cocycles if most is None else cocycles[::-(-len(cocycles) // most)]


def _searched_maps(cocycles, match):
    """The cocycles' maps out of the full cover nerve, each extended by
    search, as the suite's other routes build them."""
    nerve, maps = None, []
    for c in cocycles:
        cm = cocycle_to_simplicial_map(c, match, nerve=nerve,
                                       budget=Budget(what="extension"))
        nerve = cm.nerve
        maps.append(cm.wbar_map)
    return maps


def _prism_classes(maps):
    return homotopy_classes(maps, budget=Budget(what="homotopy"))[0]


@pytest.mark.parametrize("cover, xm, most", [c[1:] for c in ROUTE_CASES],
                         ids=[c[0] for c in ROUTE_CASES])
def test_gauge_and_prism_routes_partition_alike(cover, xm, most):
    # homotopy of maps into W-bar (prism searches on X x Delta[1]) and
    # gauge equivalence of the pulled-back twistings (searches on X) must
    # give the same classes, first members included, on the full cover
    # nerve X.  ball:4 has up to 4,096 cocycles and is contractible; an
    # evenly strided subset of at most `most` is compared, as both routes
    # decide one relation.
    cocycles = _strided(enumerate_cocycles(cover, xm), most)
    match = match_wbar_duskin(xm, 3)
    maps = _searched_maps(cocycles, match)
    gauge = gauge_partition(xm, match, maps)
    assert gauge == _prism_classes(maps)


@pytest.mark.parametrize("cover, xm, most", [c[1:] for c in ROUTE_CASES],
                         ids=[c[0] for c in ROUTE_CASES])
def test_gauge_and_prism_routes_partition_alike_on_the_ordered_nerve(
        cover, xm, most):
    # the same two routes on the ordered nerve X<=, where the cross-check
    # of `gerbe-classify` runs, with the maps it writes down
    cocycles = _strided(enumerate_cocycles(cover, xm), most)
    match = match_wbar_duskin(xm, 3)
    maps = map_rows(ordered_cocycle_maps(cocycles, match))
    assert all(f.source.name.startswith("ordered-nerve") for f in maps)
    gauge = gauge_partition(xm, match, maps)
    assert gauge == _prism_classes(maps)


@pytest.mark.parametrize("cover, xm, most", [c[1:] for c in ROUTE_CASES],
                         ids=[c[0] for c in ROUTE_CASES])
def test_closed_form_maps_restrict_the_searched_maps(cover, xm, most):
    # every cocycle's closed-form map on X<= is the searched full-nerve map
    # restricted to the non-decreasing tuples; the full nerve lists every
    # tuple, so a tuple's label finds it there.  The gauge partitions of
    # the two sets of maps are the same, first members included (on the
    # strided subset, as above).
    cocycles = enumerate_cocycles(cover, xm)
    match = match_wbar_duskin(xm, 3)
    ordered = map_rows(ordered_cocycle_maps(cocycles, match))
    searched = _searched_maps(cocycles, match)
    x, full = ordered[0].source, searched[0].source
    where = [np.array([full.index(n, t) for t in x.labels[n]])
             for n in range(x.N + 1)]
    for c, f, g in zip(cocycles, ordered, searched):
        assert f.target is g.target is match.wbar
        for n in range(x.N + 1):
            assert np.array_equal(f.levels[n], g.levels[n][where[n]]), \
                (c.key(), n)
    keep = _strided(list(range(len(cocycles))), most)
    on_ordered = gauge_partition(xm, match, [ordered[i] for i in keep])
    on_full = gauge_partition(xm, match, [searched[i] for i in keep])
    assert on_ordered == on_full


def test_closed_form_map_refuses_a_wrong_gather(monkeypatch):
    # reading h_012 on the level-2 simplex (0, 0, 1), whose triangle has a
    # repeated chart and must read the identity, breaks the degeneracy
    # s_0 of the edge (0, 1): the map fails validate_map, and building it
    # is a StructureError
    xm = xmod_trivial_fiber(cyclic_group(2))
    cover = ball_cover(3)
    table = enumerate_cocycles(cover, xm)
    i = next(i for i, c in enumerate(table) if c.h[0, 1, 2] != xm.H.identity)
    one = table[i:i + 1]
    match = match_wbar_duskin(xm, 3)
    f = ordered_cocycle_maps(one, match)
    assert validate_map(f).ok
    x = f.source
    z = x.labels[2].index((0, 0, 1))
    real = gerbe._ordered_reads

    def misread(cover, x):
        reads = real(cover, x)
        (tri,) = reads[2][1]
        assert tri[z] == len(cover.simplices(2))      # the identity slot
        tri[z] = cover.simplices(2).index((0, 1, 2))
        return reads

    monkeypatch.setattr(gerbe, "_ordered_reads", misread)
    with pytest.raises(StructureError, match="degen-commutes-s0@1"):
        ordered_cocycle_maps(one, match)


def _pulled_back(cl):
    """The pulled-back twistings f*tau of cl's cocycles on X<=, one row per
    cocycle."""
    match = match_wbar_duskin(cl.xm, 3)
    tau = Twisting(match.wbar, build_nerve(cl.xm, 3), list(match.tau.values))
    return pullback_twisting(tau, ordered_cocycle_maps(cl.cocycles, match))


def _rows(t, rows):
    """The twistings of the stack t at `rows`."""
    return Twisting(t.base, t.group,
                    t.values[:1] + [v[rows] for v in t.values[1:]])


@pytest.mark.parametrize("cover, xm, most", [c[1:] for c in ROUTE_CASES],
                         ids=[c[0] for c in ROUTE_CASES])
def test_closed_form_gauges_pass_for_every_move(cover, xm, most):
    # for every (cocycle, generator) pair the gauge written down from the
    # move is a gauge from f_c*tau to f_{g.c}*tau: each move is checked on
    # all cocycles in one batched call
    cl = classify_gerbes(cover, xm)
    tw = _pulled_back(cl)
    for r, s, perm, _ in cl.moves:
        moved = _rows(tw, perm)
        psi = crosscheck.move_gauge(tw, moved, cover, r, s)
        rep = _check_witness(tw, moved, psi)
        assert rep.ok and rep.rows.shape == (len(cl.cocycles),)


@pytest.mark.parametrize("cover, xm, most", [c[1:] for c in ROUTE_CASES],
                         ids=[c[0] for c in ROUTE_CASES])
def test_the_moves_carry_a_spanning_forest_of_the_orbits(cover, xm, most):
    # the forest edges c -> perm[c] of the moves: one per merge of two
    # orbits, each inside one orbit, and together they join the orbits
    cl = classify_gerbes(cover, xm)
    ends = np.hstack([np.zeros((2, 0), dtype=np.intp)]
                     + [np.sort((edges, perm[edges]), axis=0)
                        for _, _, perm, edges in cl.moves])
    assert ends.shape[1] == len(cl.cocycles) - len(cl.classes)
    orbit = np.array(cl.orbit_of)
    assert np.array_equal(orbit[ends[0]], orbit[ends[1]])
    _, root = gerbe._spanning(ends[0], ends[1], len(cl.cocycles))
    firsts = np.flatnonzero(root == np.arange(len(root)))
    assert np.searchsorted(firsts, root).tolist() == cl.orbit_of


@pytest.mark.parametrize("cover, xm, most", [c[1:] for c in ROUTE_CASES],
                         ids=[c[0] for c in ROUTE_CASES])
def test_certified_partition_is_the_search_partition(cover, xm, most):
    # merging along certified moves and searching only between the
    # components gives the classes that searching alone gives, first
    # members included; on ball:4 both are compared on the strided subset
    # of the other route tests (the certified classes restricted to it)
    cl = classify_gerbes(cover, xm)
    classes, stats = crosscheck.certified_classes(cl, DEFAULT_BUDGET)
    assert stats["failed"] == 0 and stats["refuted"] == stats["searches"]
    assert stats["certified"] == len(cl.cocycles) - len(cl.classes)
    keep = _strided(list(range(len(cl.cocycles))), most)
    at = {row: k for k, row in enumerate(keep)}
    restricted = sorted(filter(None, ([at[i] for i in cls if i in at]
                                      for cls in classes)))
    match = match_wbar_duskin(xm, 3)
    maps = map_rows(ordered_cocycle_maps(_strided(cl.cocycles, most), match))
    assert restricted == gauge_partition(xm, match, maps)
    assert len(classes) == len(cl.classes)


def test_a_changed_gauge_value_fails_its_row_and_the_search_decides(
        monkeypatch):
    # one value of one gauge changed: the batched check fails that row
    # alone; inside the cross-check the edge it certified is left to the
    # search, which joins the same class
    cover, xm = circle_cover(3), parse_xmod("xmod_base:symmetric:3")
    cl = classify_gerbes(cover, xm)
    tw = _pulled_back(cl)
    r, s, perm, _ = cl.moves[0]
    psi = crosscheck.move_gauge(tw, _rows(tw, perm), cover, r, s)
    k, z = 17, 4
    levels = [np.array(lvl) for lvl in psi.levels]
    levels[2][k, z] = (levels[2][k, z] + 1) % psi.target.sizes[2]
    changed = SimplicialMap(psi.source, psi.target, levels)
    rows = _check_witness(tw, _rows(tw, perm), changed).rows
    assert np.flatnonzero(~rows).tolist() == [k]

    # ball:3 x (Z3 -> 1): three cocycles, one class; the first generator
    # carries both forest edges, and the first one's gauge is broken
    cover, xm = ball_cover(3), parse_xmod("xmod_fiber:cyclic:3")
    cl = classify_gerbes(cover, xm)
    assert len(cl.moves[0][3]) == 2
    assert crosscheck.certified_classes(cl, DEFAULT_BUDGET) == (
        [[0, 1, 2]], {"certified": 2, "failed": 0, "searches": 0,
                      "refuted": 0})
    real = crosscheck.move_gauge

    def broken(t1, t2, cover, r, s):
        psi = real(t1, t2, cover, r, s)
        psi.levels[2] = psi.levels[2].copy()
        psi.levels[2][0, 0] = (psi.levels[2][0, 0] + 1) % psi.target.sizes[2]
        return psi
    monkeypatch.setattr(crosscheck, "move_gauge", broken)
    assert crosscheck.certified_classes(cl, DEFAULT_BUDGET) == (
        [[0, 1, 2]], {"certified": 1, "failed": 1, "searches": 1,
                      "refuted": 0})


def test_a_fake_move_between_orbits_merges_nothing():
    # a move that swaps the least cocycles of two orbits, with that swap as
    # its forest edge, proposes an edge between classes; its gauge fails
    # the check, and the real forest and searches then give the true classes
    cover, xm = circle_cover(3), parse_xmod("xmod_base:symmetric:3")
    cl = classify_gerbes(cover, xm)
    i, j = cl.orbit_of.index(0), cl.orbit_of.index(1)
    r, s, _, _ = cl.moves[0]
    perm = np.arange(len(cl.cocycles))
    perm[[i, j]] = j, i
    swap = (r, s, perm, np.array([i]))
    fake = replace(cl, moves=[swap] + cl.moves)
    classes, stats = crosscheck.certified_classes(fake, DEFAULT_BUDGET)
    assert stats == {"certified": 213, "failed": 1, "searches": 3,
                     "refuted": 3}
    assert classes == crosscheck.certified_classes(cl, DEFAULT_BUDGET)[0]
    match = match_wbar_duskin(xm, 3)
    assert classes == gauge_partition(
        xm, match, map_rows(ordered_cocycle_maps(cl.cocycles, match)))
    alone = replace(cl, moves=[swap])
    classes, stats = crosscheck.certified_classes(alone, DEFAULT_BUDGET)
    assert stats["certified"] == 0 and stats["failed"] == 1
    assert len(classes) == 3


@pytest.mark.parametrize("xm", SMALL, ids=[xm.name for xm in SMALL])
def test_gauge_group_extends_the_nerve_of_the_wbar(xm):
    # the pulled-back twistings take values in levels 0-2 of the nerve the
    # W-bar was built from; the gauges reach level 3 of build_nerve(xm, 3)
    low = match_wbar_duskin(xm, N=3).tau.group
    high = build_nerve(xm, 3)
    assert low.N == 2 and high.sizes[:3] == low.sizes
    for n in range(3):
        assert np.array_equal(high.groups[n].table, low.groups[n].table)
        assert len(high.faces[n]) == len(low.faces[n])
        for a, b in zip(high.faces[n], low.faces[n]):
            assert np.array_equal(a, b)
    for n in range(2):
        assert len(high.degens[n]) == len(low.degens[n])
        for a, b in zip(high.degens[n], low.degens[n]):
            assert np.array_equal(a, b)


def test_check_witness_refuses_a_changed_d0_value():
    # on a 1-truncated base, multiplying psi(z) on one nondegenerate edge by
    # k = (e; h) keeps d1 psi(z) (d1 k = e) but moves d0 psi(z) by
    # alpha(h) != e: only the twisted d0 law can see it
    xm = xmod_identity(cyclic_group(2))
    g = build_nerve(xm, 1)
    x = cover_nerve(circle_cover(3), 1)
    t = Twisting(x, g, [np.zeros(0, dtype=np.int64),
                        np.full(x.sizes[1], g.identity(0))])
    psi = twistings_equivalent(t, t)
    assert _check_witness(t, t, psi).ok
    h = next(h for h in range(xm.H.order) if h != xm.H.identity)
    k = g.identity(0) * xm.H.order + h
    assert g.faces[1][1][k] == g.identity(0) != g.faces[1][0][k]
    z = next(z for z in range(x.sizes[1]) if z not in x.degens[0][0])
    levels = [a.copy() for a in psi.levels]
    levels[1][z] = g.groups[1].table[levels[1][z], k]
    changed = SimplicialMap(x, g.sset(), levels, name="psi'")
    rep = _check_witness(t, t, changed)
    assert rep.rows.tolist() == [False]
    assert rep.violations == ["twisted-d0@1"]
