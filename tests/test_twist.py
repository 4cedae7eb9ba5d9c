"""Twistings, twisted products, and bundle classification."""

import hashlib

import numpy as np
import pytest

from xmodgerbe import gerbe
from xmodgerbe.cli import _gauge_classes, _gauge_partition, parse_xmod
from xmodgerbe.fingroup import (cyclic_group, preset_corpus, symmetric_group,
                                xmod_identity, xmod_mod, xmod_trivial_fiber)
from xmodgerbe.gerbe import (cocycle_to_simplicial_map, enumerate_cocycles,
                             ordered_cocycle_maps)
from xmodgerbe.simplicial import (SimplicialMap, _Search, ball_cover, circle,
                                  circle_cover, constant_simplicial_group,
                                  cover_nerve, homotopy_classes, sphere_cover,
                                  validate_map, validate_simplicial)
from xmodgerbe.twist import (Twisting, _check_witness, _twisting_spec,
                             build_twisted_product, build_wbar,
                             classify_bundles, enumerate_twistings,
                             pullback_twisting, twistings_equivalent,
                             validate_twisting)
from xmodgerbe.util import DEFAULT_BUDGET, Budget, StructureError
from xmodgerbe.xnerve import build_nerve, match_wbar_duskin

from _oracles import naive_wbar, relabel, scan_sigma_bar


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


def _prism_classes(maps, gauge):
    # the gauge classes only order the prism probes; the prism classes
    # cannot depend on the order (test_hint_orders_probes_but_not_classes)
    label = {i: ci for ci, cls in enumerate(gauge) for i in cls}
    prism, _ = homotopy_classes(maps, budget=Budget(what="homotopy"),
                                hint=[label[i] for i in range(len(maps))])
    return prism


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
    gauge = _gauge_partition(xm, match, maps, None, DEFAULT_BUDGET)
    assert gauge == _prism_classes(maps, gauge)


@pytest.mark.parametrize("cover, xm, most", [c[1:] for c in ROUTE_CASES],
                         ids=[c[0] for c in ROUTE_CASES])
def test_gauge_and_prism_routes_partition_alike_on_the_ordered_nerve(
        cover, xm, most):
    # the same two routes on the ordered nerve X<=, where the cross-check
    # of `gerbe-classify` runs
    cocycles = _strided(enumerate_cocycles(cover, xm), most)
    maps, gauge = _gauge_classes(xm, cocycles, None, DEFAULT_BUDGET)
    assert all(f.source.name.startswith("ordered-nerve") for f in maps)
    assert gauge == _prism_classes(maps, gauge)


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
    ordered = ordered_cocycle_maps(cocycles, match)
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
    on_ordered = _gauge_partition(xm, match, [ordered[i] for i in keep],
                                  None, DEFAULT_BUDGET)
    on_full = _gauge_partition(xm, match, [searched[i] for i in keep],
                               None, DEFAULT_BUDGET)
    assert on_ordered == on_full


def test_closed_form_map_refuses_a_wrong_gather(monkeypatch):
    # reading h_012 on the level-2 simplex (0, 0, 1), whose triangle has a
    # repeated chart and must read the identity, breaks the degeneracy
    # s_0 of the edge (0, 1): the map fails validate_map, and building it
    # is a StructureError
    xm = xmod_trivial_fiber(cyclic_group(2))
    cover = ball_cover(3)
    c = next(c for c in enumerate_cocycles(cover, xm)
             if c.h[0, 1, 2] != xm.H.identity)
    match = match_wbar_duskin(xm, 3)
    f = ordered_cocycle_maps([c], match)[0]
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
        ordered_cocycle_maps([c], match)


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
    _check_witness(t, t, psi)
    h = next(h for h in range(xm.H.order) if h != xm.H.identity)
    k = g.identity(0) * xm.H.order + h
    assert g.faces[1][1][k] == g.identity(0) != g.faces[1][0][k]
    z = next(z for z in range(x.sizes[1]) if z not in x.degens[0][0])
    levels = [a.copy() for a in psi.levels]
    levels[1][z] = g.groups[1].table[levels[1][z], k]
    changed = SimplicialMap(x, g.sset(), levels, name="psi'")
    with pytest.raises(StructureError, match="twisted d0 at level 1"):
        _check_witness(t, t, changed)
