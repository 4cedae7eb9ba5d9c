"""Truncated simplicial sets, covers, map search, and homotopy."""

import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from xmodgerbe import simplicial
from xmodgerbe.fingroup import (cyclic_group, symmetric_group, xmod_mod,
                                xmod_trivial_base, xmod_trivial_fiber)
from xmodgerbe.simplicial import (CoverComplex, _map_spec, _Search,
                                  ball_cover, circle, circle_cover,
                                  constant_simplicial_group, cover_nerve,
                                  degeneracy_expressions, delta1,
                                  enumerate_simplicial_maps, homotopy_classes,
                                  load_sset, moore_homotopy, nondegenerate,
                                  ordered_cover_nerve, simplicially_homotopic,
                                  sphere_cover,
                                  sset_from_json, sset_product, sset_to_json,
                                  truncate_sset, validate_simplicial)
from xmodgerbe.util import (DEFAULT_BUDGET, Budget, BudgetError, Report,
                            StructureError)

from _oracles import brute_simplicial_maps


def test_builtin_ssets_validate():
    for x in (delta1(2), delta1(3), circle(2), circle(3),
              cover_nerve(circle_cover(3), 3),
              cover_nerve(sphere_cover(4), 3)):
        rep = validate_simplicial(x)
        assert rep.ok, (x.name, rep.summary())


def test_circle_sizes_and_nondegenerates():
    x = circle(2)
    # one vertex, the loop plus the degenerate edge, and so on upward
    assert x.sizes[0] == 1
    assert x.sizes[1] == 2
    assert nondegenerate(x, 1) == [1]
    exprs = degeneracy_expressions(x, 1)
    assert set(exprs) == {0}


def test_corrupted_faces_rejected():
    x = circle(2)
    faces = [list(map(np.array, lvl)) for lvl in x.faces]
    faces[2][0] = faces[2][0].copy()
    faces[2][0][0] = (faces[2][0][0] + 1) % x.sizes[1]
    from xmodgerbe.simplicial import TruncatedSimplicialSet
    y = TruncatedSimplicialSet(x.N, list(x.sizes), faces,
                               [list(lvl) for lvl in x.degens], name="bad")
    assert not validate_simplicial(y).ok


def test_product_is_valid_and_sized():
    a = circle(2)
    p = sset_product(a, a)
    assert validate_simplicial(p).ok
    assert p.sizes[0] == a.sizes[0] ** 2
    assert p.sizes[1] == a.sizes[1] ** 2


def test_truncation():
    x = circle(3)
    y = truncate_sset(x, 2)
    assert y.N == 2
    assert y.sizes == x.sizes[:3]
    assert validate_simplicial(y).ok


def test_cover_complex_family():
    c = circle_cover(3)
    assert c.charts == 3
    assert c.admissible((0, 1)) and not c.admissible((0, 1, 2))
    assert len(c.simplices(1)) == 3
    s = sphere_cover(4)
    assert len(s.simplices(2)) == 4
    assert not s.admissible((0, 1, 2, 3))
    b = ball_cover(3)
    assert b.admissible((0, 1, 2))
    with pytest.raises(StructureError):
        circle_cover(2)


def test_cover_nerve_sizes():
    # ordered tuples with admissible support: 3 vertices; 3 diagonal pairs
    # plus 6 ordered adjacent pairs; 3 + 3*6 triples
    x = cover_nerve(circle_cover(3), 2)
    assert x.sizes == [3, 9, 21]
    assert validate_simplicial(x).ok


@pytest.mark.parametrize("cover, sizes", [
    (circle_cover(3), [3, 6, 9, 12]),
    (sphere_cover(4), [4, 10, 20, 34]),
    (ball_cover(4), [4, 10, 20, 35]),
], ids=["circle3", "sphere4", "ball4"])
def test_ordered_cover_nerve_is_the_sorted_subset(cover, sizes):
    # X<= lists the non-decreasing tuples of the full nerve in the same
    # order, and its faces and degeneracies are the full nerve's
    x, full = ordered_cover_nerve(cover, 3), cover_nerve(cover, 3)
    assert x.sizes == sizes == simplicial._cover_nerve_sizes(
        cover, 3, simplicial._onto_sorted)
    assert validate_simplicial(x).ok
    where = []
    for n in range(4):
        assert x.labels[n] == [t for t in full.labels[n]
                               if list(t) == sorted(t)]
        where.append(np.array([full.index(n, t) for t in x.labels[n]]))
    for n in range(1, 4):
        for i in range(n + 1):
            assert np.array_equal(where[n - 1][x.faces[n][i]],
                                  full.faces[n][i][where[n]])
    for n in range(3):
        for i in range(n + 1):
            assert np.array_equal(where[n + 1][x.degens[n][i]],
                                  full.degens[n][i][where[n]])
    with pytest.raises(BudgetError, match=f"level 3 has {sizes[3]} simplices"):
        ordered_cover_nerve(cover, 3, budget=Budget(sizes[3] - 1))


def test_cover_closure_is_counted_before_it_is_listed():
    # ball:4 closes to its 4 charts plus the 2^4 - 1 subsets of its one
    # intersection (the singletons counted twice); one set fewer is refused
    ball_cover(4, budget=Budget(19))
    with pytest.raises(BudgetError, match="closure of a cover of 4 charts: "
                                          "needs ~19 steps, budget is 18"):
        ball_cover(4, budget=Budget(18))
    with pytest.raises(BudgetError, match="needs ~1099511627815 steps"):
        CoverComplex.from_sets(40, [range(40)])
    with pytest.raises(BudgetError):
        CoverComplex.from_sets(DEFAULT_BUDGET + 1, [])


def test_constant_group_and_moore():
    g = constant_simplicial_group(symmetric_group(3), 2)
    rep = validate_simplicial(g.sset())
    assert rep.ok
    pi0 = moore_homotopy(g, 0)
    pi1 = moore_homotopy(g, 1)
    assert pi0.order == 6
    assert pi1.order == 1


def test_yoneda_maps_from_interval():
    # maps out of the 1-simplex correspond to 1-simplices of the target
    for target in (circle(2), cover_nerve(circle_cover(3), 2)):
        maps = enumerate_simplicial_maps(delta1(target.N), target,
                                         budget=Budget(what="maps"))
        assert len(maps) == target.sizes[1]


def test_map_enumeration_budget():
    with pytest.raises(BudgetError):
        enumerate_simplicial_maps(circle(2),
                                  cover_nerve(sphere_cover(4), 2),
                                  budget=Budget(5, what="tiny"))


def test_homotopy_classes_on_classifying_target():
    from xmodgerbe.twist import build_wbar
    w, _ = build_wbar(constant_simplicial_group(cyclic_group(2), 2))
    # contractible source: both maps from the interval land in one class
    maps = enumerate_simplicial_maps(delta1(2), w, budget=Budget(what="maps"))
    assert len(maps) == 2
    classes, _ = homotopy_classes(maps, budget=Budget(what="h"))
    assert len(classes) == 1
    # the loop sees the group: two classes, matching the two homomorphisms
    maps = enumerate_simplicial_maps(circle(2), w, budget=Budget(what="maps"))
    classes, _ = homotopy_classes(maps, budget=Budget(what="h"))
    assert len(classes) == 2


def test_homotopy_reflexive_and_symmetric():
    maps = enumerate_simplicial_maps(circle(2), circle(2),
                                     budget=Budget(what="maps"))
    f = maps[0]
    assert simplicially_homotopic(f, f, budget=Budget(what="h")) is not None
    g = maps[-1]
    fg = simplicially_homotopic(f, g, budget=Budget(what="h"))
    gf = simplicially_homotopic(g, f, budget=Budget(what="h"))
    assert (fg is None) == (gf is None)


def test_sset_json_round_trip(tmp_path):
    x = circle(2)
    d = sset_to_json(x)
    y = sset_from_json(d)
    assert y.sizes == x.sizes
    assert validate_simplicial(y).ok
    p = tmp_path / "c.json"
    import json
    p.write_text(json.dumps(d))
    z = load_sset(str(p))
    assert z.sizes == x.sizes


def _search_pairs():
    from xmodgerbe.twist import build_wbar
    wbar, _ = build_wbar(constant_simplicial_group(cyclic_group(2), 2))
    wbar_s3, _ = build_wbar(constant_simplicial_group(symmetric_group(3), 2))
    return [(delta1(2), circle(2)), (circle(2), circle(2)), (circle(2), wbar),
            (sset_product(delta1(2), delta1(2)), circle(2)),
            (circle(2), wbar_s3), (delta1(2), cover_nerve(circle_cover(3), 2))]


def test_map_search_matches_brute_force():
    for x, y in _search_pairs():
        got = [f.encoding() for f in
               enumerate_simplicial_maps(x, y, budget=Budget(what="maps"))]
        want = brute_simplicial_maps(x, y)
        assert want, (x.name, y.name)
        assert got == want, (x.name, y.name)


def test_search_order_is_pinned():
    # the unsorted solution sequence follows the order in which the engine
    # picks simplices, so a change of pick order moves this digest
    digest = hashlib.sha256()
    counts = []
    for x, y in _search_pairs():
        sols = list(_Search(_map_spec(x, y), Budget(what="maps")).solutions())
        counts.append(len(sols))
        for values in sols:
            digest.update(repr([[values[n][z] for z in range(x.sizes[n])]
                                for n in range(x.N + 1)]).encode())
    assert counts == [2, 2, 2, 5, 6, 9]
    assert digest.hexdigest() == \
        "1f342aab19bfc298b6121247226afce306e2c938d50cfe1d1dfbc67ea780b5f0"


def _gerbe_maps(cover, xm, spent=None):
    """The cocycle maps into W-bar; `spent` collects each extension's nodes."""
    from xmodgerbe.gerbe import cocycle_to_simplicial_map, enumerate_cocycles
    from xmodgerbe.xnerve import match_wbar_duskin
    match = match_wbar_duskin(xm, 3, budget=Budget(what="dictionary"))
    nerve, maps = None, []
    for c in enumerate_cocycles(cover, xm, budget=Budget(what="gerbes")):
        budget = Budget(what="extension")
        cm = cocycle_to_simplicial_map(c, match, nerve=nerve, budget=budget)
        nerve = cm.nerve
        maps.append(cm.wbar_map)
        if spent is not None:
            spent.append(budget.used)
    return maps


def test_extension_nodes_are_pinned():
    # cocycle -> map extension over circle:3 into the S3 2-nerve: one
    # search per cocycle, whose node counts move with any engine change
    spent = []
    _gerbe_maps(circle_cover(3), xmod_trivial_base(symmetric_group(3)), spent)
    assert (len(spent), sum(spent)) == (216, 16_848)


@pytest.mark.parametrize("cover, xm, cut, probe, want", [
    (circle_cover(3), xmod_trivial_base(symmetric_group(3)), None, 20_000,
     (3, 465, 89_262, 0)),
    (circle_cover(3), xmod_trivial_base(symmetric_group(3)), 60, 100,
     (3, 173, 12_717, 19_854)),
    (ball_cover(3), xmod_trivial_fiber(cyclic_group(3)), None, 20_000,
     (1, 2, 1_092, 0)),
], ids=["circle3-S3", "circle3-S3-probe100", "ball3-Z3"])
def test_homotopy_nodes_are_pinned(monkeypatch, cover, xm, cut, probe, want):
    # (classes, probes, probe nodes, full-search nodes): the node counts
    # move with any change to the engine's pick order or pruning
    made = []

    class Counted(Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    maps = _gerbe_maps(cover, xm)[:cut]
    monkeypatch.setattr(simplicial, "Budget", Counted)
    full = Budget(what="homotopy")
    classes, _ = homotopy_classes(maps, budget=full, probe=probe)
    probes = [b.used for b in made if b.what == "homotopy probe"]
    assert (len(classes), len(probes), sum(probes), full.used) == want


def _assert_at_rest(search):
    x, lo = search.spec.x, search.spec.lo
    assert search.pending == [[n + 2] * x.sizes[n + 1] for n in range(lo, x.N)]
    assert search.score == x.face_scores[0][lo:]
    assert search.values == [[None] * size for size in x.sizes]
    assert search.domains == [{} for _ in x.sizes]


def test_search_gives_back_every_count(monkeypatch):
    # a search that ran to exhaustion or stopped at its limit leaves every
    # pending count at n+2 and every score at its starting value, also when
    # a check failed in the middle of _set's users
    searches, failed = [], []

    class Watched(_Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

        def _feasible_up(self, n1, w):
            ok = super()._feasible_up(n1, w)
            failed.append(not ok)
            return ok

        def _narrow(self, n, m, w, trail):
            ok = super()._narrow(n, m, w, trail)
            failed.append(not ok)
            return ok

    for x, y in _search_pairs():
        s = Watched(_map_spec(x, y), Budget(what="maps"))
        assert list(s.solutions())
        _assert_at_rest(s)
        s = Watched(_map_spec(x, y), Budget(what="maps"))
        assert len(list(s.solutions(limit=1))) == 1
        _assert_at_rest(s)
    # a refutation: the two maps S1 -> W-bar(Z2) are not homotopic
    monkeypatch.setattr(simplicial, "_Search", Watched)
    maps = enumerate_simplicial_maps(circle(2), _search_pairs()[2][1])
    searches.clear()
    assert simplicially_homotopic(maps[0], maps[1]) is None
    assert len(searches) == 1
    _assert_at_rest(searches[0])
    assert any(failed)


def test_limit_stop_inside_the_top_level_is_at_rest():
    # the first W-bar -> 2-nerve map of xmod_mod(4, 2) leaves 469 free
    # top-level simplices with values, which are on no trail: the limit
    # must give them back itself
    from xmodgerbe.xnerve import match_wbar_duskin
    m = match_wbar_duskin(xmod_mod(4, 2), 3)
    search = _Search(_map_spec(m.wbar, m.duskin), Budget(what="maps"))
    assert len(search.plan[-1][2]) == 469
    assert len(list(search.solutions(limit=1))) == 1
    _assert_at_rest(search)


class _Strict:
    """A read-only view of one level's values that raises on a simplex
    without a value, where the engine's list holds None."""

    __slots__ = ("vals",)

    def __init__(self, vals):
        self.vals = vals

    def __getitem__(self, z):
        v = self.vals[z]
        if v is None:
            raise AssertionError(f"read simplex {z}, which has no value")
        return v


def _strict_key(key, below):
    return key(_Strict(below))


def _strict_spec(spec):
    """The same spec, with key callables reading through _Strict."""
    keys = [None if ks is None else [partial(_strict_key, k) for k in ks]
            for ks in spec.keys]
    return replace(spec, keys=keys)


def _strict_force(force, search, n, z):
    """_Search._force, reading the values through _Strict."""
    values = search.values
    search.values = [_Strict(v) for v in values]
    try:
        return force(search, n, z)
    finally:
        search.values = values


def _engine_searches(check_counts=False):
    """Every search of the guard tests below: all maps of the search pairs,
    the circle:3 x S3 prism probes and the twistings and bundles on
    circle(3)."""
    from xmodgerbe.twist import classify_bundles, enumerate_twistings
    for x, y in _search_pairs():
        assert enumerate_simplicial_maps(x, y, budget=Budget(what="maps"))
    maps = _gerbe_maps(circle_cover(3), xmod_trivial_base(symmetric_group(3)))
    probes = []
    real = simplicial.Budget

    class Counted(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.what == "homotopy probe":
                probes.append(self)

    simplicial.Budget = Counted
    try:
        classes, _ = homotopy_classes(maps)
    finally:
        simplicial.Budget = real
    sg = constant_simplicial_group(symmetric_group(3), 3)
    budget = Budget(what="bundles")
    assert len(enumerate_twistings(circle(3), sg)) == 6
    assert len(classify_bundles(circle(3), sg, budget=budget).map_classes) == 3
    if check_counts:
        assert (len(classes), len(probes), sum(b.used for b in probes),
                budget.used) == (3, 465, 89_262, 99)


def _engine_modules():
    from xmodgerbe import gerbe, twist, xnerve
    return simplicial, gerbe, twist, xnerve


def test_forced_values_match_a_fresh_force(monkeypatch):
    # run_forced above the lowest level sets the value _feasible_up stored
    # when it accepted the simplex; recomputed here from the pins and the
    # degeneracy tables on the finished solution, every rule forcing the
    # simplex must give that value, and every value's faces must match its
    # key
    seen = []

    class Recorded(_Search):
        def solutions(self, limit=None):
            for values in super().solutions(limit):
                seen.append((self.spec, values))
                yield values

    for module in _engine_modules():
        if hasattr(module, "_Search"):
            monkeypatch.setattr(module, "_Search", Recorded)
    _engine_searches()
    assert len(seen) > 450
    forced = 0
    for spec, values in seen:
        x = spec.x
        for n in range(spec.lo, x.N + 1):
            degenerate, keys = x.degeneracy_table[n], spec.keys[n]
            pins = spec.pins[n]
            for z, v in enumerate(values[n]):
                rules = [pins[z]] if z in pins else []
                if n > spec.lo:
                    rules += [spec.degens[n - 1][i][values[n - 1][y]]
                              for i, y in degenerate.get(z, ())]
                else:
                    # no values below lo: a degenerate simplex there is pinned
                    assert z not in degenerate or z in pins, (x.name, n, z)
                if rules:
                    assert set(rules) == {v}, (x.name, n, z)
                    forced += n > spec.lo
                if keys is not None:
                    assert spec.faces_of[n][v] == keys[z](values[n - 1]), \
                        (x.name, n, z)
    assert forced > 10_000


def test_keys_never_read_an_unset_simplex(monkeypatch):
    # the engine marks a simplex without a value by None; no key callable
    # and no forcing rule may read one, and guarding them moves no count
    from xmodgerbe import twist
    for module in _engine_modules():
        if hasattr(module, "_map_spec"):
            monkeypatch.setattr(module, "_map_spec",
                                lambda *a, **k: _strict_spec(_map_spec(*a, **k)))
    for name in ("_twisting_spec", "_equivalence_spec"):
        make = getattr(twist, name)
        monkeypatch.setattr(twist, name,
                            lambda *a, make=make: _strict_spec(make(*a)))
    force = _Search._force
    monkeypatch.setattr(_Search, "_force",
                        lambda self, n, z: _strict_force(force, self, n, z))
    _engine_searches(check_counts=True)


def test_forcing_rules_that_disagree_are_a_dead_end():
    # the degenerate edge s_0(*) of the circle, pinned to the loop: its pin
    # and its degeneracy rule disagree, so no map exists; pinned to s_0(*)
    # itself it leaves both maps.  At truncation 1 no simplex above can
    # refute the pin, so only the disagreement does.
    x = circle(1)

    def solutions(v):
        spec = _map_spec(x, x, [{}, {0: v}])
        return list(_Search(spec, Budget(what="maps")).solutions())

    assert x.degeneracy_table[1] == {0: [(0, 0)]}
    assert solutions(1) == []
    assert len(solutions(0)) == 2


def test_a_solution_failing_validation_is_an_error(monkeypatch):
    # every solution becomes a map only once validate_map passes it; one
    # that fails is a StructureError, never a map silently left out.  The
    # model dictionary is built in closed form and checked the same way.
    from xmodgerbe import xnerve
    from xmodgerbe.xnerve import match_wbar_duskin
    x, y = circle(2), circle(2)
    f = enumerate_simplicial_maps(x, y)[0]
    failing = Report()
    failing.add("planted", False)
    monkeypatch.setattr(simplicial, "validate_map", lambda f: failing)
    with pytest.raises(StructureError, match="planted"):
        enumerate_simplicial_maps(x, y)
    with pytest.raises(StructureError, match="planted"):
        simplicially_homotopic(f, f)
    monkeypatch.setattr(xnerve, "validate_map", lambda f: failing)
    with pytest.raises(StructureError, match="planted"):
        match_wbar_duskin(xmod_trivial_fiber(cyclic_group(2)), 3)


def test_size_guards_refuse_before_building():
    from xmodgerbe.fingroup import xmod_identity
    from xmodgerbe.twist import build_wbar
    from xmodgerbe.xnerve import build_duskin, build_nerve
    for cover in (circle_cover(3), circle_cover(5), ball_cover(4),
                  sphere_cover(4), sphere_cover(5)):
        for N in (2, 3):
            assert simplicial._cover_nerve_sizes(cover, N) == \
                cover_nerve(cover, N).sizes
    # sizes at the limit are built; one simplex more is refused, and the
    # error names the level and its size
    x = circle(2)
    prism_top = x.sizes[2] * delta1(2).sizes[2]
    sset_product(x, delta1(2), budget=Budget(prism_top))
    with pytest.raises(BudgetError, match=f"level 2 has {prism_top} simplices"):
        sset_product(x, delta1(2), budget=Budget(prism_top - 1))
    with pytest.raises(BudgetError, match="level 3 has 232 simplices"):
        cover_nerve(sphere_cover(4), 3, budget=Budget(231))
    xm = xmod_identity(symmetric_group(3))
    with pytest.raises(BudgetError, match="level 2 has 216 simplices"):
        build_nerve(xm, 2, budget=Budget(215))
    with pytest.raises(BudgetError, match="level 3 has 46656 simplices"):
        build_duskin(xm, 3, budget=Budget(46655))
    g = build_nerve(xm, 2)
    with pytest.raises(BudgetError, match="level 3 has 46656 simplices"):
        build_wbar(g, 3, budget=Budget(46655))
    budget = Budget(46656)
    assert build_wbar(g, 3, budget=budget)[0].sizes[3] == 46656
    assert budget.used == 0


def _table_objects():
    from xmodgerbe.fingroup import xmod_mod
    from xmodgerbe.twist import build_wbar
    from xmodgerbe.xnerve import build_duskin, build_nerve
    xm = xmod_mod(4, 2)
    nerve = build_nerve(xm, 2)
    wbar, _ = build_wbar(nerve, 3)
    return [circle(3), sset_product(delta1(3), circle(3)),
            cover_nerve(sphere_cover(4), 3), wbar, build_duskin(xm, 3),
            nerve.sset()]


def test_search_tables_match_the_arrays():
    for x in _table_objects():
        for n in range(x.N + 1):
            faces = [[int(x.faces[n][i][z]) for i in range(n + 1)]
                     for z in range(x.sizes[n])] if n else [[]] * x.sizes[0]
            assert x.face_tuples[n] == [tuple(f) for f in faces], (x.name, n)
            index = {}
            if n:
                for z, f in enumerate(faces):
                    index.setdefault(tuple(f), []).append(z)
            assert x.face_index[n] == index, (x.name, n)
            hits = {}
            if n:
                for i in range(n):
                    for y in range(x.sizes[n - 1]):
                        hits.setdefault(int(x.degens[n - 1][i][y]), []).append((i, y))
            assert x.degeneracy_table[n] == hits, (x.name, n)
            assert nondegenerate(x, n) == \
                [z for z in range(x.sizes[n]) if z not in hits], (x.name, n)
            if n < x.N:
                assert x.degen_lists[n] == [
                    [int(x.degens[n][i][y]) for y in range(x.sizes[n])]
                    for i in range(n + 1)], (x.name, n)
        scores, maxmult = x.face_scores
        for n, (users, distinct) in enumerate(x.face_users):
            want = [([], []) for _ in range(x.sizes[n])]
            score = [0] * x.sizes[n]
            for w in range(x.sizes[n + 1]):
                fs = [int(x.faces[n + 1][i][w]) for i in range(n + 2)]
                firsts = list(dict.fromkeys(fs))
                assert distinct[w] == tuple(firsts), (x.name, n, w)
                for f in firsts:
                    want[f][0].append(w)
                    want[f][1].append(fs.count(f))
                assert maxmult[n][w] == max(map(fs.count, fs)), (x.name, n, w)
                if len(firsts) == 1:
                    score[fs[0]] += 1
            assert users == [(tuple(ws), tuple(cs)) for ws, cs in want], (x.name, n)
            assert scores[n] == score, (x.name, n)
        with pytest.raises(ValueError):
            x.faces[1][0][0] = 0
        with pytest.raises(ValueError):
            x.degens[0][0][0] = 0


def test_group_sset_built_once():
    g = constant_simplicial_group(symmetric_group(3), 2)
    assert g.sset() is g.sset()
