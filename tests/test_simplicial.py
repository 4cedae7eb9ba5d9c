"""Truncated simplicial sets, covers, map search, and homotopy."""

import numpy as np
import pytest

from xmodgerbe.fingroup import cyclic_group, symmetric_group
from xmodgerbe.simplicial import (ball_cover, circle, circle_cover,
                                  constant_simplicial_group, cover_nerve,
                                  degeneracy_expressions, delta1,
                                  enumerate_simplicial_maps, homotopy_classes,
                                  load_sset, moore_homotopy, nondegenerate,
                                  simplicially_homotopic, sphere_cover,
                                  sset_from_json, sset_product, sset_to_json,
                                  truncate_sset, validate_simplicial)
from xmodgerbe.util import Budget, BudgetError, StructureError

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


def test_map_search_matches_brute_force():
    from xmodgerbe.twist import build_wbar
    wbar, _ = build_wbar(constant_simplicial_group(cyclic_group(2), 2))
    wbar_s3, _ = build_wbar(constant_simplicial_group(symmetric_group(3), 2))
    pairs = [(delta1(2), circle(2)), (circle(2), circle(2)), (circle(2), wbar),
             (sset_product(delta1(2), delta1(2)), circle(2)),
             (circle(2), wbar_s3), (delta1(2), cover_nerve(circle_cover(3), 2))]
    for x, y in pairs:
        got = [f.encoding() for f in
               enumerate_simplicial_maps(x, y, budget=Budget(what="maps"))]
        want = brute_simplicial_maps(x, y)
        assert want, (x.name, y.name)
        assert got == want, (x.name, y.name)


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
        face_mult, users = x.face_slots
        for n in range(x.N):
            for w in range(x.sizes[n + 1]):
                fs = [int(x.faces[n + 1][i][w]) for i in range(n + 2)]
                assert face_mult[n][w] == {f: fs.count(f) for f in fs}
                assert all(w in users[n][f] for f in fs)
        with pytest.raises(ValueError):
            x.faces[1][0][0] = 0
        with pytest.raises(ValueError):
            x.degens[0][0][0] = 0


def test_group_sset_built_once():
    g = constant_simplicial_group(symmetric_group(3), 2)
    assert g.sset() is g.sset()
