"""Cocycle enumeration, stable equivalence, refinement, lifting."""

import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xmodgerbe import gerbe, intlinalg
from xmodgerbe.fingroup import (cyclic_group, derived_crossed_modules, kernel,
                                preset_corpus,
                                symmetric_group, xmod_automorphism,
                                xmod_identity, xmod_mod, xmod_trivial_base,
                                xmod_trivial_fiber)
from xmodgerbe.gerbe import (CocycleTable, GerbeCocycle, LiftPlan,
                             abelian_oracle, check_cocycle, check_table,
                             classify_gerbes, cocycle_to_json,
                             cocycle_to_simplicial_map, enumerate_cocycles,
                             lift_gerbe, map_to_cocycle)
from xmodgerbe.intlinalg import solve_mod
from xmodgerbe.simplicial import (_radix_encode, ball_cover, circle_cover,
                                  sphere_cover)
from xmodgerbe.util import Budget, BudgetError, StructureError
from xmodgerbe.xnerve import match_wbar_duskin

from _oracles import (StableWitness, apply_witness, brute_cech_h2_order,
                      brute_cocycles, check_cocycle_loops, identity_witness,
                      lift_one, relabel, search_orbits)


def test_cocycle_counts_trivial_base_modules():
    z2 = xmod_trivial_fiber(cyclic_group(2))
    # no tetra constraint on the sphere model: every assignment is closed
    cs = enumerate_cocycles(sphere_cover(4), z2)
    assert len(cs) == 16
    # the solid model adds the single tetra equation, halving the count
    assert len(enumerate_cocycles(ball_cover(4), z2)) == 8
    # the circle has no triple overlaps at all
    assert len(enumerate_cocycles(circle_cover(3), z2)) == 1
    for c in cs:
        check_cocycle(c, "enumerated cocycle")   # raises on any violation


def test_classification_counts(gerbe_runs):
    assert len(gerbe_runs["sphere-z2"][2].classes) == 2
    assert len(gerbe_runs["circle-z2"][2].classes) == 1
    assert len(gerbe_runs["circle-s3"][2].classes) == 3
    for cover, xm, cl in gerbe_runs.values():
        assert cl.exhaustive
        assert sum(k.orbit_size for k in cl.classes) == len(cl.cocycles)


def test_corrupted_cocycle_rejected():
    # h_012 moved off the alpha-preimage coset: the edge law fails there
    xm = xmod_mod(4, 2)
    c = enumerate_cocycles(ball_cover(3), xm)[1]
    h = dict(c.h)
    key = next(iter(h))
    h[key] = xm.H.mul(h[key], 1)
    bad = GerbeCocycle(c.cover, c.xm, dict(c.d), h, name="bad")
    with pytest.raises(StructureError, match=r"^corrupted: edge@0,1,2$"):
        check_cocycle(bad, "corrupted")


def test_corrupted_tetrahedron_rejected():
    # h_013 times 2, which alpha sends to 0: every edge law still holds and
    # the one tetrahedron law fails
    xm = xmod_mod(4, 2)
    c = enumerate_cocycles(ball_cover(4), xm)[0]
    h = dict(c.h)
    h[(0, 1, 3)] = xm.H.mul(h[(0, 1, 3)], 2)
    bad = GerbeCocycle(c.cover, c.xm, dict(c.d), h, name="bad")
    with pytest.raises(StructureError, match=r"^corrupted: tetra@0,1,2,3$"):
        check_cocycle(bad, "corrupted")


def _one_cell(table, row, where, col, value):
    """The table with the cell (row, col) of its d or h array set to value."""
    d, h = table.d.copy(), table.h.copy()
    (d if where == "d" else h)[row, col] = value
    return CocycleTable(table.cover, table.xm, d, h)


def _message(check, *args):
    with pytest.raises(StructureError) as got:
        check(*args)
    return str(got.value)


# each corruption of one cell of row r, as (array, column, new value from
# the row): d off D, h off H, h_012 off its coset, h_013 times 2 (which
# alpha sends to 0, so only the tetrahedron law fails), d_01 changed
CORRUPTIONS = pytest.mark.parametrize("where, col, value", [
    ("d", 2, lambda d, h: 9),
    ("h", 3, lambda d, h: -1),
    ("h", 0, lambda d, h: (h[0] + 1) % 4),
    ("h", 1, lambda d, h: (h[1] + 2) % 4),
    ("d", 0, lambda d, h: 1 - d[0]),
], ids=["d-value", "h-value", "edge", "tetra", "d-edge"])


@CORRUPTIONS
def test_check_table_raises_the_message_of_the_first_bad_row(where, col,
                                                            value):
    # ball:4 x xmod_mod:4:2 has 512 cocycles and one quad; a bad cell in
    # row r gives the message the scalar loops give for row r, also when a
    # later row is bad in another way, and check_cocycle gives it for row r
    xm = xmod_mod(4, 2)
    table = enumerate_cocycles(ball_cover(4), xm)
    check_table(table, "corrupted")
    for row in (0, 77, len(table) - 1):
        d, h = table.d[row].tolist(), table.h[row].tolist()
        bad = _one_cell(table, row, where, col, value(d, h))
        want = _message(check_cocycle_loops, bad[row], "corrupted")
        assert want.startswith("corrupted: ")
        assert _message(check_table, bad, "corrupted") == want
        assert _message(check_cocycle, bad[row], "corrupted") == want
        if row + 1 < len(table):
            worse = _one_cell(bad, len(table) - 1, "d", 0, -3)
            assert _message(check_table, worse, "corrupted") == want


@pytest.mark.parametrize("where, col, value", [
    ("d", 2, lambda d, h: 9),
    ("h", 3, lambda d, h: -1),
    ("h", 0, lambda d, h: 1 - h[0]),
    ("d", 0, lambda d, h: 1 - d[0]),
], ids=["d-value", "h-value", "edge", "d-edge"])
def test_lift_table_refuses_a_corrupted_cell(where, col, value):
    # over the image module Z2 -> Z2 of xmod_mod:4:2 alpha is one-to-one,
    # so every corruption in range breaks an edge law
    plan = LiftPlan(ball_cover(4), xmod_mod(4, 2))
    table = enumerate_cocycles(plan.cover, plan.base)
    row = len(table) // 2
    bad = _one_cell(table, row, where, col,
                    value(table.d[row].tolist(), table.h[row].tolist()))
    want = _message(check_cocycle_loops, bad[row],
                    "cannot lift an invalid cocycle")
    assert _message(plan.lift_table, bad) == want
    assert _message(plan.lift, bad[row]) == want


@pytest.mark.parametrize("corrupt, named", [
    (lambda d, h: ({**d, (0, 1): 9}, h), "d-domain"),
    (lambda d, h: (d, {k: v for k, v in h.items() if k != (0, 1, 2)}),
     "h-domain"),
    (lambda d, h: ({**d, (0, 1): 1 - d[(0, 1)]}, h), "edge@0,1,2"),
], ids=["d-value", "h-missing", "edge"])
def test_lift_refuses_an_invalid_cocycle(corrupt, named):
    plan = LiftPlan(ball_cover(4), xmod_mod(4, 2))
    c = enumerate_cocycles(plan.cover, plan.base)[0]
    d, h = corrupt(dict(c.d), dict(c.h))
    bad = GerbeCocycle(c.cover, c.xm, d, h, name="bad")
    with pytest.raises(StructureError,
                       match=rf"^cannot lift an invalid cocycle: {named}$"):
        plan.lift(bad)


def test_witness_compose_and_identity():
    # the identity witness fixes every cocycle
    cover = sphere_cover(4)
    xm = xmod_trivial_fiber(cyclic_group(2))
    for c in enumerate_cocycles(cover, xm):
        out = apply_witness(c, identity_witness(cover, xm))
        assert out.d == c.d and out.h == c.h


def test_witness_final_factor_transcription():
    """The last factor of the triple-overlap transformation is indexed by the
    outer pair (a, c).  Re-indexing it by (b, c) looks equally plausible but
    sends valid cocycles to invalid ones; the library formula never does."""
    cover = ball_cover(4)
    xm = xmod_automorphism(cyclic_group(3))
    cs = enumerate_cocycles(cover, xm)
    assert len(cs) == 216
    rng = np.random.default_rng(7)

    def rand_witness():
        r = {a: int(rng.integers(xm.D.order)) for a in range(cover.charts)}
        s = {p: int(rng.integers(xm.H.order)) for p in cover.simplices(1)}
        return StableWitness(r, s)

    def apply_dual(c, w):
        D, H = c.xm.D, c.xm.H
        d2, h2 = {}, {}
        for (a, b) in c.cover.simplices(1):
            d2[(a, b)] = D.mul(D.mul(D.mul(w.r[a], c.xm.alpha(w.s[(a, b)])),
                                     c.d[(a, b)]), D.inv(w.r[b]))
        for (a, b, cc) in c.cover.simplices(2):
            ra = w.r[a]
            t1 = c.xm.act(ra, w.s[(a, b)])
            t2 = c.xm.act(D.mul(ra, c.d[(a, b)]), w.s[(b, cc)])
            t3 = c.xm.act(ra, c.h[(a, b, cc)])
            t4 = H.inv(c.xm.act(ra, w.s[(b, cc)]))
            h2[(a, b, cc)] = H.mul(H.mul(H.mul(t1, t2), t3), t4)
        return GerbeCocycle(c.cover, c.xm, d2, h2, name="dual")

    dual_invalid = 0
    for _ in range(50):
        c = cs[int(rng.integers(len(cs)))]
        w = rand_witness()
        apply_witness(c, w)  # raises on any violation
        try:
            check_cocycle(apply_dual(c, w), "dual")
        except StructureError:
            dual_invalid += 1
    assert dual_invalid == 32


def test_pullback_refinement():
    # refining the circle's cover does not change the count of classes
    xm = xmod_trivial_base(cyclic_group(2))
    assert len(classify_gerbes(circle_cover(3), xm).classes) == 2
    assert len(classify_gerbes(circle_cover(6), xm, force=True).classes) == 2


def test_abelian_oracle_reference_values():
    z2 = cyclic_group(2)
    assert abelian_oracle(circle_cover(3), z2, 1).order == 2
    assert abelian_oracle(circle_cover(3), z2, 2).order == 1
    assert abelian_oracle(sphere_cover(4), z2, 2).invariants == [2]
    assert abelian_oracle(sphere_cover(5), z2, 3).invariants == [2]
    assert abelian_oracle(ball_cover(4), z2, 2).order == 1
    z3 = cyclic_group(3)
    assert abelian_oracle(circle_cover(3), z3, 1).order == 3
    assert abelian_oracle(sphere_cover(4), z3, 2).order == 3


def test_abelian_oracle_vs_direct_enumeration():
    z2 = cyclic_group(2)
    for cover in (sphere_cover(4), ball_cover(4), circle_cover(3)):
        assert abelian_oracle(cover, z2, 2).order == \
            brute_cech_h2_order(cover, z2)


def test_classification_matches_oracle(gerbe_runs):
    z2 = cyclic_group(2)
    assert len(gerbe_runs["sphere-z2"][2].classes) == \
        abelian_oracle(sphere_cover(4), z2, 2).order
    assert len(gerbe_runs["circle-z2"][2].classes) == \
        abelian_oracle(circle_cover(3), z2, 2).order


def test_classes_do_not_depend_on_the_identity_label():
    # the generating witnesses must skip the identity, whatever its label
    xm = xmod_trivial_fiber(cyclic_group(2))
    moved = relabel(xm, [1, 0], [0])
    assert moved.H.identity == 1
    assert classify_gerbes(ball_cover(3), moved).counts() == (2, 1)
    for cover in (circle_cover(3), sphere_cover(4)):
        assert classify_gerbes(cover, moved).counts() == \
            classify_gerbes(cover, xm).counts()


SMALL_PRESETS = [xm for xm in preset_corpus()
                 if xm.H.order * xm.D.order <= 16]
SMALL_COVERS = {"circle:3": circle_cover(3), "ball:3": ball_cover(3)}


@functools.lru_cache(maxsize=None)
def _preset_counts(i: int, cover: str) -> tuple:
    return classify_gerbes(SMALL_COVERS[cover], SMALL_PRESETS[i]).counts()


@pytest.mark.parametrize("cover", sorted(SMALL_COVERS))
@pytest.mark.parametrize("i", range(len(SMALL_PRESETS)),
                         ids=[xm.name for xm in SMALL_PRESETS])
@given(data=st.data())
def test_class_counts_invariant_under_relabelling(i, cover, data):
    xm = SMALL_PRESETS[i]
    perm_h = data.draw(st.permutations(range(xm.H.order)), label="perm_h")
    perm_d = data.draw(st.permutations(range(xm.D.order)), label="perm_d")
    moved = relabel(xm, perm_h, perm_d)
    assert classify_gerbes(SMALL_COVERS[cover], moved).counts() == \
        _preset_counts(i, cover)


def _assert_orbits_match_the_search(cover, xm):
    # the array orbits against the scalar graph search over apply_witness:
    # the same orbit of every cocycle, classes in the same order with the
    # same sizes and least members
    cl = classify_gerbes(cover, xm)
    firsts, sizes, orbit_of = search_orbits(cl.cocycles)
    assert cl.orbit_of == orbit_of
    assert [k.orbit_size for k in cl.classes] == sizes
    assert [k.key for k in cl.classes] == firsts
    assert [k.representative.key() for k in cl.classes] == firsts


@pytest.mark.parametrize("cover", sorted(SMALL_COVERS))
@pytest.mark.parametrize("i", range(len(SMALL_PRESETS)),
                         ids=[xm.name for xm in SMALL_PRESETS])
@given(data=st.data())
def test_array_orbits_match_the_search(i, cover, data):
    xm = SMALL_PRESETS[i]
    perm_h = data.draw(st.permutations(range(xm.H.order)), label="perm_h")
    perm_d = data.draw(st.permutations(range(xm.D.order)), label="perm_d")
    _assert_orbits_match_the_search(SMALL_COVERS[cover],
                                    relabel(xm, perm_h, perm_d))


@pytest.mark.parametrize("xm", [xmod_mod(4, 2),
                                xmod_automorphism(cyclic_group(3))],
                         ids=["mod4:2", "aut:Z3"])
def test_array_orbits_match_the_search_on_sphere4(xm):
    _assert_orbits_match_the_search(sphere_cover(4), xm)


@pytest.mark.parametrize("cover, xm", [
    (ball_cover(4), xmod_automorphism(cyclic_group(3))),
    (sphere_cover(4), xmod_mod(4, 2)),
    (ball_cover(3), xmod_identity(symmetric_group(3))),
    (ball_cover(4), relabel(xmod_automorphism(cyclic_group(4)),
                            [3, 1, 0, 2], [1, 0])),
], ids=["ball4-aut:Z3", "sphere4-mod4:2", "ball3-id:S3", "ball4-aut:Z4-moved"])
def test_witness_columns_match_apply_witness(cover, xm):
    # the column formula of the orbit stage, row for row against the scalar
    # formula, which recomputes every value: on witnesses that change every
    # chart and pair at once (no generator does), and on every generator,
    # for which only the columns it can move are gathered
    laws = gerbe._HCompletions(cover, xm)
    table = enumerate_cocycles(cover, xm, laws=laws)
    rng = np.random.default_rng(11)
    witnesses = [(rng.integers(xm.D.order, size=cover.charts),
                  rng.integers(xm.H.order, size=len(laws.pairs)))
                 for _ in range(12)]
    for r, s in witnesses + gerbe._generator_witnesses(cover, xm):
        w = StableWitness(dict(enumerate(r.tolist())),
                          dict(zip(laws.pairs, s.tolist())))
        d2, h2 = gerbe._witness_columns(table, r, s, laws)
        for i in rng.choice(len(table), size=min(len(table), 40),
                            replace=False).tolist():
            want = apply_witness(table[i], w)
            assert (tuple(d2[i].tolist()), tuple(h2[i].tolist())) == want.key()


def test_classification_charges_what_the_search_charged():
    # one step per (cocycle, generator) on top of the enumeration bound,
    # charged up front: the same limit that stopped the graph search stops
    # the classification, and one step more lets it through
    cover, xm = circle_cover(3), xmod_trivial_base(symmetric_group(3))
    table = enumerate_cocycles(cover, xm)
    steps = len(table) * len(gerbe._generator_witnesses(cover, xm))
    assert steps == 216 * 15
    with pytest.raises(BudgetError):
        search_orbits(table, budget=Budget(steps - 1))
    search_orbits(table, budget=Budget(steps))
    bound = gerbe._exhaustive_bound(cover, xm)
    with pytest.raises(BudgetError):
        classify_gerbes(cover, xm, budget=Budget(bound + steps - 1))
    budget = Budget(bound + steps)
    assert classify_gerbes(cover, xm, budget=budget).counts() == (216, 3)
    assert budget.used == bound + steps


def test_row_index_is_exact_beyond_63_bits():
    # 70 binary digits: packed into one int64 the first six digits would
    # wrap away, and a row differing from a table row only there would
    # find that row
    rng = np.random.default_rng(5)
    radix = [2] * 70
    rows = np.unique(rng.integers(2, size=(300, 70)), axis=0)
    shadows = rows.copy()
    shadows[:, :6] ^= 1
    assert np.array_equal(_radix_encode(list(shadows.T), radix, len(rows)),
                          _radix_encode(list(rows.T), radix, len(rows)))
    index = gerbe._RowIndex(rows, radix)
    assert len(index.blocks) > 1
    at = {r: i for i, r in enumerate(map(tuple, rows.tolist()))}
    assert index.find(shadows).tolist() == [at.get(r, -1) for r in
                                            map(tuple, shadows.tolist())]
    assert np.array_equal(index.find(rows), np.arange(len(rows)))
    # mixed radix, 6^30 * 4^30 > 2^63, with the table in no order
    radix = [6] * 30 + [4] * 30
    rows = np.hstack((rng.integers(6, size=(400, 30)),
                      rng.integers(4, size=(400, 30))))
    rows[200:] = rows[:200]     # pairs of rows one last digit apart
    rows[:200, -1], rows[200:, -1] = 0, 1
    index = gerbe._RowIndex(rows, radix)
    queries = np.vstack((rows[::-1], rows[:, ::-1] % 4))
    at = {r: i for i, r in enumerate(map(tuple, rows.tolist()))}
    assert index.find(queries).tolist() == [at.get(r, -1) for r in
                                            map(tuple, queries.tolist())]
    with pytest.raises(StructureError, match="repeats a row"):
        gerbe._RowIndex(np.vstack((rows, rows[7:8])), radix)


def test_an_image_outside_the_table_is_refused(monkeypatch):
    # 1 -> Z2 identity on ball:3: alpha is one-to-one, so d fixes h_012,
    # and a row with its h_012 changed is no cocycle
    real = gerbe._witness_columns

    def off(table, r, s, laws):
        d, h = real(table, r, s, laws)
        h[0, 0] = (h[0, 0] + 1) % table.xm.H.order
        return d, h
    monkeypatch.setattr(gerbe, "_witness_columns", off)
    with pytest.raises(StructureError, match="witness action left the "
                                             "enumerated cocycle set"):
        classify_gerbes(ball_cover(3), xmod_identity(cyclic_group(2)))


def test_two_rows_sent_to_one_row_are_refused(monkeypatch):
    real = gerbe._witness_columns

    def merged(table, r, s, laws):
        d, h = real(table, r, s, laws)
        d[1], h[1] = d[0], h[0]
        return d, h
    monkeypatch.setattr(gerbe, "_witness_columns", merged)
    with pytest.raises(StructureError, match="not one-to-one"):
        classify_gerbes(ball_cover(3), xmod_identity(cyclic_group(2)))


def test_base_only_module_matches_bundle_count():
    # (1 -> Z3) gerbes over the circle = conjugacy classes of Z3 = 3,
    # the same count the bundle classifier produces
    from xmodgerbe.simplicial import circle, constant_simplicial_group
    from xmodgerbe.twist import classify_bundles
    xm = xmod_trivial_base(cyclic_group(3))
    cl = classify_gerbes(circle_cover(3), xm)
    sg = constant_simplicial_group(cyclic_group(3), 2)
    bc = classify_bundles(circle(2), sg)
    assert len(cl.classes) == len(bc.twisting_classes) == 3


def test_guard_requires_force():
    with pytest.raises(BudgetError):
        classify_gerbes(ball_cover(6), xmod_identity(symmetric_group(3)))


def test_cocycle_map_round_trip(gerbe_runs):
    cover, xm, cl = gerbe_runs["circle-s3"]
    match = match_wbar_duskin(xm, N=2)
    for k in cl.classes:
        c = k.representative
        maps = cocycle_to_simplicial_map(c, match, budget=Budget(what="ext"))
        back = map_to_cocycle(maps.wbar_map, cover, xm, match)
        assert back.d == c.d and back.h == c.h
        back2 = map_to_cocycle(maps.duskin_map, cover, xm)
        assert back2.d == c.d and back2.h == c.h


def test_lift_solid_cover_all_lift():
    target = xmod_mod(4, 2)
    base = derived_crossed_modules(target)["image-in-base"]
    for c in enumerate_cocycles(ball_cover(3), base):
        r = lift_gerbe(c, target)
        assert r.central and r.lifted and r.obstruction_zero and r.agreement
        assert r.oracle.order == 1


def test_lift_plan_matches_one_shot_lift():
    cases = [(sphere_cover(4), xmod_mod(4, 2)), (sphere_cover(5), xmod_mod(4, 2)),
             (sphere_cover(5), xmod_mod(8, 2)),
             (sphere_cover(4), xmod_automorphism(cyclic_group(3)))]
    for cover, target in cases:
        plan = LiftPlan(cover, target)
        cocycles = enumerate_cocycles(cover, plan.base)
        assert cocycles
        for c in cocycles:
            got, want = plan.lift(c), lift_gerbe(c, target)
            assert (got.lifted is None) == (want.lifted is None)
            if got.lifted is not None:
                assert got.lifted.d == want.lifted.d
                assert got.lifted.h == want.lifted.h
                assert got.lifted.name == want.lifted.name
            assert got.central == want.central
            assert got.action_trivial == want.action_trivial
            assert got.obstruction_zero == want.obstruction_zero
            assert got.agreement == want.agreement
            assert got.oracle == want.oracle
            assert got.defect == want.defect
    # the automorphism module: 8 cocycles, obstruction not emitted
    assert len(cocycles) == 8 and not plan.emitted and got.oracle is None
    plan = LiftPlan(sphere_cover(4), xmod_mod(4, 2))
    with pytest.raises(StructureError):
        plan.lift(enumerate_cocycles(sphere_cover(4), xmod_mod(4, 2))[1])
    with pytest.raises(StructureError):
        plan.lift(enumerate_cocycles(ball_cover(3), plan.base)[1])


# sphere:4 has no quads; xmod_mod:8:2 has ker alpha = Z4, a non-prime modulus
LIFT_CASES = pytest.mark.parametrize("cover, target", [
    (sphere_cover(4), xmod_mod(4, 2)),
    (sphere_cover(5), xmod_mod(4, 2)),
    (sphere_cover(5), xmod_mod(8, 2)),
], ids=["sphere4-4:2", "sphere5-4:2", "sphere5-8:2"])


@LIFT_CASES
def test_lift_plan_solvers_match_a_fresh_solve_per_cocycle(cover, target):
    plan = LiftPlan(cover, target)
    cocycles = enumerate_cocycles(cover, plan.base)
    assert plan.emitted and cocycles
    for c in cocycles:
        r = plan.lift(c)
        assert set(r.defect) == set(plan.quads)
        fresh = all(
            solve_mod(plan.mat, [(-r.defect[q][ci]) % m for q in plan.quads],
                      m) is not None
            for ci, m in enumerate(plan.moduli)) if plan.quads else True
        assert r.obstruction_zero == fresh
        assert (r.lifted is not None) == fresh
        assert r.agreement is True


@LIFT_CASES
def test_lift_table_matches_the_per_cocycle_reference(cover, target):
    # every row of the table lift against the per-cocycle lift of the
    # reference: the lifted h, the verdicts, the defect and the budget
    plan = LiftPlan(cover, target)
    table = enumerate_cocycles(cover, plan.base)
    used, want_used = Budget(what="lift"), Budget(what="lift")
    got = plan.lift_table(table, budget=used)
    assert got.found.shape == got.obstruction_zero.shape == (len(table),)
    for i, c in enumerate(table):
        lifted, zero, agreement, defect = lift_one(plan, c, want_used)
        assert bool(got.found[i]) == (lifted is not None)
        if lifted is not None:
            assert got.h[i].tolist() == [lifted[t]
                                         for t in cover.simplices(2)]
        assert got.obstruction_zero[i] == zero
        assert got.agreement[i] == agreement
        assert {q: tuple(v) for q, v in zip(plan.quads,
                                             got.defect[i].tolist())} == defect
    assert used.used == want_used.used > 0


@LIFT_CASES
def test_lift_plan_factors_once_per_modulus(monkeypatch, cover, target):
    calls = []
    real = intlinalg.smith_normal_form

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    ker_g, _ = kernel(target.alpha, name="ker")
    abelian_oracle(cover, ker_g, 3)
    oracle_calls = len(calls)
    calls.clear()
    plan = LiftPlan(cover, target)
    solver_calls = len(calls) - oracle_calls
    assert solver_calls == (len(plan.moduli) if plan.quads else 0)
    calls.clear()
    table = enumerate_cocycles(cover, plan.base)
    for c in table:
        plan.lift(c)
    plan.lift_table(table)
    assert calls == []


def test_cocycle_json_round_trip():
    # the "a,b" and "a,b,c" keys of the printed form read back to d and h
    xm = xmod_mod(4, 2)
    c = enumerate_cocycles(ball_cover(3), xm)[2]
    d = cocycle_to_json(c)
    assert sorted(d) == ["d", "h", "name"]

    def read(values):
        return {tuple(int(x) for x in k.split(",")): v
                for k, v in values.items()}

    assert read(d["d"]) == c.d and read(d["h"]) == c.h


# the enumeration's array frontier against a brute force, and the lift's
# depth-first search and budget against figures pinned before the table lift


@pytest.mark.parametrize("cover, xm", [
    (sphere_cover(4), xmod_mod(4, 2)),
    (ball_cover(4), xmod_identity(cyclic_group(2))),
    (sphere_cover(4), xmod_automorphism(cyclic_group(3))),
    (circle_cover(3), xmod_trivial_base(symmetric_group(3))),
    (ball_cover(4), xmod_automorphism(cyclic_group(3))),
], ids=["sphere4-mod4:2", "ball4-id:Z2", "sphere4-aut:Z3", "circle3-base:S3",
        "ball4-aut:Z3"])
def test_enumeration_matches_brute_force(cover, xm):
    want = brute_cocycles(cover, xm)
    assert want
    assert [c.key() for c in enumerate_cocycles(cover, xm)] == want


@pytest.mark.parametrize("k, used", [(5, 12_288), (4, 320)])
def test_lift_budget_use_pinned(k, used):
    plan = LiftPlan(sphere_cover(k), xmod_mod(4, 2))
    budget = Budget(what="lift")
    for c in enumerate_cocycles(plan.cover, plan.base, budget=budget):
        plan.lift(c, budget=budget)
    assert budget.used == used
    budget = Budget(what="lift")
    plan.lift_table(enumerate_cocycles(plan.cover, plan.base, budget=budget),
                    budget=budget)
    assert budget.used == used


def test_lift_defects_pinned():
    plan = LiftPlan(sphere_cover(5), xmod_mod(4, 2))
    defects = [sorted(plan.lift(c).defect.items())
               for c in enumerate_cocycles(plan.cover, plan.base)]
    assert len(defects) == 1024
    assert hashlib.sha256(repr(defects).encode()).hexdigest() == (
        "8cb13b977342bac1c8c3ed28165c1d072402ce6f664c36df0b365a376015006e")


def _recursive_completions(laws, d, budget=None):
    """The h-completion search as a recursive generator: h_i runs over its
    coset in order, each value charged before it is set, and the quads
    triple i closes are checked before h_{i+1} is tried."""
    cosets = [laws.pre[x] for x in _edge(laws, d)]
    hmul, act = laws.hmul, laws.act
    h = [0] * len(cosets)

    def extend(i):
        if i == len(h):
            yield list(h)
            return
        for v in cosets[i]:
            if budget is not None:
                budget.spend()
            h[i] = v
            if all(hmul[h[abc]][h[acd]] == hmul[act[d[ab]][h[bcd]]][h[abd]]
                   for ab, abc, acd, bcd, abd in laws.by_depth[i]):
                yield from extend(i + 1)

    yield from extend(0)


def _completion_laws():
    plan = LiftPlan(sphere_cover(5), xmod_mod(4, 2))
    return {
        "circle3-base:S3": gerbe._HCompletions(
            circle_cover(3), xmod_trivial_base(symmetric_group(3))),
        "ball3-fiber:Z3": gerbe._HCompletions(
            ball_cover(3), xmod_trivial_fiber(cyclic_group(3))),
        "sphere5-image:mod4:2": plan.base_laws,
        "sphere5-mod4:2": plan.search,
        "ball4-aut:Z3": gerbe._HCompletions(
            ball_cover(4), xmod_automorphism(cyclic_group(3))),
    }


def _d_assignments(laws):
    return itertools.product(range(laws.D.order), repeat=len(laws.pairs))


def _edge(laws, d):
    """The edge values of one d-assignment, as a list."""
    return laws.edge_values(np.array([d]))[0].tolist()


def _searched(search, laws, budget, first_only, tape=None):
    """The completions (d, h) over all d-assignments, and whether `budget`
    ran out; with first_only, each d's search is left after its first
    completion, as a lift leaves it.  With a tape, each completion and a
    "$" for each value charged go on it in the order they happen."""
    found = [] if tape is None else tape
    if tape is not None:
        charge = budget.spend
        budget.spend = lambda n=1: (tape.append("$"), charge(n))
    try:
        for d in _d_assignments(laws):
            for h in search(laws, d, budget):
                found.append((d, h))
                if first_only:
                    break
    except BudgetError:
        return found, True
    return found, False


def _before_charge(tape, k):
    """The completions on a tape before its k-th charge."""
    out = []
    for x in tape:
        if x == "$":
            k -= 1
            if not k:
                break
        else:
            out.append(x)
    return out


@pytest.mark.parametrize("name", sorted(_completion_laws()))
def test_completions_match_the_recursive_search(name):
    # the search keeps one cursor per triple instead of recursing; it must
    # yield the same lists in the same order and charge the budget at the
    # same points, so that an exhausted budget raises at the same count
    laws = _completion_laws()[name]

    def flat(laws, d, budget):
        return laws.completions(d, _edge(laws, d), budget)

    for first_only in (False, True):
        want, ran_out = _searched(_recursive_completions, laws, Budget(),
                                  first_only, [])
        assert _searched(flat, laws, Budget(), first_only, []) == (want,
                                                                   ran_out)
        assert not ran_out and any(x != "$" for x in want)
        spent = want.count("$")
        if spent:
            cut = [_searched(search, laws, Budget(limit=spent // 2),
                             first_only)
                   for search in (_recursive_completions, flat)]
            assert cut[0] == cut[1] == (_before_charge(want, spent // 2 + 1),
                                        True)
    # without a budget nothing is charged, and the same lists come out
    d = next(_d_assignments(laws))
    assert (list(laws.completions(d, _edge(laws, d)))
            == list(_recursive_completions(laws, d)))


def test_classification_builds_its_laws_once(monkeypatch):
    # the enumeration searches with the tables the witness columns read
    built = []

    class Counted(gerbe._HCompletions):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(gerbe, "_HCompletions", Counted)
    cl = classify_gerbes(ball_cover(3), xmod_trivial_fiber(cyclic_group(3)))
    assert cl.counts() == (3, 1)
    assert len(built) == 1
