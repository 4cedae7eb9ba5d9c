"""Cocycle enumeration, stable equivalence, refinement, lifting."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xmodgerbe import intlinalg
from xmodgerbe.fingroup import (cyclic_group, derived_crossed_modules, kernel,
                                preset_corpus,
                                symmetric_group, xmod_automorphism,
                                xmod_identity, xmod_mod, xmod_trivial_base,
                                xmod_trivial_fiber)
from xmodgerbe.gerbe import (GerbeCocycle, LiftPlan, StableWitness,
                             abelian_oracle, apply_witness, classify_gerbes,
                             cocycle_to_json, cocycle_to_simplicial_map,
                             enumerate_cocycles, identity_witness, lift_gerbe,
                             check_cocycle, map_to_cocycle)
from xmodgerbe.intlinalg import solve_mod
from xmodgerbe.simplicial import ball_cover, circle_cover, sphere_cover
from xmodgerbe.util import Budget, BudgetError, StructureError
from xmodgerbe.xnerve import match_wbar_duskin

from _oracles import brute_cech_h2_order, brute_cocycles, relabel


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
    assert match.found
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
    for c in enumerate_cocycles(cover, plan.base):
        plan.lift(c)
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


# enumeration and lifting run one h-completion search; a brute force and
# figures pinned before the two searches were merged hold both to the old ones


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


def test_lift_defects_pinned():
    plan = LiftPlan(sphere_cover(5), xmod_mod(4, 2))
    defects = [sorted(plan.lift(c).defect.items())
               for c in enumerate_cocycles(plan.cover, plan.base)]
    assert len(defects) == 1024
    assert hashlib.sha256(repr(defects).encode()).hexdigest() == (
        "8cb13b977342bac1c8c3ed28165c1d072402ce6f664c36df0b365a376015006e")
