"""Group and crossed-module layer: validators vs independent scans."""

import json

import numpy as np
import pytest

from xmodgerbe.fingroup import (CrossedModule, FiniteGroup, GroupAction,
                                GroupHom, abelian_invariants, automorphisms,
                                cokernel, conjugation_action, cyclic_group,
                                derived_crossed_modules, dihedral_group,
                                element_orders, find_isomorphism,
                                groups_isomorphic, image, kernel,
                                preset_library, product_group, quotient,
                                subgroup, symmetric_group, trivial_group,
                                validate_crossed_module, validate_group,
                                xmod_from_json, xmod_identity, xmod_mod,
                                xmod_to_json, xmod_automorphism)
from xmodgerbe.util import StructureError

from _oracles import brute_automorphisms

from _oracles import scan_group_axioms, scan_xmod_axioms


def test_group_constructors_are_groups():
    for g in (cyclic_group(1), cyclic_group(7), dihedral_group(4),
              symmetric_group(4), product_group(cyclic_group(2),
                                                cyclic_group(3))):
        assert validate_group(g).ok
        assert scan_group_axioms(g.table) == []


def test_group_orders():
    assert cyclic_group(6).order == 6
    assert dihedral_group(5).order == 10
    assert symmetric_group(4).order == 24
    assert product_group(cyclic_group(2), symmetric_group(3)).order == 12


def test_validate_group_rejects_broken_table():
    # a non-associative loop: identity and inverses exist, so construction
    # succeeds, but both the validator and the scan must flag it
    t = np.array([[0, 1, 2, 3, 4],
                  [1, 0, 3, 4, 2],
                  [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1],
                  [4, 3, 1, 2, 0]])
    g = FiniteGroup(t, name="loop5")
    rep = validate_group(g)
    assert not rep.ok
    assert "associativity" in scan_group_axioms(g.table)


def test_element_orders_and_abelian_invariants():
    assert sorted(element_orders(cyclic_group(4))) == [1, 2, 4, 4]
    assert abelian_invariants(cyclic_group(6)) in ([6], [2, 3], [3, 2])
    z2z2 = product_group(cyclic_group(2), cyclic_group(2))
    inv = abelian_invariants(z2z2)
    assert sorted(inv) == [2, 2]


def test_isomorphism_detection():
    z6 = cyclic_group(6)
    z2z3 = product_group(cyclic_group(2), cyclic_group(3))
    assert groups_isomorphic(z6, z2z3)
    assert find_isomorphism(z6, symmetric_group(3)) is None
    assert not groups_isomorphic(dihedral_group(4),
                                 product_group(cyclic_group(2),
                                               cyclic_group(4)))


def test_automorphism_counts():
    assert len(automorphisms(cyclic_group(4))) == 2
    assert len(automorphisms(symmetric_group(3))) == 6
    assert len(automorphisms(product_group(cyclic_group(2),
                                           cyclic_group(2)))) == 6


@pytest.mark.parametrize("g", [
    trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
    product_group(cyclic_group(2), cyclic_group(2)), cyclic_group(5),
    cyclic_group(6), symmetric_group(3), dihedral_group(3),
], ids=lambda g: g.name)
def test_automorphisms_match_brute_force(g):
    assert [m.tolist() for m in automorphisms(g)] == brute_automorphisms(g)


@pytest.mark.parametrize("g1, g2, mapping", [
    (symmetric_group(3), dihedral_group(3), [0, 3, 4, 1, 2, 5]),
    (cyclic_group(6), product_group(cyclic_group(2), cyclic_group(3)),
     [0, 4, 2, 3, 1, 5]),
    (dihedral_group(4), dihedral_group(4), list(range(8))),
    (product_group(cyclic_group(2), symmetric_group(3)), dihedral_group(6),
     [0, 6, 10, 4, 2, 8, 3, 9, 7, 1, 5, 11]),
], ids=["S3-D3", "Z6-Z2xZ3", "D4-D4", "Z2xS3-D6"])
def test_find_isomorphism_pinned(g1, g2, mapping):
    # the first isomorphism of the shared backtrack, pinned before
    # find_isomorphism and automorphisms shared it
    f = find_isomorphism(g1, g2)
    assert f.mapping.tolist() == mapping and f.name == "iso"


def test_subgroup_quotient_kernel_image():
    s3 = symmetric_group(3)
    rot = [i for i, o in enumerate(element_orders(s3)) if o in (1, 3)]
    sub, inc = subgroup(s3, rot)
    assert sub.order == 3
    q, proj = quotient(s3, rot)
    assert q.order == 2
    f = GroupHom(cyclic_group(4), cyclic_group(2),
                 np.array([0, 1, 0, 1]), name="mod2")
    k, _ = kernel(f)
    im, _ = image(f)
    ck, _ = cokernel(f)
    assert (k.order, im.order, ck.order) == (2, 2, 1)


def test_corpus_valid_and_scans_agree(corpus):
    assert len(corpus) >= 10
    for xm in corpus:
        rep = validate_crossed_module(xm)
        scan = scan_xmod_axioms(xm)
        assert rep.ok, f"{xm.name}: {rep.summary()}"
        assert scan == [], f"{xm.name}: independent scan found {scan}"


def _invalid_examples():
    """Built directly from tables so constructor guards cannot intervene."""
    s3 = symmetric_group(3)
    bad_peiffer = CrossedModule(
        s3, s3, GroupHom(s3, s3, np.arange(6), name="id"),
        GroupAction(s3, s3, np.tile(np.arange(6), (6, 1)), name="triv"),
        name="id-S3-trivial-action")
    z4, z2 = cyclic_group(4), cyclic_group(2)
    perm = np.array([[0, 1, 2, 3], [1, 0, 2, 3]])  # not an automorphism
    bad_action = CrossedModule(
        z4, z2, GroupHom(z4, z2, np.zeros(4, dtype=np.int64), name="triv"),
        GroupAction(z2, z4, perm, name="swap"), name="swap-action")
    bad_alpha = CrossedModule(
        z4, z2, GroupHom(z4, z2, np.array([0, 1, 1, 1]), name="nonhom"),
        GroupAction(z2, z4, np.tile(np.arange(4), (2, 1)), name="triv"),
        name="nonhom-alpha")
    return [bad_peiffer, bad_action, bad_alpha]


def test_invalid_modules_rejected_by_both_routes():
    for xm in _invalid_examples():
        rep = validate_crossed_module(xm)
        scan = scan_xmod_axioms(xm)
        assert not rep.ok, xm.name
        assert scan != [], xm.name


def test_conjugation_and_identity_module():
    s3 = symmetric_group(3)
    xm = xmod_identity(s3)
    assert validate_crossed_module(xm).ok
    act = conjugation_action(s3)
    assert act(0, 3) == 3  # identity acts trivially


def test_xmod_mod_and_automorphism_presets():
    xm = xmod_mod(4, 2)
    assert (xm.H.order, xm.D.order) == (4, 2)
    assert validate_crossed_module(xm).ok
    aut = xmod_automorphism(cyclic_group(3))
    assert aut.D.order == 2
    assert validate_crossed_module(aut).ok


def test_derived_modules():
    xm = xmod_mod(4, 2)
    der = derived_crossed_modules(xm)
    assert der["kernel-fiber"].H.order == 2
    assert der["image-in-base"].H.order == 2
    assert der["coker-base"].D.order == 1
    for m in der.values():
        assert validate_crossed_module(m).ok


def test_preset_library_parsing():
    assert preset_library("cyclic", "5").order == 5
    assert preset_library("xmod_mod", "6", "3").H.order == 6
    assert preset_library("xmod_fiber", "cyclic:3").D.order == 1
    assert preset_library("xmod_base", "symmetric:3").H.order == 1
    with pytest.raises(StructureError):
        preset_library("nonsense")


def test_xmod_json_round_trip(tmp_path):
    xm = xmod_mod(6, 3)
    d = xmod_to_json(xm)
    back = xmod_from_json(json.loads(json.dumps(d)))
    assert np.array_equal(back.H.table, xm.H.table)
    assert np.array_equal(back.alpha.mapping, xm.alpha.mapping)
    assert np.array_equal(back.action.table, xm.action.table)
    assert validate_crossed_module(back).ok


def test_trivial_group_module_edges():
    one = trivial_group()
    assert one.order == 1
    xm = xmod_identity(one)
    assert validate_crossed_module(xm).ok
