"""Nerve of a crossed module, Duskin complex, and the matching results."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from xmodgerbe import xnerve
from xmodgerbe.fingroup import (CrossedModule, GroupHom, cokernel,
                                cyclic_group, groups_isomorphic, kernel,
                                symmetric_group, trivial_action,
                                xmod_identity, xmod_mod, xmod_trivial_base,
                                xmod_trivial_fiber)
from xmodgerbe.simplicial import (_found_maps, _map_spec, moore_homotopy,
                                  validate_map, validate_simplicial)
from xmodgerbe.util import Budget, Report, StructureError
from xmodgerbe.xnerve import (build_duskin, build_nerve, exactness_check,
                              homotopy_quotient, match_wbar_duskin,
                              nerve_homotopy, semidirect_model)

from _oracles import naive_duskin, naive_nerve, relabel


def test_nerve_level_sizes(corpus):
    # composable n-strings in a groupoid with |D| objects and |H| choices
    # per arrow: |D| * |H|^n at level n
    for xm in corpus:
        n = build_nerve(xm, 3)
        want = [xm.D.order * xm.H.order ** k for k in range(4)]
        assert [g.order for g in n.groups] == want, xm.name


def test_nerve_matches_naive_nerve(corpus):
    # the builder reads and writes its indices through the shared mixed-radix
    # helpers; the oracle walks the chains of its docstring one at a time
    for xm in corpus:
        tables, faces, degens = naive_nerve(xm, 3)
        n = build_nerve(xm, 3)
        assert [g.table.tolist() for g in n.groups] == tables, xm.name
        assert [[f.tolist() for f in lvl] for lvl in n.faces] == faces, xm.name
        assert [[s.tolist() for s in lvl] for lvl in n.degens] == degens, xm.name


def test_nerve_underlying_sset_validates(corpus):
    for xm in corpus[:6]:
        n = build_nerve(xm, 3)
        assert validate_simplicial(n.sset()).ok, xm.name


def test_nerve_homotopy_matches_kernel_cokernel(corpus):
    for xm in corpus:
        pi0, pi1 = nerve_homotopy(xm, 2)
        coker, _ = cokernel(xm.alpha)
        ker, _ = kernel(xm.alpha)
        assert groups_isomorphic(pi0, coker), xm.name
        assert groups_isomorphic(pi1, ker), xm.name


def test_moore_route_agrees_with_nerve_homotopy():
    xm = xmod_mod(6, 3)
    n = build_nerve(xm, 2)
    pi0, pi1 = nerve_homotopy(xm, 2)
    assert moore_homotopy(n, 0).order == pi0.order
    assert moore_homotopy(n, 1).order == pi1.order


def test_duskin_validates_and_is_small():
    for xm in (xmod_trivial_fiber(cyclic_group(2)),
               xmod_mod(4, 2), xmod_identity(cyclic_group(3))):
        d = build_duskin(xm, 3)
        assert validate_simplicial(d).ok
        assert d.sizes[0] == 1


def _rotated(xm):
    """xm relabelled so that both identities leave label 0 (when |G| > 1)."""
    def rot(n):
        return list(range(1, n)) + [0]
    return relabel(xm, rot(xm.H.order), rot(xm.D.order))


def _as_lists(x):
    return (x.sizes, [[a.tolist() for a in lvl] for lvl in x.faces],
            [[a.tolist() for a in lvl] for lvl in x.degens],
            [[x.label(n, i) for i in range(x.sizes[n])] for n in range(x.N + 1)])


def test_duskin_matches_scalar_oracle(corpus):
    small = [xm for xm in corpus if xm.H.order * xm.D.order <= 16]
    cases = [(xm, 3) for xm in small] + [(_rotated(xm), 3) for xm in small]
    cases.append((xmod_mod(4, 2), 4))
    assert any(xm.H.identity != 0 and xm.D.identity != 0 for xm, _ in cases)
    for xm, N in cases:
        assert _as_lists(build_duskin(xm, N)) == naive_duskin(xm, N), (xm.name, N)


def test_duskin_pasting_check_survives_a_skipped_validation(monkeypatch):
    # id: S3 -> S3 with the trivial action breaks Peiffer; with the input
    # check switched off, the pasting conditions at level 3 catch it
    s3 = symmetric_group(3)
    bad = CrossedModule(s3, s3, GroupHom(s3, s3, np.arange(6), name="id"),
                        trivial_action(s3, s3), name="bad")
    with pytest.raises(StructureError, match="invalid crossed module"):
        build_duskin(bad, 3)
    monkeypatch.setattr(xnerve, "validate_crossed_module", lambda xm: Report())
    build_duskin(bad, 2)
    with pytest.raises(StructureError, match="derived simplex data violates "
                                             "a pasting condition at level 3"):
        build_duskin(bad, 3)


def test_match_dimensions_agree():
    xm = xmod_mod(4, 2)
    m = match_wbar_duskin(xm, N=3, budget=Budget(what="match"))
    assert m.wbar.sizes == m.duskin.sizes


def _assert_dictionary(m, what):
    # a simplicial map, bijective at every level, whose stored inverse
    # permutations undo it from both sides
    rep = validate_map(m.iso)
    assert rep.ok, (what, rep.summary())
    for n, (arr, inv) in enumerate(zip(m.iso.levels, m.inverse, strict=True)):
        assert len(arr) == m.duskin.sizes[n], (what, n)
        assert np.array_equal(np.sort(arr), np.arange(len(arr))), (what, n)
        assert np.array_equal(inv[arr], np.arange(len(arr))), (what, n)
        assert np.array_equal(arr[inv], np.arange(len(arr))), (what, n)


def test_match_wbar_duskin_small_modules(corpus):
    # every preset at N = 2 and 3, and at N = 4 where |H||D| <= 12
    cases = [(xm, N) for xm in corpus for N in (2, 3)]
    cases += [(xm, 4) for xm in corpus if xm.H.order * xm.D.order <= 12]
    assert len(cases) == 42
    for xm, N in cases:
        m = match_wbar_duskin(xm, N, budget=Budget(what="match"))
        assert m.wbar.N == N and m.wbar.sizes == m.duskin.sizes
        _assert_dictionary(m, (xm.name, N))


def test_closed_form_dictionary_on_moved_identities(corpus):
    # relabelled modules whose identities are not label 0: the formula reads
    # the group tables, never a label
    moved = [_rotated(xm) for xm in corpus if xm.H.order * xm.D.order <= 16]
    assert all(xm.H.identity != 0 or xm.D.identity != 0 for xm in moved)
    assert len(moved) == 13
    for xm in moved:
        _assert_dictionary(match_wbar_duskin(xm, 3), xm.name)
    xm = _rotated(xmod_mod(4, 2))
    _assert_dictionary(match_wbar_duskin(xm, 4), (xm.name, 4))


def test_dictionary_with_h_for_its_inverse_fails_validation(monkeypatch):
    # the pasting law d d' = alpha(h_012) alpha(h) d d' forces h_012 = h^-1;
    # the same formula with h_012 = h breaks d_1 at level 2 on id(S3).  Over
    # aut(Z3) that mutation is still a simplicial map, so it shows nothing.
    closed_form = xnerve._iso_levels

    def h_for_inverse(xm, wbar):
        h = SimpleNamespace(order=xm.H.order, inverses=np.arange(xm.H.order))
        return closed_form(SimpleNamespace(H=h, D=xm.D), wbar)

    monkeypatch.setattr(xnerve, "_iso_levels", h_for_inverse)
    with pytest.raises(StructureError, match="face-commutes-d1@2"):
        match_wbar_duskin(xmod_identity(symmetric_group(3)), 3)


def test_model_names_are_decoded_from_the_index():
    # W-bar and the 2-nerve keep no name per simplex: label decodes one from
    # its index and index encodes it back
    m = match_wbar_duskin(xmod_mod(4, 2), 3)
    for x in (m.wbar, m.duskin):
        for n in range(x.N + 1):
            names = [x.label(n, i) for i in range(x.sizes[n])]
            assert [x.index(n, lab) for lab in names] == list(range(x.sizes[n]))
    assert m.wbar.label(0, 0) == () and m.duskin.label(0, 0) == ((), ())
    assert m.duskin.label(2, 13) == ((1, 1), (1,))
    with pytest.raises(KeyError):
        m.duskin.index(2, ((1, 2), (1,)))


def test_match_keeps_little_memory_alive():
    # the two models hold their face and degeneracy arrays and no name per
    # simplex: about 3.3 MiB for xmod_mod(8, 4) at N = 3, and 7.6 MiB when
    # every simplex also kept a tuple of its digits
    xm = xmod_mod(8, 4)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = match_wbar_duskin(xm, 3)
        alive = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert m.wbar.sizes[3] == 32_768
    assert alive <= 4.5 * 2**20, alive


def _searched_map(xm, budget):
    # the engine's first map from W-bar to the 2-nerve: not the closed-form
    # isomorphism, but a search that exercises the engine on a big level
    m = match_wbar_duskin(xm, N=3)
    return next(_found_maps(_map_spec(m.wbar, m.duskin), m.duskin, budget,
                            limit=1, name="model-map"))


def test_match_nodes_are_pinned():
    # search nodes of the first map between the two models: they move with
    # any change to the engine's pick order or pruning
    for (n, k), nodes in (((8, 4), 32_901), ((4, 2), 531)):
        budget = Budget(what="match")
        assert validate_map(_searched_map(xmod_mod(n, k), budget)).ok
        assert budget.used == nodes


def test_homotopy_quotient_model():
    for xm in (xmod_mod(4, 2), xmod_identity(cyclic_group(3)),
               xmod_trivial_base(symmetric_group(3))):
        hq = homotopy_quotient(xm, 2)
        assert hq.report.ok, xm.name


def test_semidirect_model_and_exactness(corpus):
    for xm in corpus[:8]:
        sm = semidirect_model(xm, 2)
        assert sm.report.ok, xm.name
        assert all(k == xm.H.order for k in sm.kernel_orders)
        assert exactness_check(xm, 2).ok, xm.name
