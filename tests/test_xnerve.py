"""Nerve of a crossed module, Duskin complex, and the matching results."""

import numpy as np
import pytest

from xmodgerbe import xnerve
from xmodgerbe.fingroup import (CrossedModule, GroupHom, cokernel,
                                cyclic_group, groups_isomorphic, kernel,
                                symmetric_group, trivial_action,
                                xmod_identity, xmod_mod, xmod_trivial_base,
                                xmod_trivial_fiber)
from xmodgerbe.simplicial import moore_homotopy, validate_map, validate_simplicial
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
            [[a.tolist() for a in lvl] for lvl in x.degens], x.labels)


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


def test_match_wbar_duskin_small_modules(corpus):
    small = [xm for xm in corpus if xm.H.order * xm.D.order <= 8]
    assert small
    for xm in small:
        m = match_wbar_duskin(xm, N=3, budget=Budget(what="match"))
        assert m.found, xm.name
        assert validate_map(m.iso).ok
        # the stored inverse permutations undo the witness levelwise
        for lvl in range(m.wbar.N + 1):
            for s in range(m.wbar.sizes[lvl]):
                assert int(m.inverse[lvl][m.iso.levels[lvl][s]]) == s
            for s in range(m.duskin.sizes[lvl]):
                assert int(m.iso.levels[lvl][m.inverse[lvl][s]]) == s


def test_match_dimensions_agree():
    xm = xmod_mod(4, 2)
    m = match_wbar_duskin(xm, N=3, budget=Budget(what="match"))
    assert m.found
    assert m.wbar.sizes == m.duskin.sizes


def test_match_nodes_are_pinned():
    # search nodes of the model match: they move with any change to the
    # engine's pick order or pruning
    for (n, k), nodes in (((8, 4), 32_908), ((4, 2), 533)):
        budget = Budget(what="match")
        assert match_wbar_duskin(xmod_mod(n, k), N=3, budget=budget).found
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
