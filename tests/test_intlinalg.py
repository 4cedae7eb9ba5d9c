"""Integer matrix layer against sympy and hand-checked homology."""

import itertools

import numpy as np
import pytest

from xmodgerbe import intlinalg
from xmodgerbe.fingroup import xmod_mod
from xmodgerbe.gerbe import LiftPlan
from xmodgerbe.intlinalg import (ModSolver, homology, rank_z, smith_normal_form,
                                 solve_mod)
from xmodgerbe.simplicial import ball_cover, sphere_cover

from _oracles import sympy_smith_invariants


def _mat(rng, shape, lo=-4, hi=5):
    return rng.integers(lo, hi, size=shape).tolist()


def test_smith_factorization_properties():
    rng = np.random.default_rng(3)
    for _ in range(25):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        a = _mat(rng, shape)
        u, s, v = smith_normal_form(a)
        u, s, v = np.array(u), np.array(s), np.array(v)
        assert np.array_equal(u @ np.array(a) @ v, s)
        assert abs(round(np.linalg.det(u))) == 1
        assert abs(round(np.linalg.det(v))) == 1
        diag = [int(s[i, i]) for i in range(min(shape))]
        nz = [abs(d) for d in diag if d]
        for i in range(len(nz) - 1):
            assert nz[i + 1] % nz[i] == 0


def test_smith_invariants_match_sympy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        a = np.array(_mat(rng, shape))
        _, s, _ = smith_normal_form(a.tolist())
        s = np.array(s)
        mine = sorted(abs(int(s[i, i])) for i in range(min(shape))
                      if s[i, i])
        theirs = sorted(sympy_smith_invariants(a))
        assert mine == theirs, (a, mine, theirs)


def test_rank_z():
    assert rank_z([[2, 4], [1, 2]]) == 1
    assert rank_z([[1, 0], [0, 3]]) == 2
    assert rank_z([[0, 0], [0, 0]]) == 0


def test_solve_mod_known_systems():
    # 2x = 2 mod 4 has solutions x in {1, 3}
    x = solve_mod([[2]], [2], 4)
    assert x is not None and (2 * x[0]) % 4 == 2
    # 2x = 1 mod 4 unsolvable
    assert solve_mod([[2]], [1], 4) is None
    a = [[1, 2], [0, 2]]
    b = [3, 2]
    x = solve_mod(a, b, 6)
    assert x is not None
    got = (np.array(a) @ np.array(x)) % 6
    assert np.array_equal(got, np.array(b) % 6)


def test_modulus_below_one_is_refused():
    for mod in (0, -3):
        with pytest.raises(ValueError, match=f"got {mod}"):
            ModSolver([[1]], mod)
        with pytest.raises(ValueError, match=f"got {mod}"):
            solve_mod([[1]], [1], mod)


def _reachable(a, mod: int) -> set[tuple]:
    """Every value of A x (mod `mod`) over all x: the column span, closed
    under addition of columns until nothing new appears."""
    n = len(a)
    cols = [tuple(row[j] % mod for row in a) for j in range(len(a[0]) if n else 0)]
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for col in cols:
                w = tuple((x + y) % mod for x, y in zip(v, col))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _coboundary(cover) -> list[list[int]]:
    """The triples -> quads matrix the lift obstruction is solved against."""
    return LiftPlan(cover, xmod_mod(4, 2)).mat


@pytest.mark.parametrize("a", [
    pytest.param(_coboundary(sphere_cover(5)), id="sphere5"),
    pytest.param(_coboundary(ball_cover(3)), id="ball3"),    # no quads, no rows
    pytest.param(_coboundary(ball_cover(4)), id="ball4"),    # one quad
    pytest.param([], id="empty"),
    pytest.param([[], []], id="no-columns"),
    pytest.param([[2]], id="2"),
    pytest.param([[0]], id="0"),
    pytest.param([[1, 2], [0, 2]], id="upper"),
    pytest.param([[2, 4], [3, 6]], id="rank1"),
    pytest.param([[3], [2]], id="column"),
    pytest.param([[1, -1, 0], [0, 2, -2]], id="wide"),
])
@pytest.mark.parametrize("mod", [2, 3, 4, 6])
def test_mod_solver_matches_exhaustive_search(a, mod):
    solver = ModSolver(a, mod)
    reach = _reachable(a, mod)
    width = len(a[0]) if a else 0
    for b in itertools.product(range(mod), repeat=len(a)):
        x = solver.solve(list(b))
        assert (x is not None) == (b in reach), (a, mod, b)
        if x is not None:
            assert len(x) == width and all(0 <= v < mod for v in x)
            got = tuple(sum(r * v for r, v in zip(row, x)) % mod for row in a)
            assert got == b


def test_mod_solver_factors_once(monkeypatch):
    calls = []
    real = intlinalg.smith_normal_form

    def counting(a):
        calls.append(a)
        return real(a)

    a = _coboundary(sphere_cover(5))
    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    solver = ModSolver(a, 4)
    for b in itertools.product(range(4), repeat=3):
        solver.solve(list(b) + [0, 0])
    assert len(calls) == 1


def test_homology_hand_cases():
    # incoming multiplication by 2 into one Z: H = Z/2
    betti, torsion = homology(None, [[2]], 1)
    assert (betti, torsion) == (0, [2])
    # zero maps on both sides of one Z: H = Z
    betti, torsion = homology(None, None, 1)
    assert (betti, torsion) == (1, [])


def test_homology_circle_complex():
    # triangle as a simplicial circle: 3 vertices, 3 edges
    d1 = [[-1, 0, 1],
          [1, -1, 0],
          [0, 1, -1]]
    betti1, torsion1 = homology(d1, None, 3)   # edges: ker d1 / 0
    assert (betti1, torsion1) == (1, [])
    betti0, torsion0 = homology(None, d1, 3)   # vertices: Z^3 / im d1
    assert (betti0, torsion0) == (1, [])
