"""Integer matrix normal forms and solvers over Z and Z/m.

Pure-Python (arbitrary precision) Smith normal form with transformation
matrices, which the stock libraries don't expose; sizes here are tiny
(boundary matrices of small complexes), so clarity beats speed.

`ModSolver(a, mod)` factors one system A x = b (mod m) once, so a caller
with many right-hand sides against the same A (the lift obstruction: one
per cocycle) pays for one Smith form per modulus; `solve_mod` is the
one-shot form of it.  `homology` and `rank_z` read invariant factors.
"""
from __future__ import annotations

__all__ = ["smith_normal_form", "ModSolver", "solve_mod", "homology",
           "rank_z"]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, S, V) with U*A*V = S, U and V unimodular, S in Smith form.

    S is diagonal with s_i | s_{i+1} (nonnegative diagonal).
    """
    S = [[int(x) for x in row] for row in a]
    n = len(S)
    m = len(S[0]) if n else 0
    U = _identity(n)
    V = _identity(m)

    def row_op(i, j, c):  # row_i += c * row_j
        for k in range(m):
            S[i][k] += c * S[j][k]
        for k in range(n):
            U[i][k] += c * U[j][k]

    def col_op(i, j, c):  # col_i += c * col_j
        for k in range(n):
            S[k][i] += c * S[k][j]
        for k in range(m):
            V[k][i] += c * V[k][j]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for k in range(n):
            S[k][i], S[k][j] = S[k][j], S[k][i]
        for k in range(m):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    def row_negate(i):
        for k in range(m):
            S[i][k] = -S[i][k]
        for k in range(n):
            U[i][k] = -U[i][k]

    t = 0
    while t < min(n, m):
        # find pivot: smallest nonzero |entry| in the remaining block
        piv = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < best):
                    best = abs(S[i][j])
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        row_swap(t, i)
        col_swap(t, j)
        if S[t][t] < 0:
            row_negate(t)
        # clear row and column t
        dirty = False
        for i in range(t + 1, n):
            if S[i][t] != 0:
                q = S[i][t] // S[t][t]
                row_op(i, t, -q)
                if S[i][t] != 0:
                    dirty = True
        for j in range(t + 1, m):
            if S[t][j] != 0:
                q = S[t][j] // S[t][t]
                col_op(j, t, -q)
                if S[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainder left behind; redo with a smaller pivot
        # enforce divisibility: S[t][t] must divide the rest of the block
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if S[i][j] % S[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, 1)
            continue
        t += 1
    return U, S, V


def rank_z(a) -> int:
    _, S, _ = smith_normal_form(a)
    return sum(1 for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i] != 0)


class ModSolver:
    """Solver for A x = b (mod `mod`) with A factored once.

    The augmented system [A | mod*I] (A x + mod*t = b over Z) is brought to
    Smith form U*[A | mod*I]*V = S when the solver is built; each `solve`
    then costs a U*b product, a divisibility test per row and a V*y
    back-substitution.  The mod*I block gives [A | mod*I] full row rank, so
    every diagonal entry of S is nonzero.
    """

    def __init__(self, a, mod: int):
        if mod < 1:
            raise ValueError(f"modulus must be >= 1, got {mod}")
        self.mod = mod
        self.a = [[int(v) for v in row] for row in a]
        n = len(self.a)
        m = len(self.a[0]) if n else 0
        aug = [row + [mod if k == i else 0 for k in range(n)]
               for i, row in enumerate(self.a)]
        u, s, v = smith_normal_form(aug)
        self.u = u
        self.diag = [s[i][i] for i in range(n)]
        # y vanishes past column n, so only V's first n columns are read
        self.v = [row[:n] for row in v[:m]]

    def solve(self, b):
        """One solution x of A x = b (mod `mod`) with entries in
        0..mod-1, or None when there is none."""
        mod = self.mod
        b = [int(v) for v in b]
        if len(b) != len(self.a):
            raise ValueError(f"right-hand side has {len(b)} entries, "
                             f"the system {len(self.a)} rows")
        y = []
        for urow, d in zip(self.u, self.diag):
            r = sum(uk * bk for uk, bk in zip(urow, b))
            if r % d:
                return None
            y.append(r // d)
        x = [sum(vj * yj for vj, yj in zip(vrow, y)) % mod for vrow in self.v]
        # paranoid check
        for row, bi in zip(self.a, b):
            if sum(aj * xj for aj, xj in zip(row, x)) % mod != bi % mod:
                raise ArithmeticError("Smith-form solve returned a non-solution")
        return x


def solve_mod(a, b, mod: int):
    """One solution x of A x = b (mod `mod`), or None.

    A is n x m (list of lists), b length n, result length m with entries in
    0..mod-1.  Factors A on every call; build a `ModSolver` to solve many
    right-hand sides against one A.
    """
    return ModSolver(a, mod).solve(b)


def homology(d_out, d_in, n_here: int) -> tuple[int, list[int]]:
    """(betti, torsion factors) of ker(d_out)/im(d_in) in an integer complex.

    `d_out` maps this degree down (matrix with n_here columns, or None),
    `d_in` maps into this degree (matrix with n_here rows, or None).
    Torsion factors are the invariant factors > 1 of d_in, sorted.
    """
    r_out = rank_z(d_out) if d_out is not None and len(d_out) and len(d_out[0]) else 0
    tors: list[int] = []
    r_in = 0
    if d_in is not None and len(d_in) and len(d_in[0]):
        _, S, _ = smith_normal_form(d_in)
        for i in range(min(len(S), len(S[0]))):
            v = S[i][i]
            if v != 0:
                r_in += 1
                if v > 1:
                    tors.append(v)
    betti = n_here - r_out - r_in
    if betti < 0:
        raise ValueError("not a chain complex (rank bookkeeping failed)")
    return betti, sorted(tors)
