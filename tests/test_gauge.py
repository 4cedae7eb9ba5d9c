"""Numerical gauge-law checks on sampled matrix-group chart data."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from xmodgerbe import gauge
from xmodgerbe.gauge import (_RELEASED, DEFAULT_TOLS, MatrixCrossedModule,
                             Residual, _central_diff, _is_identity,
                             _pair_fetch, _pair_maps, _run, _stack_inv,
                             _take, builtin_cases,
                             case_u1_circle_three, case_u1_sphere_monopole,
                             case_u1_torus_three,
                             check_bfield, check_connection,
                             check_gerbe_cocycle_smooth, compute_T,
                             conjugation_T_samples, curvature_and_nu,
                             matrix_exp, run_case, so3_conjugation_xmod,
                             so3_group, u1_id_xmod, u1_null_xmod,
                             validate_chart_data, validate_matrix_xmod)
from xmodgerbe.util import StructureError


def _shared(gcd):
    """The setup run_case hands the checks: each overlap's inv(d), each
    triple's inv(h) and the pair table."""
    return ([np.linalg.inv(o.d) for o in gcd.overlaps],
            [np.linalg.inv(t.h) for t in gcd.triples], _pair_maps(gcd))


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and x.dtype == y.dtype
            and x.tobytes() == y.tobytes())


# ---------------------------------------------------------------------------
# matrix building blocks


def test_matrix_exp_basics():
    z = np.zeros((3, 3), dtype=np.complex128)
    assert np.allclose(matrix_exp(z), np.eye(3))
    rng = np.random.default_rng(0)
    a = so3_group().algebra(rng.normal(size=3))
    e = matrix_exp(a)
    assert np.allclose(e @ matrix_exp(-a), np.eye(3), atol=1e-12)
    # against a plain truncated series on a small-norm argument
    small = 0.05 * a
    series = np.eye(3, dtype=np.complex128)
    term = np.eye(3, dtype=np.complex128)
    for k in range(1, 25):
        term = term @ small / k
        series = series + term
    assert np.allclose(matrix_exp(small), series, atol=1e-14)
    # broadcasting over a stack
    stack = np.stack([a, -a, 0.5 * a])
    es = matrix_exp(stack)
    assert es.shape == (3, 3, 3)
    assert np.allclose(es[1], matrix_exp(-a))


def test_builtin_matrix_xmods_validate():
    for xm in (u1_id_xmod(), u1_null_xmod(), so3_conjugation_xmod()):
        rep = validate_matrix_xmod(xm)
        assert rep.ok, (xm.name, rep.summary())


def test_broken_matrix_xmod_fails_peiffer():
    so3 = so3_group()
    bad = MatrixCrossedModule("so3-broken", so3, so3,
                              alpha=lambda h: h,
                              action=lambda d, h: h,
                              dalpha=lambda x: x,
                              daction=lambda d, y: y)
    rep = validate_matrix_xmod(bad)
    assert not rep.ok
    assert any("peiffer" in name for name, ok in rep.checks if not ok)


def test_compute_T_closed_form():
    xm = so3_conjugation_xmod()
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = so3_group().algebra(rng.normal(size=3))
        h = so3_group().random(rng)
        t = compute_T(x, h, xm)
        closed = h @ x @ np.linalg.inv(h) - x
        assert np.max(np.abs(t - closed)) < 1e-6
    # at the identity the curve is constant
    t0 = compute_T(x, np.eye(3, dtype=np.complex128), xm)
    assert np.max(np.abs(t0)) < 1e-9


def test_compute_T_trivial_action_vanishes():
    xm = u1_id_xmod()
    x = np.array([[0.7j]])
    h = np.array([[np.exp(0.3j)]])
    assert np.max(np.abs(compute_T(x, h, xm))) < 1e-12


def test_conjugation_T_sample_run():
    res = conjugation_T_samples(samples=100, seed=11)
    assert res.max() < 1e-6


# ---------------------------------------------------------------------------
# derivative helper and residual container


def test_central_diff_periodic_and_interior():
    m = 64
    theta = np.arange(m) * (2 * np.pi / m)
    vals = np.exp(2j * theta).reshape(m, 1, 1)
    der, valid = _central_diff(vals, (m,), 0, 2 * np.pi / m, periodic=True)
    assert valid.all()
    want = 2j * np.exp(2j * theta).reshape(m, 1, 1)
    assert np.max(np.abs(der - want)) < 2e-2
    der2, valid2 = _central_diff(vals, (m,), 0, 2 * np.pi / m, periodic=False)
    assert not valid2[0] and not valid2[-1] and valid2[1:-1].all()
    assert np.max(np.abs((der2 - want)[1:-1])) < 2e-2


def test_residual_summaries():
    r = Residual("empty")
    r.add("eq", np.zeros(0))
    assert r.max() == 0.0 and r.rms() == 0.0
    r2 = Residual("two")
    r2.add("eq", np.array([[3.0 + 4.0j]]))
    r2.add("eq", np.array([[0.0]]))
    assert r2.max() == 5.0
    d = r2.dictionary()
    assert d["equations"]["eq"]["samples"] == 2


class _ConcatResidual:
    """The summaries of a Residual that concatenates an equation's
    magnitudes on every add."""

    def __init__(self, name):
        self.name, self.equations, self.absent = name, {}, set()

    def add(self, equation, values):
        mags = np.abs(np.asarray(values)).ravel()
        if equation in self.equations:
            mags = np.concatenate([self.equations[equation], mags])
        self.equations[equation] = mags

    def add_absent(self, equation):
        self.add(equation, np.zeros(0))
        self.absent.add(equation)

    def max(self):
        tops = [float(v.max()) for v in self.equations.values() if v.size]
        return max(tops) if tops else 0.0

    def rms(self):
        flat = [v for v in self.equations.values() if v.size]
        if not flat:
            return 0.0
        return float(np.sqrt(np.mean(np.concatenate(flat) ** 2)))

    def per_equation(self):
        return {k: ((float(v.max()), float(np.sqrt(np.mean(v ** 2))))
                    if v.size else (0.0, 0.0))
                for k, v in sorted(self.equations.items())}

    def dictionary(self):
        return {"name": self.name, "max": self.max(), "rms": self.rms(),
                "equations": {k: {"max": mx, "rms": rm,
                                  "samples": int(self.equations[k].size)}
                              for k, (mx, rm) in self.per_equation().items()}}


def test_residual_parts_give_the_concatenated_summaries():
    # add keeps each equation's parts and concatenates them once, when read;
    # every summary must be the one of concatenating on every add
    rng = np.random.default_rng(3)
    got, want = Residual("r"), _ConcatResidual("r")
    for chunk in range(40):
        eq = f"eq[{chunk % 3}]"
        size = int(rng.integers(0, 3)) * int(rng.integers(0, 50))
        values = (rng.normal(size=(size, 1, 1))
                  + 1j * rng.normal(size=(size, 1, 1)))
        for r in (got, want):
            r.add(eq, values)
        if chunk == 17:
            # a read between adds must not change what later reads give
            assert got.dictionary() == want.dictionary()
    for r in (got, want):
        r.add("empty", np.zeros(0))
        r.add("empty", np.zeros((0, 3, 3), dtype=np.complex128))
        r.add_absent("absent[0]")
        r.add_absent("eq[1]")
    assert got.dictionary() == want.dictionary()
    assert got.absent == want.absent == {"absent[0]", "eq[1]"}
    assert got.equations.keys() == want.equations.keys()
    for eq, v in want.equations.items():
        assert _same_bits(got.equations[eq], v)
    assert got.per_equation() == want.per_equation()
    assert (got.max(), got.rms()) == (want.max(), want.rms())


# ---------------------------------------------------------------------------
# bit guards of the shared inverses and the periodic differences


def _stacks():
    rng = np.random.default_rng(17)
    u = np.exp(0.3j) * np.ones((6, 1, 1))
    so3 = so3_group().random(rng)
    varying = np.exp(1j * rng.normal(size=(6, 1, 1)))
    # each differs from its first matrix only in the sign of a zero, and its
    # inverse in more than that: a test that merges -0.0 with +0.0 misses it
    signed = np.array([[[complex(-0.0, -1.0)]], [[complex(0.0, -1.0)]]])
    signed3 = np.array([np.eye(3, dtype=np.complex128)] * 3)
    signed3[2, 0, 0] = complex(1.0, -0.0)
    # the flag: a zero-stride stack, which _stack_inv inverts once
    return {
        "constant": (u, False),
        "constant-3x3": (np.array([so3] * 5), False),
        "broadcast-3x3": (np.broadcast_to(so3, (5, 3, 3)), True),
        "varying": (varying, False),
        "varying-3x3": (np.stack([so3_group().random(rng) for _ in range(4)]),
                        False),
        "empty": (np.zeros((0, 1, 1), dtype=np.complex128), False),
        "one": (varying[:1], False),
        "signed-zero": (signed, False),
        "signed-zero-3x3": (signed3, False),
    }


@pytest.mark.parametrize("name", sorted(_stacks()))
def test_stack_inverse_has_the_bits_of_inv(name):
    x, zero_stride = _stacks()[name]
    got = _stack_inv(x)
    assert _same_bits(got, np.linalg.inv(x))
    # a zero-stride stack is one inverse broadcast, read-only; any other
    # stack, a materialised constant one too, is inverted in full
    assert (got.strides[0] == 0 and not got.flags.writeable) == zero_stride
    if name.startswith("signed-zero"):
        assert not _same_bits(np.linalg.inv(x)[-1], np.linalg.inv(x)[0])
    # the laws multiply by the inverses: a broadcast operand changes no bit
    y = np.random.default_rng(5).normal(size=x.shape) + 0j
    assert _same_bits(y @ got, y @ np.linalg.inv(x))
    assert _same_bits(got @ y, np.linalg.inv(x) @ y)


@pytest.mark.parametrize("build", [case_u1_circle_three, case_u1_torus_three,
                                   case_u1_sphere_monopole])
def test_stack_inverses_give_the_full_inverse_residuals(build):
    # run_case hands the checks _stack_inv's inverses: broadcast views where
    # a stack is constant (every stack of the torus case); every residual
    # keeps its bits
    gcd = build()
    dinvs, hinvs, table = _shared(gcd)
    sdinvs = [_stack_inv(o.d) for o in gcd.overlaps]
    shinvs = [_stack_inv(t.h) for t in gcd.triples]
    if build is case_u1_torus_three:
        assert all(v.strides[0] == 0 for v in sdinvs + shinvs)
    full = [check_connection(gcd, dinvs, hinvs, table),
            curvature_and_nu(gcd, dinvs).gluing]
    fast = [check_connection(gcd, sdinvs, shinvs, table),
            curvature_and_nu(gcd, sdinvs).gluing]
    if gcd.dim == 2:
        full.append(check_bfield(gcd, hinvs, table))
        fast.append(check_bfield(gcd, shinvs, table))
    for want, got in zip(full, fast):
        assert want.equations.keys() == got.equations.keys()
        for eq, v in want.equations.items():
            assert _same_bits(got.equations[eq], v), (gcd.name, eq)


@pytest.mark.parametrize("m", [1, 2, 3, 64])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", [1, 3])
def test_periodic_central_diff_has_the_bits_of_rolled_copies(m, axis, n):
    # both branches: a periodic axis against the np.roll formula, an open
    # one against (grid[2:] - grid[:-2]) / (2 step) in a zeroed grid whose
    # two boundary layers are invalid
    rng = np.random.default_rng(100 * m + 10 * axis + n)
    shape = (m, 5) if axis == 0 else (5, m)
    k = m * 5
    values = (rng.normal(size=(k, n, n))
              + 1j * rng.normal(size=(k, n, n)))
    values[::7] = -0.0
    step = 0.0137

    def rows(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)

    for periodic in (True, False):
        for vals in (values, np.broadcast_to(values[:1], values.shape)):
            grid = vals.reshape(shape + (n, n))
            if periodic:
                want = ((np.roll(grid, -1, axis=axis)
                         - np.roll(grid, 1, axis=axis)) / (2.0 * step))
                inside = np.ones(shape, dtype=bool)
            else:
                want = np.zeros(grid.shape, dtype=grid.dtype)
                want[rows(1, -1)] = ((grid[rows(2, None)]
                                      - grid[rows(None, -2)]) / (2.0 * step))
                inside = np.zeros(shape, dtype=bool)
                inside[rows(1, -1)] = True
            der, valid = _central_diff(vals, shape, axis, step, periodic)
            assert _same_bits(der, want.reshape(k, n, n))
            assert _same_bits(valid, inside.reshape(k))


# ---------------------------------------------------------------------------
# bundled analytic cases


def test_all_builtin_cases_pass():
    for name in sorted(builtin_cases()) + ["so3-conjugation-T"]:
        out = run_case(name)
        assert out["passed"], (name, out["residuals"])


def test_absent_laws_keep_their_empty_entries():
    # a law a case does not set up is reported with no samples, not refused
    pair = run_case("u1-circle-pair")
    eqs = pair["residuals"]["cocycle"]["equations"]
    assert eqs["cocycle-triangle"]["samples"] == 0
    glue = pair["residuals"]["nu-gluing"]["equations"]
    assert glue["nu-gluing[0]"]["samples"] == 0
    assert pair["passed"]


def test_trivial_case_is_exact():
    out = run_case("trivial")
    assert out["residuals"]["cocycle"]["max"] == 0.0
    assert out["residuals"]["connection"]["max"] == 0.0


def test_torus_case_exact_except_curvature():
    out = run_case("u1-torus-three")
    assert out["residuals"]["connection"]["max"] < 1e-12
    assert out["residuals"]["bfield"]["max"] < 1e-12
    assert out["nu_gluing_asserted"]
    assert 0 < out["residuals"]["nu-gluing"]["max"] <= DEFAULT_TOLS[2]


def test_shared_inverses_give_the_standalone_residuals():
    # check_connection hands compute_T the inverse of its argument, computed
    # once per triple rather than once per axis; called without it, compute_T
    # inverts the argument itself, with the same result
    for build in (case_u1_circle_three, case_u1_torus_three):
        gcd = build()
        _, hinvs, _ = _shared(gcd)
        assert hinvs
        for t, hinv in zip(gcd.triples, hinvs):
            aa = gcd.charts[t.a].A[t.ia]
            for mu in range(gcd.dim):
                assert np.array_equal(
                    compute_T(aa[:, mu], hinv, gcd.xm, gcd.t_step,
                              np.linalg.inv(hinv)),
                    compute_T(aa[:, mu], hinv, gcd.xm, gcd.t_step))


def test_closed_form_tangent_gives_the_finite_difference_residuals():
    # the U(1) modules give T = 0 in closed form; compute_T gives +-0 under
    # their trivial action, so every residual is the same to the bit
    for build in (case_u1_circle_three, case_u1_torus_three):
        gcd = build()
        assert gcd.xm.tangent is not None
        fd = dataclasses.replace(gcd, xm=dataclasses.replace(gcd.xm,
                                                             tangent=None))
        shared = _shared(gcd)
        assert (check_connection(gcd, *shared).dictionary()
                == check_connection(fd, *shared).dictionary())


@pytest.mark.parametrize("step", [None, 0.02])
def test_torus_builder_matches_per_point_formulas(step):
    # the builder takes sines and cosines once per grid axis; every sample
    # has the bits of the field formulas evaluated at each gathered point
    gcd = case_u1_torus_three(step=step)
    m = round(2 * np.pi / (step or 1e-2))
    xs = np.arange(m) * (2 * np.pi / m)
    ms = {0: 2.0, 1: 1.0, 2: 0.0}
    starts = [0, m // 3, (2 * m) // 3]
    for a, ch in enumerate(gcd.charts):
        band = (starts[a] + np.arange(int(m * 0.8))) % m
        gx, gy = np.meshgrid(xs[band], xs, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        x, y = pts[:, 0], pts[:, 1]
        ax = 1j * (np.sin(y) + 0.2 * np.cos(x) - ms[a] * np.cos(y))
        ay = 1j * (0.5 * np.cos(x)) + 0.0 * y
        b = 1j * (np.sin(x) + 0.3 * np.cos(y) + ms[a] * np.sin(y))
        assert _same_bits(ch.grid, pts)
        assert _same_bits(ch.A, np.stack([ax, ay], axis=1).reshape(-1, 2, 1, 1))
        assert _same_bits(ch.B, b.reshape(-1, 1, 1, 1))
    assert len(gcd.overlaps) == 6
    for o in gcd.overlaps:
        y = gcd.charts[o.a].grid[o.ia][:, 1]
        k = len(o.ia)
        af = np.zeros((k, 2, 1, 1), dtype=np.complex128)
        af[:, 0, 0, 0] = 1j * (ms[o.b] - ms[o.a]) * np.cos(y)
        delta = (1j * (ms[o.a] - ms[o.b]) * np.sin(y)).reshape(-1, 1, 1, 1)
        assert _same_bits(o.d, np.ones((k, 1, 1), dtype=np.complex128))
        assert _same_bits(o.a_form, af)
        assert _same_bits(o.delta, delta)
    # the constant transitions are read-only broadcast views of one matrix
    for stack in [o.d for o in gcd.overlaps] + [t.h for t in gcd.triples]:
        assert stack.strides[0] == 0 and not stack.flags.writeable
        assert _same_bits(stack, np.ones(stack.shape, dtype=np.complex128))


@pytest.mark.parametrize("build", [case_u1_circle_three, case_u1_torus_three])
def test_pair_fetch_matches_a_concatenated_gather(build):
    # the pair table gathers from each overlap component in place; a triple
    # law must read what concatenating the components and gathering gives
    gcd = build()
    table = _pair_maps(gcd)
    assert any(len(entry["comps"]) > 1 for entry in table.values())

    def oracle(a, b, idx, field_name):
        comps = [o for o in gcd.overlaps if (o.a, o.b) == (a, b)]
        ia = np.concatenate([o.ia for o in comps])
        rows = np.full(len(gcd.charts[a].grid), -1)
        rows[ia] = np.arange(len(ia))
        return np.concatenate([getattr(o, field_name) for o in comps])[rows[idx]]

    fetched = 0
    for t in gcd.triples:
        for (a, b), idx in (((t.a, t.b), t.ia), ((t.b, t.c), t.ib),
                            ((t.a, t.c), t.ia)):
            for field_name in ("d", "a_form", "delta"):
                if any(getattr(o, field_name) is None for o in gcd.overlaps):
                    continue
                got = _pair_fetch(table, a, b, idx, field_name, "test")
                assert _same_bits(got, oracle(a, b, idx, field_name))
                fetched += 1
    assert fetched == len(gcd.triples) * 3 * (3 if build is
                                              case_u1_torus_three else 2)
    # a triple lies in one component of each pair; every point of a pair,
    # in reverse order, spans them all
    for (a, b), entry in table.items():
        idx = np.concatenate([o.ia for o in entry["comps"]])[::-1]
        assert _same_bits(_pair_fetch(table, a, b, idx, "a_form", "test"),
                          oracle(a, b, idx, "a_form"))


def _bits(x):
    """x with each float as its hex form: -0.0, NaN and every last bit
    compare as themselves."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    return x.hex() if isinstance(x, float) else x


@pytest.mark.parametrize("name", sorted(builtin_cases()))
def test_law_order_and_releases_change_no_bit(name):
    # run_case runs the laws in the order their data is used up and drops
    # each field after its last law; the report must be the one the laws
    # give in the order cocycle, connection, B-field, curvature, with full
    # inverses, on a case that keeps all its data (constant stacks as full
    # arrays)
    gcd = builtin_cases()[name]()
    for o in gcd.overlaps:
        o.d = np.array(o.d)
    for t in gcd.triples:
        t.h = np.array(t.h)
    dinvs, hinvs, table = _shared(gcd)
    tol = DEFAULT_TOLS[gcd.dim]
    laws = [check_gerbe_cocycle_smooth(gcd, table),
            check_connection(gcd, dinvs, hinvs, table)]
    if gcd.dim >= 2 and all(c.B is not None for c in gcd.charts):
        laws.append(check_bfield(gcd, hinvs, table))
    curv = curvature_and_nu(gcd, dinvs)
    residuals = {res.name.split(" ")[0]: res.dictionary() for res in laws}
    residuals["nu-gluing"] = curv.gluing.dictionary()
    passed = (all(res.max() <= tol for res in laws)
              and (not curv.gluing_asserted or curv.gluing.max() <= tol))
    want = {"case": name, "tolerance": tol, "residuals": residuals,
            "nu_gluing_asserted": curv.gluing_asserted, "passed": passed}
    assert _bits(run_case(name)) == _bits(want)


@pytest.mark.parametrize("idx, view", [
    (np.arange(3, 9), True),
    (np.arange(3, 9)[::-1], False),
    (np.array([3, 4, 5, 7, 8]), False),
    (np.array([3, 5, 4, 6]), False),
    (np.zeros(0, dtype=np.int64), False),
    (np.arange(-2, 4), False),
], ids=["run", "reversed-run", "gap", "shuffled-run", "empty",
        "negative-start"])
def test_take_reads_a_run_in_place_and_gathers_the_rest(idx, view):
    # a run starting at a negative point must gather, wrapping as indexing
    # does, not become a slice: slice(-2, 4) would read nothing
    x = np.arange(40.0).reshape(10, 2, 2)
    got = _take(x, idx)
    assert _same_bits(got, x[idx])
    assert np.shares_memory(got, x) == view
    assert (_run(idx, len(x)) is not None) == view
    if view:
        # the run moved past the end is refused as indexing refuses it,
        # not truncated to the points a slice would find
        with pytest.raises(IndexError):
            _take(x, idx + 5)


@pytest.mark.parametrize("step", [None, 0.02, 0.05])
@pytest.mark.parametrize("name", sorted(builtin_cases()))
def test_views_give_the_bits_of_gathers(monkeypatch, name, step):
    # every overlap, triple and pair-table read of the built-in cases is a
    # run, read in place; gathering all of them changes no bit
    viewed = _bits(run_case(name, step=step))
    monkeypatch.setattr(gauge, "_run", lambda idx, n: None)
    assert _bits(run_case(name, step=step)) == viewed


def test_a_constant_stack_that_is_not_the_identity_is_multiplied():
    # only an identity constant skips its products and its central
    # difference: a broadcast exp(0.3i) transition goes through the full
    # path and gives the bits of the same stack materialised
    u = np.full((1, 1, 1), np.exp(0.3j))
    copies = []
    for materialise in (False, True):
        gcd = case_u1_torus_three()
        for o in gcd.overlaps:
            o.d = np.broadcast_to(u, o.d.shape)
            if materialise:
                o.d = np.array(o.d)
        dinvs = [_stack_inv(o.d) for o in gcd.overlaps]
        hinvs = [_stack_inv(t.h) for t in gcd.triples]
        table = _pair_maps(gcd)
        copies.append([check_gerbe_cocycle_smooth(gcd, table),
                       check_connection(gcd, dinvs, hinvs, table),
                       check_bfield(gcd, hinvs, table),
                       curvature_and_nu(gcd, dinvs).gluing])
        if not materialise:
            assert all(o.d.strides[0] == 0 and not _is_identity(o.d)
                       and not _is_identity(v)
                       for o, v in zip(gcd.overlaps, dinvs))
    # the triangle law fails by |exp(0.6i) - exp(0.3i)|: a skipped product
    # would show
    assert copies[0][0].max() > 0.25
    for got, want in zip(*copies):
        assert got.equations.keys() == want.equations.keys()
        for eq, v in want.equations.items():
            assert _same_bits(got.equations[eq], v), (got.name, eq)


def test_a_law_run_after_a_release_fails():
    # a released a_form is not taken for an absent one (no dalpha
    # correction), and released triples are not taken for none
    gcd = case_u1_circle_three()
    dinvs, hinvs, table = _shared(gcd)
    gcd.overlaps[0].a_form = _RELEASED
    with pytest.raises(StructureError, match="a_form was released"):
        check_connection(gcd, dinvs, hinvs, table)
    gcd.triples = _RELEASED
    with pytest.raises(TypeError):
        check_gerbe_cocycle_smooth(gcd, table)


def test_torus_case_traced_peak_is_bounded():
    # the torus case builds about 118 MB of samples; with each field
    # released after its last law and runs read in place the traced peak
    # is about 125 MB, and about 195 MB with the whole case alive to the end
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run_case("u1-torus-three")["passed"]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 135e6, peak


def test_circle_cases_meet_tight_tolerance():
    for name in ("u1-circle-pair", "u1-circle-three"):
        out = run_case(name)
        for res in out["residuals"].values():
            assert res["max"] < 1e-6, (name, out["residuals"])


def test_step_halving_quadratic_convergence():
    coarse = run_case("u1-circle-pair", step=1e-3)
    fine = run_case("u1-circle-pair", step=5e-4)
    c = coarse["residuals"]["connection"]["max"]
    f = fine["residuals"]["connection"]["max"]
    assert f > 0
    assert c / f >= 3.5


def test_unknown_case_rejected():
    with pytest.raises(StructureError):
        run_case("no-such-case")


# ---------------------------------------------------------------------------
# negative controls: perturbed fields must surface in the right residual


def _perturbed(case_builder, mutate):
    gcd = case_builder()
    mutate(gcd)
    return gcd


def test_position_dependent_h_perturbation_caught():
    def mutate(gcd):
        t = gcd.triples[0]
        theta = gcd.charts[t.a].grid[t.ia][:, 0]
        t.h = t.h * np.exp(1j * 1e-3 * np.sin(theta))[:, None, None]

    gcd = _perturbed(case_u1_circle_three, mutate)
    res = check_connection(gcd, *_shared(gcd))
    assert res.max() > 2e-4


def test_position_dependent_d_perturbation_caught():
    def mutate(gcd):
        o = gcd.overlaps[0]
        theta = gcd.charts[o.a].grid[o.ia][:, 0]
        o.d = o.d * np.exp(1j * 2e-3 * np.sin(theta))[:, None, None]

    gcd = _perturbed(case_u1_circle_three, mutate)
    res = check_connection(gcd, *_shared(gcd))
    assert res.max() > 5e-4


def test_constant_d_perturbation_caught_by_triangle():
    def mutate(gcd):
        o = gcd.overlaps[0]
        o.d = o.d * np.exp(1e-3j)

    gcd = _perturbed(case_u1_circle_three, mutate)
    res = check_gerbe_cocycle_smooth(gcd, _shared(gcd)[2])
    assert res.max() > 5e-4


def test_connection_perturbation_caught():
    def mutate(gcd):
        ch = gcd.charts[0]
        theta = ch.grid[:, 0]
        ch.A = ch.A + 5e-4j * np.cos(theta)[:, None, None, None]

    gcd = _perturbed(case_u1_circle_three, mutate)
    res = check_connection(gcd, *_shared(gcd))
    assert res.max() > 2e-4


def test_bfield_perturbation_caught():
    def mutate(gcd):
        ch = gcd.charts[0]
        x = ch.grid[:, 0]
        ch.B = ch.B + 5e-4j * np.cos(x)[:, None, None, None]

    gcd = _perturbed(case_u1_torus_three, mutate)
    _, hinvs, table = _shared(gcd)
    res = check_bfield(gcd, hinvs, table)
    assert res.max() > 2e-4


def test_chart_data_validation_catches_mismatched_points():
    gcd = case_u1_circle_three()
    o = gcd.overlaps[0]
    o.ib = o.ib.copy()
    o.ib[0] = (o.ib[0] + 1) % len(gcd.charts[o.b].grid)
    rep = validate_chart_data(gcd)
    assert not rep.ok


@pytest.mark.parametrize("build, axis", [(case_u1_circle_three, 0),
                                         (case_u1_torus_three, 1),
                                         (case_u1_sphere_monopole, 1)])
def test_chart_data_validation_matches_points_a_period_apart(build, axis):
    # the built-in charts share exact coordinates; a chart moved by a whole
    # period on a periodic axis only matches after reducing by the period
    gcd = build()
    period = gcd.periods[axis]
    assert period > 0
    moved = gcd.charts[1]
    moved.grid = moved.grid.copy()
    moved.grid[:, axis] += period
    assert validate_chart_data(gcd).ok
    moved.grid[:, axis] += 0.5 * period
    assert not validate_chart_data(gcd).ok


def test_chart_data_validation_does_not_wrap_an_open_axis():
    gcd = case_u1_sphere_monopole()
    assert gcd.periods[0] == 0.0
    moved = gcd.charts[1]
    moved.grid = moved.grid.copy()
    moved.grid[:, 0] += 2 * np.pi
    rep = validate_chart_data(gcd)
    assert not rep.ok
    assert "u1-sphere-monopole:overlap(0,1)-points" in rep.violations


# ---------------------------------------------------------------------------
# triple laws: pair lookups that cannot be served must raise


def test_triple_without_pair_overlap_rejected():
    gcd = case_u1_circle_three()
    gcd.overlaps = [o for o in gcd.overlaps if (o.a, o.b) != (1, 2)]
    with pytest.raises(StructureError,
                       match=r"missing overlap data for charts \(1,2\)"):
        check_gerbe_cocycle_smooth(gcd, _shared(gcd)[2])


def test_triple_needs_a_form_of_its_pairs():
    gcd = case_u1_circle_three()
    for o in gcd.overlaps:
        if (o.a, o.b) == (0, 1):
            o.a_form = None
    with pytest.raises(StructureError,
                       match=r"overlap \(0,1\) has no 'a_form' samples"):
        check_connection(gcd, *_shared(gcd))


def _moved_triple_point(gcd, point):
    t = gcd.triples[0]
    t.ia = t.ia.copy()
    t.ia[0] = point
    return gcd


def test_triple_point_outside_pair_overlap_rejected():
    gcd = case_u1_circle_three()
    inside = set()
    for o in gcd.overlaps:
        if (o.a, o.b) == (0, 1):
            inside.update(int(i) for i in o.ia)
    outside = min(set(range(len(gcd.charts[0].grid))) - inside)
    _moved_triple_point(gcd, outside)
    with pytest.raises(StructureError,
                       match=rf"overlap \(0,1\) lacks point {outside} "):
        check_gerbe_cocycle_smooth(gcd, _shared(gcd)[2])


@pytest.mark.parametrize("where", ["negative", "past-the-end"])
def test_triple_point_outside_chart_rejected(where):
    # a negative index must not wrap around to the end of the chart
    gcd = case_u1_circle_three()
    n = len(gcd.charts[0].grid)
    point = -1 if where == "negative" else n
    _moved_triple_point(gcd, point)
    dinvs, hinvs, table = _shared(gcd)
    with pytest.raises(StructureError, match=rf"lacks point {point} "):
        check_gerbe_cocycle_smooth(gcd, table)
    with pytest.raises(StructureError, match=rf"lacks point {point} "):
        check_connection(gcd, dinvs, hinvs, table)


def test_overlap_point_outside_chart_rejected():
    gcd = case_u1_circle_three()
    o = gcd.overlaps[0]
    o.ia = o.ia.copy()
    o.ia[0] = -1
    with pytest.raises(StructureError,
                       match=rf"overlap \({o.a},{o.b}\) has points outside"):
        check_gerbe_cocycle_smooth(gcd, _shared(gcd)[2])
