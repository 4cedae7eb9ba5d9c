"""Numerical checks of the local gauge laws for matrix crossed modules.

Everything here lives on sampled chart grids: transition data d_ab and
h_abc, a Lie(D)-valued connection 1-form A with its Lie(H)-valued overlap
correction a_ab, and a Lie(H)-valued B-field 2-form with its overlap
correction delta_ab.  The laws checked are

  triangle     d_ab d_bc = alpha(h_abc) d_ac
  connection-overlap   A_a = d_ab A_b d_ab^-1 + d_ab d(d_ab^-1) + alpha(a_ab)
  connection-triple    a_ab + d_ab |> a_bc
                         = h_abc a_ac h_abc^-1 + h_abc d(h_abc^-1)
                           + T_{A_a}(h_abc^-1)
  bfield-overlap       B_a = d_ab |> B_b + delta_ab
  bfield-triple        delta_ab + d_ab |> delta_bc
                         = h_abc delta_ac h_abc^-1 + B_a - h_abc B_a h_abc^-1
  curvature            F = dA + A ^ A,   nu = F + alpha(B)
  nu-gluing (abelian fiber only)   nu_a = d_ab nu_b d_ab^-1

The tetrahedron law h_abc h_acd = (d_ab |> h_bcd) h_abd needs fourfold
overlaps, which no bundled case has, so it is not sampled here.

Derivatives are central finite differences on regular grids; residuals on
analytically satisfying data are therefore O(step^2), which the step-halving
test in the suite pins down.  All group-valued callables must broadcast over
leading axes (inputs are stacks of matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .util import DEFAULT_BUDGET, Budget, BudgetError, Report, StructureError

__all__ = [
    "MatrixGroupDesc",
    "MatrixCrossedModule",
    "Chart",
    "Overlap",
    "TripleOverlap",
    "GaugeChartData",
    "Residual",
    "matrix_exp",
    "compute_T",
    "validate_matrix_xmod",
    "validate_chart_data",
    "check_gerbe_cocycle_smooth",
    "check_connection",
    "check_bfield",
    "curvature_and_nu",
    "CurvatureReport",
    "u1_group",
    "so3_group",
    "u1_id_xmod",
    "u1_null_xmod",
    "so3_conjugation_xmod",
    "case_trivial",
    "case_u1_circle_pair",
    "case_u1_circle_three",
    "case_u1_torus_three",
    "case_u1_sphere_monopole",
    "conjugation_T_samples",
    "builtin_cases",
    "run_case",
    "DEFAULT_STEPS",
    "DEFAULT_TOLS",
    "DEFAULT_T_STEP",
]


DEFAULT_STEPS = {1: 1e-3, 2: 1e-2}     # grid step per base dimension
DEFAULT_TOLS = {1: 1e-6, 2: 1e-4}      # residual tolerance per base dimension
DEFAULT_T_STEP = 1e-4                  # curve parameter step for tangents


# ---------------------------------------------------------------------------
# small dense-matrix helpers (complex128 throughout)


def matrix_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring on a truncated series.

    Accepts stacks (..., n, n); adequate for the small matrices used here.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    norm = np.abs(x).sum(axis=-1).max() if x.size else 0.0
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    y = x / (2.0 ** s)
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), x.shape).copy()
    out = eye.copy()
    term = eye.copy()
    for k in range(1, 19):
        term = term @ y / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _mags(x: np.ndarray) -> np.ndarray:
    """Flatten a stack of matrices to per-entry magnitudes."""
    return np.abs(np.asarray(x)).ravel()


def _stack_inv(x: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a stack (K, n, n), with its bits.

    A zero-stride stack (a broadcast view of one matrix, such as the torus
    case's constant d = h = 1) is inverted once and returned as a read-only
    broadcast view: LAPACK inverts each matrix on its own, so every copy
    would get the same bits."""
    x = np.asarray(x)
    if len(x) and x.strides[0] == 0:
        return np.broadcast_to(np.linalg.inv(x[:1]), x.shape)
    return np.linalg.inv(x)


def _is_identity(x: np.ndarray) -> bool:
    """Whether x is a zero-stride stack of one identity matrix, such as the
    torus case's transitions and their _stack_inv inverses."""
    return bool(len(x) and x.strides[0] == 0
                and np.array_equal(x[0], np.eye(x.shape[-1])))


def _mul(*stacks: np.ndarray) -> np.ndarray:
    """stacks[0] @ stacks[1] @ ..., skipping identity constants: a product
    by one changes a finite sample only in the sign of a zero."""
    out = None
    for s in stacks:
        if not _is_identity(s):
            out = s if out is None else out @ s
    return stacks[-1] if out is None else out


def _run(idx: np.ndarray, n: int) -> slice | None:
    """idx as a slice when it is a run of consecutive points of range(n),
    K increasing integers spanning K - 1; else None, left to a gather."""
    if (idx.ndim != 1 or not len(idx) or idx.dtype.kind not in "iu"
            or idx[0] < 0 or idx[-1] >= n
            or idx[-1] - idx[0] != len(idx) - 1
            or not (idx[1:] > idx[:-1]).all()):
        return None
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _take(x: np.ndarray, idx) -> np.ndarray:
    """x[idx] along the first axis: a view where idx is a run (see _run),
    a gather otherwise."""
    run = _run(np.asarray(idx), len(x))
    return x[idx] if run is None else x[run]


# ---------------------------------------------------------------------------
# matrix groups and crossed modules


@dataclass
class MatrixGroupDesc:
    """A matrix group given by a Lie-algebra basis; its elements are exp of
    the algebra combinations.  `basis` spans the Lie algebra inside
    dim x dim matrices.
    """

    name: str
    dim: int
    basis: list

    def __post_init__(self):
        self.basis = [np.asarray(b, dtype=np.complex128) for b in self.basis]

    @property
    def param_dim(self) -> int:
        return len(self.basis)

    def algebra(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        return np.tensordot(params, np.stack(self.basis), axes=([-1], [0]))

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.complex128)

    def random(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return matrix_exp(self.algebra(rng.normal(scale=scale,
                                                  size=self.param_dim)))


@dataclass
class MatrixCrossedModule:
    """Crossed module of matrix groups with sampled-axiom validation.

    alpha maps H-matrices to D-matrices; action maps (D-matrix, H-matrix)
    to an H-matrix.  dalpha/daction are the corresponding Lie-algebra maps
    and tangent(x, h) is T_x(h) of compute_T; when tangent is omitted it is
    evaluated by central differences on exp-curves.
    """

    name: str
    H: MatrixGroupDesc
    D: MatrixGroupDesc
    alpha: Callable
    action: Callable
    dalpha: Callable
    daction: Callable
    tangent: Callable | None = None
    h_abelian: bool = False
    t_step: float = DEFAULT_T_STEP


def compute_T(a_value: np.ndarray, h: np.ndarray, xm: MatrixCrossedModule,
              t_step: float | None = None,
              hinv: np.ndarray | None = None) -> np.ndarray:
    """Tangent at the identity of t -> h * (exp(t a_value) |> h^-1).

    a_value is a Lie(D) matrix (or a stack of them); h an H element (or a
    matching stack).  By linearity in the algebra argument this evaluates
    the basis-wise extension of the single-generator tangent map.  Central
    differences in the curve parameter give O(t_step^2) accuracy.  hinv,
    when given, is inv(h), so a caller with many a_value per h inverts once.
    """
    t = xm.t_step if t_step is None else t_step
    if hinv is None:
        hinv = np.linalg.inv(np.asarray(h, dtype=np.complex128))
    plus = h @ xm.action(matrix_exp(t * a_value), hinv)
    minus = h @ xm.action(matrix_exp(-t * a_value), hinv)
    return (plus - minus) / (2.0 * t)


def validate_matrix_xmod(xm: MatrixCrossedModule, samples: int = 25,
                         tol: float = 1e-8,
                         rng: np.random.Generator | None = None) -> Report:
    """Sampled axiom checks: homomorphisms, equivariance, Peiffer.

    No command runs it; the suite's run of it is the only check that the
    three bundled Lie crossed modules satisfy the axioms the gauge laws
    assume."""
    rng = rng or np.random.default_rng(7)
    checks = []

    def worst(x):
        return float(np.max(np.abs(x))) if np.asarray(x).size else 0.0

    h1 = np.stack([xm.H.random(rng) for _ in range(samples)])
    h2 = np.stack([xm.H.random(rng) for _ in range(samples)])
    d1 = np.stack([xm.D.random(rng) for _ in range(samples)])
    d2 = np.stack([xm.D.random(rng) for _ in range(samples)])
    checks.append(("alpha-identity",
                   worst(xm.alpha(xm.H.identity()) - xm.D.identity()) <= tol))
    checks.append(("alpha-hom",
                   worst(xm.alpha(h1 @ h2) - xm.alpha(h1) @ xm.alpha(h2)) <= tol))
    checks.append(("action-identity",
                   worst(xm.action(xm.D.identity(), h1) - h1) <= tol))
    checks.append(("action-hom-fiber",
                   worst(xm.action(d1, h1 @ h2)
                         - xm.action(d1, h1) @ xm.action(d1, h2)) <= tol))
    checks.append(("action-hom-base",
                   worst(xm.action(d1 @ d2, h1)
                         - xm.action(d1, xm.action(d2, h1))) <= tol))
    checks.append(("equivariance",
                   worst(xm.alpha(xm.action(d1, h1))
                         - d1 @ xm.alpha(h1) @ np.linalg.inv(d1)) <= tol))
    checks.append(("peiffer",
                   worst(xm.action(xm.alpha(h1), h2)
                         - h1 @ h2 @ np.linalg.inv(h1)) <= tol))
    rep = Report()
    for cname, ok in checks:
        rep.add(f"{xm.name}:{cname}", ok)
    return rep


# ---------------------------------------------------------------------------
# sampled chart data


@dataclass
class Chart:
    """A regular sample grid with form samples.

    grid: (P, dim) point coordinates, row-major over `shape`.
    steps: grid spacing per axis; periodic: axis wraps the full period.
    A: (P, dim, nD, nD) connection samples; B: (P, n2, nH, nH) 2-form
    samples with components in lexicographic (mu < nu) order.
    """

    grid: np.ndarray
    shape: tuple
    steps: tuple
    periodic: tuple
    A: np.ndarray | None = None
    B: np.ndarray | None = None


@dataclass
class Overlap:
    """Matched sample points of two charts, forming a regular subgrid."""

    a: int
    b: int
    ia: np.ndarray
    ib: np.ndarray
    shape: tuple
    periodic: tuple
    d: np.ndarray                      # (K, nD, nD)
    a_form: np.ndarray | None = None   # (K, dim, nH, nH)
    delta: np.ndarray | None = None    # (K, n2, nH, nH)


@dataclass
class TripleOverlap:
    """Matched sample points of three charts with the 2-cell labels."""

    a: int
    b: int
    c: int
    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray
    shape: tuple
    periodic: tuple
    h: np.ndarray                      # (K, nH, nH)


@dataclass
class GaugeChartData:
    """Sampled local data of a gerbe with connection and B-field."""

    name: str
    xm: MatrixCrossedModule
    dim: int
    charts: list
    overlaps: list
    triples: list = field(default_factory=list)
    periods: tuple = ()
    t_step: float = DEFAULT_T_STEP


@dataclass
class Residual:
    """Per-equation, per-sample residual magnitudes with summaries.

    `parts` holds each equation's magnitude arrays in the order added;
    reading `equations` concatenates each list once."""

    name: str
    parts: dict = field(default_factory=dict)
    absent: set = field(default_factory=set)

    def add(self, equation: str, values: np.ndarray) -> None:
        self.parts.setdefault(equation, []).append(_mags(values))

    @property
    def equations(self) -> dict:
        """Equation -> all its magnitudes, in the order added."""
        for arrays in self.parts.values():
            if len(arrays) > 1:
                arrays[:] = [np.concatenate(arrays)]
        return {eq: arrays[0] for eq, arrays in self.parts.items()}

    def add_absent(self, equation: str) -> None:
        """Report a law the data does not set up, with no samples."""
        self.add(equation, np.zeros(0))
        self.absent.add(equation)

    def max(self) -> float:
        return self.dictionary()["max"]

    def rms(self) -> float:
        return self.dictionary()["rms"]

    def per_equation(self) -> dict:
        return {k: (e["max"], e["rms"])
                for k, e in self.dictionary()["equations"].items()}

    def dictionary(self) -> dict:
        """Every summary.  Each equation's magnitudes are squared and their
        max taken once; the rms of all equations concatenates the squares,
        which has the bits of squaring the concatenation."""
        eqs, tops, flat = {}, [], []
        for k, v in self.equations.items():
            eqs[k] = {"max": 0.0, "rms": 0.0, "samples": int(v.size)}
            if v.size:
                flat.append(np.square(v))
                tops.append(float(v.max()))
                eqs[k].update(max=tops[-1],
                              rms=float(np.sqrt(np.mean(flat[-1]))))
        return {"name": self.name, "max": max(tops, default=0.0),
                "rms": float(np.sqrt(np.mean(np.concatenate(flat))))
                if flat else 0.0,
                "equations": dict(sorted(eqs.items()))}


# ---------------------------------------------------------------------------
# grid derivative helpers


def _valid_points(shape: tuple, axis: int, periodic: bool):
    """Where a central difference along `axis` is valid: a slice on a
    periodic axis (all) or an open leading one (interior rows), else a mask."""
    if periodic:
        return slice(None)
    inner = math.prod(shape[axis + 1:])
    if axis == 0:
        return slice(inner, (shape[0] - 1) * inner)
    valid = np.zeros(shape, dtype=bool)
    valid[(slice(None),) * axis + (slice(1, -1),)] = True
    return valid.reshape(-1)


def _central_diff(values: np.ndarray, shape: tuple, axis: int, step: float,
                  periodic: bool) -> tuple:
    """Central difference along a grid axis plus validity mask.

    values: (K, n, n) flattened row-major over `shape`.  Periodic axes wrap;
    otherwise the two boundary layers are flagged invalid.
    """
    k = values.shape[0]
    n = values.shape[-1]
    grid = values.reshape(shape + (n, n))

    def rows(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)

    # grid[i + 1] - grid[i - 1] written row block by row block into one
    # buffer, without a temporary: the interior rows, then on a periodic
    # axis the two wrapped rows (indices mod m), which makes it the
    # subtraction and division of np.roll(grid, -1) - np.roll(grid, 1)
    # without the two rolled copies; an open axis keeps +0 on its boundary
    der = (np.empty if periodic else np.zeros)(grid.shape, dtype=grid.dtype)
    np.subtract(grid[rows(2, None)], grid[rows(None, -2)],
                out=der[rows(1, -1)])
    if periodic:
        m = shape[axis]
        np.subtract(grid[rows(1 % m, 1 % m + 1)], grid[rows(m - 1, m)],
                    out=der[rows(0, 1)])
        np.subtract(grid[rows(0, 1)], grid[rows((m - 2) % m, (m - 2) % m + 1)],
                    out=der[rows(m - 1, m)])
        der /= 2.0 * step
    else:
        der[rows(1, -1)] /= 2.0 * step
    valid = np.zeros(k, dtype=bool)
    valid[_valid_points(shape, axis, periodic)] = True
    return der.reshape(k, n, n), valid


def _plus_transition(rhs: np.ndarray, g: np.ndarray, ginv: np.ndarray,
                     part, axis: int, step: float) -> np.ndarray:
    """rhs + g d(g^-1) along an axis of an overlap or triple, not in place;
    nothing for an identity constant g^-1, whose difference is +0."""
    if _is_identity(ginv):
        return rhs
    return rhs + _mul(g, _central_diff(ginv, part.shape, axis, step,
                                       part.periodic[axis])[0])


def _pair_maps(gcd: GaugeChartData) -> dict:
    """Per chart pair: its overlap components plus two dense index arrays.

    Triple checks look up pair data at any matched point by its chart-a
    index i: ``comp[i]`` is the component that holds chart-a point i, or -1
    where the pair does not meet, and ``rows[i]`` its sample row there.
    Samples stay in their components, so nothing is copied.
    """
    parts: dict = {}
    for o in gcd.overlaps:
        parts.setdefault((o.a, o.b), []).append(o)
    table = {}
    for (a, b), comps in parts.items():
        n = len(gcd.charts[a].grid)
        # int32 halves the table: a chart of 2**31 points would hold over
        # 50 GB of coordinates and connection samples before it got here
        comp = np.full(n, -1, dtype=np.int32)
        rows = np.full(n, -1, dtype=np.int32)
        for j, o in enumerate(comps):
            ia = np.asarray(o.ia, dtype=np.int64)
            if ia.size and (ia.min() < 0 or ia.max() >= n):
                raise StructureError(f"overlap ({a},{b}) has points outside "
                                     f"chart {a}")
            comp[ia] = j
            rows[ia] = np.arange(len(ia))
        table[(a, b)] = {"comps": comps, "comp": comp, "rows": rows}
    return table


def _pair_fetch(table: dict, a: int, b: int, idx: np.ndarray,
                field_name: str, what: str) -> np.ndarray:
    entry = table.get((a, b))
    if entry is None:
        raise StructureError(f"missing overlap data for charts ({a},{b}) "
                             f"needed by {what}")
    samples = [getattr(o, field_name) for o in entry["comps"]]
    if any(s is None for s in samples):
        raise StructureError(f"overlap ({a},{b}) has no '{field_name}' "
                             f"samples needed by {what}")
    idx = np.asarray(idx, dtype=np.int64)
    comp = entry["comp"]
    run = _run(idx, len(comp))
    if run is None:
        inside = (idx >= 0) & (idx < len(comp))   # no negative wraparound
        found = np.full(len(idx), -1, dtype=np.int64)
        found[inside] = comp[idx[inside]]
    else:
        found = comp[run]
    if (found < 0).any():
        missing = int(idx[np.argmax(found < 0)])
        raise StructureError(f"overlap ({a},{b}) lacks point {missing} "
                             f"needed by {what}")
    rows = entry["rows"][idx if run is None else run]
    lo, hi = (int(found.min()), int(found.max())) if len(idx) else (0, 0)
    if lo == hi:
        return _take(samples[lo], rows)
    out = np.empty((len(idx),) + samples[0].shape[1:],
                   dtype=np.result_type(*samples))
    for j in range(lo, hi + 1):
        sel = found == j
        out[sel] = samples[j][rows[sel]]
    return out


# ---------------------------------------------------------------------------
# validation of the sampled geometry


def validate_chart_data(gcd: GaugeChartData, tol: float = 1e-9) -> Report:
    """Consistency of the sampled cover: identifications and grid shapes."""
    checks = []
    periods = gcd.periods or tuple(0.0 for _ in range(gcd.dim))

    def match(pa, pb):
        diff = np.abs(np.asarray(pa) - np.asarray(pb)).reshape(-1, gcd.dim)
        raw = float(diff.max()) if diff.size else 0.0
        if raw <= tol:
            # reducing by the periods never makes a distance larger
            return raw
        for ax, per in enumerate(periods):
            if per:
                diff[:, ax] = np.minimum(diff[:, ax] % per,
                                         (-diff[:, ax]) % per)
        return float(diff.max())

    for o in gcd.overlaps:
        ca, cb = gcd.charts[o.a], gcd.charts[o.b]
        checks.append((f"overlap({o.a},{o.b})-points",
                       match(_take(ca.grid, o.ia),
                             _take(cb.grid, o.ib)) <= tol))
        checks.append((f"overlap({o.a},{o.b})-steps",
                       ca.steps == cb.steps))
        checks.append((f"overlap({o.a},{o.b})-shape",
                       int(np.prod(o.shape)) == len(o.ia) == len(o.ib)))
    for t in gcd.triples:
        ca, cb, cc = gcd.charts[t.a], gcd.charts[t.b], gcd.charts[t.c]
        pa = _take(ca.grid, t.ia)
        ok = (match(pa, _take(cb.grid, t.ib)) <= tol
              and match(pa, _take(cc.grid, t.ic)) <= tol)
        checks.append((f"triple({t.a},{t.b},{t.c})-points", ok))
    rep = Report()
    for cname, ok in checks:
        rep.add(f"{gcd.name}:{cname}", ok)
    return rep


# ---------------------------------------------------------------------------
# the residual checks


def check_gerbe_cocycle_smooth(gcd: GaugeChartData, table: dict) -> Residual:
    """Triangle condition of the sampled cocycle; table is _pair_maps(gcd)."""
    xm = gcd.xm
    res = Residual(f"cocycle {gcd.name}")
    for t in gcd.triples:
        what = f"triple({t.a},{t.b},{t.c})"
        d_ab = _pair_fetch(table, t.a, t.b, t.ia, "d", what)
        d_bc = _pair_fetch(table, t.b, t.c, t.ib, "d", what)
        d_ac = _pair_fetch(table, t.a, t.c, t.ia, "d", what)
        lhs = _mul(d_ab, d_bc)
        rhs = _mul(xm.alpha(t.h), d_ac)
        res.add("cocycle-triangle", lhs - rhs)
    if not gcd.triples:
        res.add_absent("cocycle-triangle")
    return res


# what run_case leaves in a case field after the last law that reads it.  A
# law that reads one fails: check_connection rejects a released a_form, which
# it could otherwise take for an absent one (no dalpha correction), and the
# other released fields are not indexable or iterable
_RELEASED = object()


def check_connection(gcd: GaugeChartData, dinvs: list, hinvs: list,
                     table: dict) -> Residual:
    """Both connection laws; derivative terms by central differences, and
    T_A(h) by the module's closed-form tangent, or compute_T without one.

    dinvs[k] / hinvs[k] are inv(d) of overlap k / inv(h) of triple k, and
    table is _pair_maps(gcd)."""
    xm = gcd.xm
    res = Residual(f"connection {gcd.name}")
    for k, o in enumerate(gcd.overlaps):
        ca, cb = gcd.charts[o.a], gcd.charts[o.b]
        if ca.A is None or cb.A is None:
            raise StructureError(f"charts ({o.a},{o.b}) lack connection "
                                 "samples")
        dinv = dinvs[k]
        for mu in range(gcd.dim):
            corr = 0.0
            if o.a_form is _RELEASED:
                raise StructureError(f"overlap ({o.a},{o.b}): a_form was "
                                     "released before the connection laws")
            if o.a_form is not None:
                corr = xm.dalpha(o.a_form[:, mu])
            # A is read one axis at a time: a gather of both components
            # would hold the other axis through this one's law
            lhs = _take(ca.A[:, mu], o.ia)
            rhs = _plus_transition(_mul(o.d, _take(cb.A[:, mu], o.ib), dinv),
                                   o.d, dinv, o, mu, ca.steps[mu]) + corr
            valid = _valid_points(o.shape, mu, o.periodic[mu])
            res.add(f"connection-overlap[{mu}]", (lhs - rhs)[valid])
    for k, t in enumerate(gcd.triples):
        what = f"triple({t.a},{t.b},{t.c})"
        a_ab = _pair_fetch(table, t.a, t.b, t.ia, "a_form", what)
        a_bc = _pair_fetch(table, t.b, t.c, t.ib, "a_form", what)
        a_ac = _pair_fetch(table, t.a, t.c, t.ia, "a_form", what)
        d_ab = _pair_fetch(table, t.a, t.b, t.ia, "d", what)
        ca = gcd.charts[t.a]
        if ca.A is None:
            raise StructureError("triple law needs connection samples")
        hinv = hinvs[k]
        if xm.tangent is None:
            # compute_T is evaluated at hinv and needs its inverse: once per
            # triple, not once per axis
            hinv_inv = np.linalg.inv(np.asarray(hinv, dtype=np.complex128))
        for mu in range(gcd.dim):
            lhs = a_ab[:, mu] + xm.daction(d_ab, a_bc[:, mu])
            a_mu = _take(ca.A[:, mu], t.ia)
            if xm.tangent is None:
                tan = compute_T(a_mu, hinv, xm, gcd.t_step, hinv_inv)
            else:
                tan = xm.tangent(a_mu, hinv)
            rhs = _plus_transition(_mul(t.h, a_ac[:, mu], hinv), t.h, hinv,
                                   t, mu, ca.steps[mu]) + tan
            valid = _valid_points(t.shape, mu, t.periodic[mu])
            res.add(f"connection-triple[{mu}]", (lhs - rhs)[valid])
    if not gcd.overlaps:
        res.add_absent("connection-overlap[0]")
    return res


def check_bfield(gcd: GaugeChartData, hinvs: list, table: dict) -> Residual:
    """Both B-field laws (algebraic: no grid derivatives involved); hinvs
    and table as for check_connection."""
    xm = gcd.xm
    res = Residual(f"bfield {gcd.name}")
    n2 = gcd.dim * (gcd.dim - 1) // 2
    for o in gcd.overlaps:
        ca, cb = gcd.charts[o.a], gcd.charts[o.b]
        if ca.B is None or cb.B is None or o.delta is None:
            raise StructureError(f"charts ({o.a},{o.b}) lack B-field samples")
        for c in range(n2):
            lhs = _take(ca.B[:, c], o.ia)
            rhs = xm.daction(o.d, _take(cb.B[:, c], o.ib)) + o.delta[:, c]
            res.add(f"bfield-overlap[{c}]", lhs - rhs)
    for k, t in enumerate(gcd.triples):
        what = f"triple({t.a},{t.b},{t.c})"
        de_ab = _pair_fetch(table, t.a, t.b, t.ia, "delta", what)
        de_bc = _pair_fetch(table, t.b, t.c, t.ib, "delta", what)
        de_ac = _pair_fetch(table, t.a, t.c, t.ia, "delta", what)
        d_ab = _pair_fetch(table, t.a, t.b, t.ia, "d", what)
        ba = _take(gcd.charts[t.a].B, t.ia)
        hinv = hinvs[k]
        for c in range(n2):
            lhs = de_ab[:, c] + xm.daction(d_ab, de_bc[:, c])
            rhs = (_mul(t.h, de_ac[:, c], hinv)
                   + ba[:, c] - _mul(t.h, ba[:, c], hinv))
            res.add(f"bfield-triple[{c}]", lhs - rhs)
    if not gcd.overlaps or n2 == 0:
        res.add_absent("bfield-overlap[0]")
    return res


@dataclass
class CurvatureReport:
    """The gluing residual of nu = F + alpha(B); it is only asserted for
    abelian fibers, otherwise it is reported as-is."""

    gluing: Residual
    gluing_asserted: bool


def curvature_and_nu(gcd: GaugeChartData, dinvs: list) -> CurvatureReport:
    """F = dA + A ^ A per chart, nu = F + alpha(B), overlap gluing of nu;
    dinvs as for check_connection."""
    xm = gcd.xm
    n2 = gcd.dim * (gcd.dim - 1) // 2
    nus, valids = [], []
    for ci, ch in enumerate(gcd.charts):
        if ch.A is None:
            raise StructureError(f"chart {ci} lacks connection samples")
        k = ch.A.shape[0]
        nD = ch.A.shape[-1]
        f = np.zeros((k, max(n2, 1), nD, nD), dtype=np.complex128)
        valid = np.ones(k, dtype=bool)
        comp = 0
        for mu in range(gcd.dim):
            for nu_ax in range(mu + 1, gcd.dim):
                d_mu_Anu, v1 = _central_diff(ch.A[:, nu_ax], ch.shape, mu,
                                             ch.steps[mu], ch.periodic[mu])
                d_nu_Amu, v2 = _central_diff(ch.A[:, mu], ch.shape, nu_ax,
                                             ch.steps[nu_ax],
                                             ch.periodic[nu_ax])
                # (d_mu_Anu - d_nu_Amu) + (A_mu A_nu - A_nu A_mu), summed in
                # that order into F's buffer
                np.subtract(d_mu_Anu, d_nu_Amu, out=f[:, comp])
                del d_mu_Anu, d_nu_Amu
                if nD > 1:
                    # 1x1 products commute to the bit (each is built from
                    # the same two real products): the commutator is +0
                    wedge = ch.A[:, mu] @ ch.A[:, nu_ax]
                    wedge -= ch.A[:, nu_ax] @ ch.A[:, mu]
                    f[:, comp] += wedge
                    del wedge
                valid &= v1 & v2
                comp += 1
        if ch.B is not None:
            # nu is built in F's buffer: nothing reads F on its own
            for c in range(n2):
                f[:, c] += xm.dalpha(ch.B[:, c])
        nus.append(f[:, :n2])
        valids.append(valid)
    glue = Residual(f"nu-gluing {gcd.name}")
    for k, o in enumerate(gcd.overlaps):
        ok = _take(valids[o.a], o.ia) & _take(valids[o.b], o.ib)
        dinv = dinvs[k]
        for c in range(n2):
            lhs = _take(nus[o.a][:, c], o.ia)
            rhs = _mul(o.d, _take(nus[o.b][:, c], o.ib), dinv)
            glue.add(f"nu-gluing[{c}]", (lhs - rhs)[ok])
    if n2 == 0 or not gcd.overlaps:
        glue.add_absent("nu-gluing[0]")
    return CurvatureReport(glue, gcd.xm.h_abelian)


# ---------------------------------------------------------------------------
# built-in matrix groups and crossed modules


def u1_group() -> MatrixGroupDesc:
    return MatrixGroupDesc("U1", 1, [np.array([[1j]])])


def so3_group() -> MatrixGroupDesc:
    lx = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=np.complex128)
    ly = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=np.complex128)
    lz = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.complex128)
    return MatrixGroupDesc("SO3", 3, [lx, ly, lz])


def _no_tangent(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """T_x(h) = 0 of a trivial action: the curve h (exp(t x) |> h^-1) is
    constant.  compute_T gives +-0 here, and a zero's sign never reaches a
    residual magnitude."""
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(h)),
                    dtype=np.complex128)


def u1_id_xmod() -> MatrixCrossedModule:
    """H = D = U(1), alpha the identity, conjugation (trivial) action."""
    u1 = u1_group()
    return MatrixCrossedModule(
        "u1-id", u1, u1,
        alpha=lambda h: h,
        action=lambda d, h: h + 0.0 * d,
        dalpha=lambda x: x,
        daction=lambda d, y: y + 0.0 * d,
        tangent=_no_tangent,
        h_abelian=True)


def u1_null_xmod() -> MatrixCrossedModule:
    """H = D = U(1) with the constant-identity homomorphism."""
    u1 = u1_group()
    return MatrixCrossedModule(
        "u1-null", u1, u1,
        alpha=lambda h: np.ones_like(h),
        action=lambda d, h: h + 0.0 * d,
        dalpha=lambda x: 0.0 * x,
        daction=lambda d, y: y + 0.0 * d,
        tangent=_no_tangent,
        h_abelian=True)


def so3_conjugation_xmod() -> MatrixCrossedModule:
    """H = D = SO(3), alpha the identity, action by conjugation."""
    so3 = so3_group()
    return MatrixCrossedModule(
        "so3-conj", so3, so3,
        alpha=lambda h: h,
        action=lambda d, h: d @ h @ np.linalg.inv(d),
        dalpha=lambda x: x,
        daction=lambda d, y: d @ y @ np.linalg.inv(d),
        h_abelian=False)


# ---------------------------------------------------------------------------
# built-in analytically satisfying cases
#
# All circle/torus constructions share one master grid so that overlap
# identifications are exact index matches; charts are index arcs.


def _runs_cyclic(idx: np.ndarray, m: int) -> list:
    """Split a sorted set of residues mod m into maximal cyclic runs."""
    if len(idx) == 0:
        return []
    present = np.zeros(m, dtype=bool)
    present[idx] = True
    if present.all():
        return [np.arange(m)]
    start = int(np.argmin(present))  # a gap; rotate so runs do not wrap
    runs = []
    cur = []
    for j in range(m):
        p = (start + j) % m
        if present[p]:
            cur.append(p)
        elif cur:
            runs.append(np.array(cur))
            cur = []
    if cur:
        runs.append(np.array(cur))
    return runs


def _arc_indices(lo: int, length: int, m: int) -> np.ndarray:
    return (lo + np.arange(length)) % m


def _matched_runs(grids: list, m: int) -> list:
    """Cyclic runs of the master-grid points (mod m) that every index array
    in `grids` contains, each paired with its positions in every array."""
    pos = np.full((len(grids), m), -1, dtype=np.int64)
    for row, g in zip(pos, grids):
        row[g] = np.arange(len(g))
    common = np.flatnonzero((pos >= 0).all(axis=0))
    return [(run, pos[:, run]) for run in _runs_cyclic(common, m)]


def _flat(rows: np.ndarray, ncols: int) -> np.ndarray:
    """Flat chart indices of the given grid rows times all ncols columns."""
    return (rows[:, None] * ncols + np.arange(ncols)[None, :]).ravel()


def _overlap_1d(charts_idx: list, a: int, b: int, theta: np.ndarray,
                m: int, d_fun, a_form_fun) -> list:
    out = []
    for run, (ia, ib) in _matched_runs([charts_idx[a], charts_idx[b]], m):
        th = theta[run]
        d = d_fun(th).reshape(-1, 1, 1)
        af = None
        if a_form_fun is not None:
            af = a_form_fun(th).reshape(-1, 1, 1, 1)
        out.append(Overlap(a, b, ia, ib, (len(run),), (False,), d,
                           a_form=af))
    return out


def _guard_points(case: str, step: float, points: float,
                  budget: Budget | None) -> None:
    """Raise BudgetError, before a case allocates its chart grids, when they
    hold more points than the budget's limit, or a count that is not a
    number at all; nothing is charged."""
    limit = DEFAULT_BUDGET if budget is None else budget.limit
    if not points <= limit:
        raise BudgetError(f"gauge case {case} at step {step:g} has {points:g} "
                          f"grid points", points, limit)


def _axis_points(case: str, span: float, step: float,
                 budget: Budget | None) -> int:
    """max(round(span / step), 1), the grid points of an axis of length
    `span`; the quotient passes _guard_points before it is rounded, so the
    infinite one of a subnormal step is refused too."""
    q = span / step
    _guard_points(case, step, q, budget)
    return max(int(round(q)), 1)


def _require_points(case: str, step: float, **parts: list) -> None:
    """Refuse a step that leaves overlaps or triples the case sets up empty."""
    for what, items in parts.items():
        if not items:
            raise StructureError(f"gauge case {case}: step {step:g} leaves "
                                 f"no {what} point")


def case_trivial(step: float | None = None,
                 budget: Budget | None = None) -> GaugeChartData:
    """Two charts on a segment; every field identically trivial."""
    if step is None:
        step = DEFAULT_STEPS[1]
    n = max(_axis_points("trivial", 1.0, step, budget), 16)
    half = n // 2
    quarter = n // 4
    _guard_points("trivial", step, 2 * (half + quarter), budget)
    xs = np.arange(n) * step
    ia0 = np.arange(quarter, half + quarter)
    charts = []
    for lo in (0, quarter):
        pts = xs[lo:lo + half + quarter].reshape(-1, 1)
        k = len(pts)
        charts.append(Chart(pts, (k,), (step,), (False,),
                            A=np.zeros((k, 1, 1, 1), dtype=np.complex128),
                            B=None))
    k = len(ia0)
    ov = Overlap(0, 1, np.arange(quarter, quarter + k),
                 np.arange(k), (k,), (False,),
                 np.broadcast_to(np.eye(1, dtype=np.complex128), (k, 1, 1)),
                 a_form=np.zeros((k, 1, 1, 1), dtype=np.complex128))
    return GaugeChartData("trivial", u1_id_xmod(), 1, charts, [ov],
                          periods=(0.0,))


def case_u1_circle_pair(k: int = 1, step: float | None = None,
                        budget: Budget | None = None) -> GaugeChartData:
    """Two arcs on the circle, H = D = U(1) with identity alpha.

    d_01 = exp(i k theta); A on chart 1 is an arbitrary smooth sample and A
    on chart 0 is defined exactly by the overlap law (whose derivative term
    is exp-closed), so the checked residual is pure discretization error.
    """
    if step is None:
        step = DEFAULT_STEPS[1]
    m = _axis_points("u1-circle-pair", 2 * np.pi, step, budget)
    arc = int(m * 0.58)
    _guard_points("u1-circle-pair", step, 2 * arc, budget)
    dx = 2 * np.pi / m
    theta = np.arange(m) * dx
    idx0 = _arc_indices(0, arc, m)
    idx1 = _arc_indices(m // 2, arc, m)

    def a1(th):
        return 1j * (np.sin(th) + 0.3 * np.cos(2 * th))

    def a0(th):
        return a1(th) - 1j * k

    c0 = Chart(theta[idx0].reshape(-1, 1), (arc,), (dx,), (False,),
               A=a0(theta[idx0]).reshape(-1, 1, 1, 1))
    c1 = Chart(theta[idx1].reshape(-1, 1), (arc,), (dx,), (False,),
               A=a1(theta[idx1]).reshape(-1, 1, 1, 1))
    overlaps = _overlap_1d([idx0, idx1], 0, 1, theta, m,
                           lambda th: np.exp(1j * k * th),
                           lambda th: np.zeros_like(th) * 1j)
    _require_points("u1-circle-pair", step, overlap=overlaps)
    return GaugeChartData("u1-circle-pair", u1_id_xmod(), 1, [c0, c1],
                          overlaps, periods=(2 * np.pi,))


def case_u1_circle_three(step: float | None = None,
                         budget: Budget | None = None) -> GaugeChartData:
    """Three wide arcs with nonempty triple overlaps; null alpha.

    Levels: d_ab = exp(i k_ab theta) with k an exact integer coboundary
    (k_ab = m_a - m_b), h_abc = exp(i phi_abc) with phi chosen so that the
    triple connection law holds exactly for a_ab = i c_ab cos(theta) dtheta;
    the triangle condition holds since alpha is constant-identity.
    """
    if step is None:
        step = DEFAULT_STEPS[1]
    m = _axis_points("u1-circle-three", 2 * np.pi, step, budget)
    arc = int(m * 0.8)
    _guard_points("u1-circle-three", step, 3 * arc, budget)
    dx = 2 * np.pi / m
    theta = np.arange(m) * dx
    starts = [0, m // 3, (2 * m) // 3]
    idx = [_arc_indices(s, arc, m) for s in starts]
    # integer coboundary k_ab = m_a - m_b with |k| <= 1 keeps the
    # second-derivative error of the transition term below tolerance
    ms = {0: 1.0, 1: 0.0, 2: 1.0}
    cs = {(0, 1): 0.7, (1, 2): -0.4, (0, 2): 0.9}

    def a_chart(a):
        def f(th):
            return 1j * (np.sin(th) + 0.25 * np.cos(3 * th) - ms[a])
        return f

    def d_fun(a, b):
        kab = ms[a] - ms[b]
        return lambda th: np.exp(1j * kab * th)

    def a_form_fun(a, b):
        return lambda th: 1j * cs[(a, b)] * np.cos(th)

    def phi(a, b, c):
        coeff = cs[(a, b)] + cs[(b, c)] - cs[(a, c)]
        return lambda th: -coeff * np.sin(th)

    charts = []
    for a in range(3):
        pts = theta[idx[a]].reshape(-1, 1)
        charts.append(Chart(pts, (arc,), (dx,), (False,),
                            A=a_chart(a)(pts[:, 0]).reshape(-1, 1, 1, 1)))
    overlaps = []
    for (a, b) in [(0, 1), (1, 2), (0, 2)]:
        overlaps += _overlap_1d(idx, a, b, theta, m, d_fun(a, b),
                                a_form_fun(a, b))
    triples = []
    for run, (ia, ib, ic) in _matched_runs(idx, m):
        h = np.exp(1j * phi(0, 1, 2)(theta[run])).reshape(-1, 1, 1)
        triples.append(TripleOverlap(0, 1, 2, ia, ib, ic, (len(run),),
                                     (False,), h))
    _require_points("u1-circle-three", step, overlap=overlaps, triple=triples)
    return GaugeChartData("u1-circle-three", u1_null_xmod(), 1, charts,
                          overlaps, triples, periods=(2 * np.pi,))


def case_u1_torus_three(step: float | None = None,
                        budget: Budget | None = None) -> GaugeChartData:
    """Three x-bands on the torus (y periodic); full B-field coverage.

    Transitions are trivial and the chart connections differ by exact
    a-form corrections a_ab = i (m_b - m_a) cos(y) dx, so the identity
    alpha makes the overlap law hold on the nose.  B per chart carries a
    matching i m_a sin(y) offset whose delta differences cancel the
    curvature differences, so nu = F + B glues (and this is asserted,
    the fiber being abelian).  Triple labels h are identically 1 and all
    triple laws hold exactly.  Every d and h stack is a read-only
    broadcast view of one identity matrix.
    """
    if step is None:
        step = DEFAULT_STEPS[2]
    m1 = _axis_points("u1-torus-three", 2 * np.pi, step, budget)
    m2 = m1
    arc = int(m1 * 0.8)
    _guard_points("u1-torus-three", step, 3 * arc * m2, budget)
    dx = 2 * np.pi / m1
    xs = np.arange(m1) * dx
    ys = np.arange(m2) * dx
    starts = [0, m1 // 3, (2 * m1) // 3]
    bands = [_arc_indices(s, arc, m1) for s in starts]
    ms = {0: 2.0, 1: 1.0, 2: 0.0}
    # every field is an elementwise formula in x or y alone: the sines and
    # cosines are taken once per grid axis and broadcast over the other,
    # the same values a per-point evaluation gives
    sin_y, cos_y = np.sin(ys), np.cos(ys)

    def per_point(rows, *cols):
        """(rows * m2, len(cols)) samples, row-major over the (rows, m2)
        grid, with each of `cols` broadcast to that grid."""
        out = np.empty((rows, m2, len(cols)), dtype=np.result_type(*cols))
        for i, col in enumerate(cols):
            out[..., i] = col
        return out.reshape(-1, len(cols))

    one = np.ones((1, 1), dtype=np.complex128)
    charts = []
    for a in range(3):
        x = xs[bands[a]][:, None]
        cos_x = np.cos(x)
        ax = 1j * (sin_y + 0.2 * cos_x - ms[a] * cos_y)
        ay = 1j * (0.5 * cos_x) + 0.0 * ys
        bf = 1j * (np.sin(x) + 0.3 * cos_y + ms[a] * sin_y)
        charts.append(Chart(per_point(arc, x, ys), (arc, m2), (dx, dx),
                            (False, True),
                            A=per_point(arc, ax, ay)[:, :, None, None],
                            B=per_point(arc, bf)[:, :, None, None]))
    overlaps = []
    for (a, b) in [(0, 1), (1, 2), (0, 2)]:
        for run, (ra, rb) in _matched_runs([bands[a], bands[b]], m1):
            n = len(run)
            af = per_point(n, 1j * (ms[b] - ms[a]) * cos_y, 0j)
            delta = per_point(n, 1j * (ms[a] - ms[b]) * sin_y)
            overlaps.append(Overlap(a, b, _flat(ra, m2), _flat(rb, m2),
                                    (n, m2), (False, True),
                                    np.broadcast_to(one, (n * m2, 1, 1)),
                                    a_form=af[:, :, None, None],
                                    delta=delta[:, :, None, None]))
    triples = []
    for run, rows in _matched_runs(bands, m1):
        ia, ib, ic = (_flat(r, m2) for r in rows)
        h = np.broadcast_to(one, (len(ia), 1, 1))
        triples.append(TripleOverlap(0, 1, 2, ia, ib, ic, (len(run), m2),
                                     (False, True), h))
    _require_points("u1-torus-three", step, overlap=overlaps, triple=triples)
    return GaugeChartData("u1-torus-three", u1_id_xmod(), 2, charts,
                          overlaps, triples, periods=(2 * np.pi, 2 * np.pi))


def case_u1_sphere_monopole(k: int = 1, step: float | None = None,
                            budget: Budget | None = None) -> GaugeChartData:
    """Two polar-cap charts in shared band coordinates; monopole charge k.

    A differs between the caps by the exact transition derivative term, and
    F computed independently on each chart from its own samples must agree
    on the overlap band up to discretization error.
    """
    if step is None:
        step = DEFAULT_STEPS[2]
    mphi = _axis_points("u1-sphere-monopole", 2 * np.pi, step, budget)
    th_lo, th_hi = 0.45, np.pi - 0.45
    mth = _axis_points("u1-sphere-monopole", th_hi - th_lo, step, budget)
    cut_n = int(0.70 * mth)
    cut_s = int(0.30 * mth)
    _guard_points("u1-sphere-monopole", step,
                  (cut_n + 1 + mth - cut_s + 1) * mphi, budget)
    step_phi = 2 * np.pi / mphi
    phis = np.arange(mphi) * step_phi
    step_th = (th_hi - th_lo) / mth
    thetas = th_lo + np.arange(mth + 1) * step_th
    rows_n = np.arange(0, cut_n + 1)
    rows_s = np.arange(cut_s, mth + 1)

    def grid_of(rows):
        gt, gp = np.meshgrid(thetas[rows], phis, indexing="ij")
        return np.stack([gt.ravel(), gp.ravel()], axis=1)

    def a_np(pts):
        th = pts[:, 0]
        a_th = np.zeros_like(th) * 1j
        a_ph = 1j * (k / 2.0) * (1.0 - np.cos(th))
        return np.stack([a_th, a_ph], axis=1).reshape(-1, 2, 1, 1)

    def a_sp(pts):
        th = pts[:, 0]
        a_th = np.zeros_like(th) * 1j
        a_ph = -1j * (k / 2.0) * (1.0 + np.cos(th))
        return np.stack([a_th, a_ph], axis=1).reshape(-1, 2, 1, 1)

    def b_of(pts):
        th, ph = pts[:, 0], pts[:, 1]
        return (1j * (np.cos(th) + 0.2 * np.sin(ph))
                ).reshape(-1, 1, 1, 1)

    gn = grid_of(rows_n)
    gs = grid_of(rows_s)
    chart_n = Chart(gn, (len(rows_n), mphi), (step_th, step_phi),
                    (False, True), A=a_np(gn), B=b_of(gn))
    chart_s = Chart(gs, (len(rows_s), mphi), (step_th, step_phi),
                    (False, True), A=a_sp(gs), B=b_of(gs))
    band = np.arange(cut_s, cut_n + 1)
    ia = _flat(band - rows_n[0], mphi)
    ib = _flat(band - rows_s[0], mphi)
    pts = gn[ia]
    d = np.exp(-1j * k * pts[:, 1]).reshape(-1, 1, 1)
    delta = np.zeros((len(ia), 1, 1, 1), dtype=np.complex128)
    af = np.zeros((len(ia), 2, 1, 1), dtype=np.complex128)
    ov = Overlap(0, 1, ia, ib, (len(band), mphi), (False, True), d,
                 a_form=af, delta=delta)
    return GaugeChartData("u1-sphere-monopole", u1_id_xmod(), 2,
                          [chart_n, chart_s], [ov],
                          periods=(0.0, 2 * np.pi))


def conjugation_T_samples(samples: int = 100, seed: int = 11,
                          t_step: float = DEFAULT_T_STEP) -> Residual:
    """Tangent map vs the closed conjugation form h X h^-1 - X."""
    xm = so3_conjugation_xmod()
    rng = np.random.default_rng(seed)
    res = Residual("conjugation-T")
    hs = np.stack([xm.H.random(rng) for _ in range(samples)])
    xs = np.stack([xm.D.algebra(rng.normal(scale=0.8, size=3))
                   for _ in range(samples)])
    fd = compute_T(xs, hs, xm, t_step)
    closed = hs @ xs @ np.linalg.inv(hs) - xs
    res.add("T-closed-form", fd - closed)
    return res


def builtin_cases() -> dict:
    """Named builders for the bundled analytic cases."""
    return {
        "trivial": case_trivial,
        "u1-circle-pair": case_u1_circle_pair,
        "u1-circle-three": case_u1_circle_three,
        "u1-torus-three": case_u1_torus_three,
        "u1-sphere-monopole": case_u1_sphere_monopole,
    }


def run_case(name: str, step: float | None = None,
             tolerance: float | None = None,
             budget: Budget | None = None) -> dict:
    """Build a named case, run every applicable check, report verdicts.

    Refuses a step at which a law the case sets up has no valid sample
    point, grids larger than the budget's limit (see _guard_points), and
    any step for so3-conjugation-T, which samples no grid."""
    if name == "so3-conjugation-T":
        if step is not None:
            raise StructureError(f"fd-step does not apply to gauge case "
                                 f"{name}, which samples no grid")
        res = conjugation_T_samples()
        tol = tolerance if tolerance is not None else 1e-6
        return {
            "case": name,
            "tolerance": tol,
            "residuals": {"compute-T": res.dictionary()},
            "passed": bool(res.max() <= tol),
        }
    cases = builtin_cases()
    if name not in cases:
        raise StructureError(f"unknown gauge case '{name}'; have "
                             f"{sorted(cases) + ['so3-conjugation-T']}")
    builder = cases[name]
    gcd = builder(step=step, budget=budget)
    tol = tolerance if tolerance is not None else DEFAULT_TOLS[gcd.dim]
    rep = validate_chart_data(gcd)
    if not rep.ok:
        raise StructureError(f"inconsistent chart data: {rep.summary()}")
    out = {"case": name, "tolerance": tol, "residuals": {}}
    # the pair table is built once and each overlap's d and each triple's h
    # stack inverted once (a constant stack as its one matrix, see
    # _stack_inv), and shared by the checks that need them.  The laws run in
    # the order their data is used up, and each field of the case is
    # released after the last law that reads it, so the torus case's later
    # laws run without the samples of the earlier ones.  Last readers: chart
    # grids, _pair_maps (the table keeps the chart lengths); delta,
    # check_bfield; a_form, the triples, the table and the h inverses,
    # check_connection.  A released field holds _RELEASED, so a law moved
    # past its release fails instead of changing its residuals
    table = _pair_maps(gcd)
    for ch in gcd.charts:
        ch.grid = _RELEASED
    dinvs = [_stack_inv(o.d) for o in gcd.overlaps]
    hinvs = [_stack_inv(t.h) for t in gcd.triples]
    cocycle = check_gerbe_cocycle_smooth(gcd, table)
    has_b = all(c.B is not None for c in gcd.charts) and gcd.dim >= 2
    bfield = check_bfield(gcd, hinvs, table) if has_b else None
    for o in gcd.overlaps:
        o.delta = _RELEASED
    connection = check_connection(gcd, dinvs, hinvs, table)
    for o in gcd.overlaps:
        o.a_form = _RELEASED
    gcd.triples = _RELEASED
    del table, hinvs
    curv = curvature_and_nu(gcd, dinvs)
    dim = gcd.dim
    # no sample is read again: freed before the summaries, which concatenate
    # each law's residuals
    del gcd, dinvs
    results = [cocycle, connection] + ([bfield] if has_b else [])
    vacuous = [eq for res in results + [curv.gluing]
               for eq, v in sorted(res.equations.items())
               if not v.size and eq not in res.absent]
    if vacuous:
        shown = DEFAULT_STEPS[dim] if step is None else step
        raise StructureError(f"gauge case {name}: step {shown:g} leaves no "
                             f"valid sample point for {', '.join(vacuous)}")
    passed = True
    for res in results:
        summary = out["residuals"][res.name.split(" ")[0]] = res.dictionary()
        passed = passed and summary["max"] <= tol
    glue = out["residuals"]["nu-gluing"] = curv.gluing.dictionary()
    out["nu_gluing_asserted"] = curv.gluing_asserted
    if curv.gluing_asserted:
        passed = passed and glue["max"] <= tol
    out["passed"] = bool(passed)
    return out
