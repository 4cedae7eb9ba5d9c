"""Finite groups as dense multiplication tables, homs, actions, crossed modules.

Elements of a group of order n are the integers 0..n-1; the table is the
single source of truth and everything else (identity, inverses) is derived
from it.  A crossed module is a group hom ``alpha: H -> D`` together with a
left D-action on H by automorphisms, subject to the usual two axioms
(equivariance of alpha and the Peiffer identity).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .util import Report, StructureError

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "GroupAction",
    "CrossedModule",
    "validate_group",
    "validate_hom",
    "validate_action",
    "validate_crossed_module",
    "subgroup",
    "closure",
    "quotient",
    "kernel",
    "image",
    "cokernel",
    "derived_crossed_modules",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "product_group",
    "trivial_group",
    "conjugation_action",
    "trivial_action",
    "xmod_identity",
    "xmod_mod",
    "xmod_automorphism",
    "xmod_inclusion",
    "xmod_trivial_base",
    "xmod_trivial_fiber",
    "preset_library",
    "preset_corpus",
    "find_isomorphism",
    "groups_isomorphic",
    "automorphisms",
    "abelian_invariants",
    "element_orders",
    "group_to_json",
    "group_from_json",
    "xmod_to_json",
    "xmod_from_json",
]


# ---------------------------------------------------------------------------
# core containers


@dataclass
class FiniteGroup:
    """A finite group presented by its full multiplication table.

    ``table[a, b]`` is the product a*b.  The identity and inverse table are
    located from the table on construction; a malformed table that has no
    identity or misses inverses raises StructureError immediately.  Full
    associativity checking is separate (`validate_group`) because it is
    cubic in the order.
    """

    table: np.ndarray
    name: str = "G"
    identity: int = field(init=False)
    inverses: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        n = t.shape[0]
        if t.ndim != 2 or t.shape != (n, n):
            raise StructureError(f"{self.name}: table must be square, got {t.shape}")
        if n == 0:
            raise StructureError(f"{self.name}: empty table")
        if t.min() < 0 or t.max() >= n:
            raise StructureError(f"{self.name}: table entries out of range 0..{n-1}")
        self.table = t
        ident = None
        rng = np.arange(n)
        for e in range(n):
            if np.array_equal(t[e], rng) and np.array_equal(t[:, e], rng):
                ident = e
                break
        if ident is None:
            raise StructureError(f"{self.name}: no two-sided identity")
        self.identity = ident
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.nonzero(t[a] == ident)[0]
            if len(hits) == 0:
                raise StructureError(f"{self.name}: element {a} has no right inverse")
            b = int(hits[0])
            if t[b, a] != ident:
                raise StructureError(f"{self.name}: inverse of {a} is one-sided")
            inv[a] = b
        self.inverses = inv

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def conj(self, a: int, b: int) -> int:
        """a b a^-1"""
        return int(self.table[self.table[a, b], self.inverses[a]])

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass
class GroupHom:
    """A group homomorphism given by its value array, ``mapping[a] = f(a)``."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: np.ndarray
    name: str = "f"

    def __post_init__(self):
        m = np.asarray(self.mapping, dtype=np.int64)
        if m.shape != (self.source.order,):
            raise StructureError(f"{self.name}: mapping length != source order")
        if m.min() < 0 or m.max() >= self.target.order:
            raise StructureError(f"{self.name}: mapping values out of target range")
        self.mapping = m

    def __call__(self, a: int) -> int:
        return int(self.mapping[a])

    def is_hom(self) -> bool:
        t = self.target.table
        m = self.mapping
        return np.array_equal(m[self.source.table], t[np.ix_(m, m)])


@dataclass
class GroupAction:
    """A left action of `actor` on the group `space` by automorphisms.

    ``table[d, h]`` is d acting on h.
    """

    actor: FiniteGroup
    space: FiniteGroup
    table: np.ndarray
    name: str = "act"

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.shape != (self.actor.order, self.space.order):
            raise StructureError(f"{self.name}: action table has wrong shape")
        if t.min() < 0 or t.max() >= self.space.order:
            raise StructureError(f"{self.name}: action values out of range")
        self.table = t

    def __call__(self, d: int, h: int) -> int:
        return int(self.table[d, h])


@dataclass
class CrossedModule:
    """(H --alpha--> D, action of D on H)."""

    H: FiniteGroup
    D: FiniteGroup
    alpha: GroupHom
    action: GroupAction
    name: str = "xm"

    def __post_init__(self):
        if self.alpha.source is not self.H or self.alpha.target is not self.D:
            raise StructureError(f"{self.name}: alpha must map H to D")
        if self.action.actor is not self.D or self.action.space is not self.H:
            raise StructureError(f"{self.name}: action must be D on H")

    def act(self, d: int, h: int) -> int:
        return self.action(d, h)

    def __repr__(self):
        return f"CrossedModule({self.name}: |H|={self.H.order}, |D|={self.D.order})"


# ---------------------------------------------------------------------------
# validators


def validate_group(g: FiniteGroup) -> Report:
    """Exhaustive group-axiom check (cubic; intended for small orders)."""
    rep = Report()
    t = g.table
    n = g.order
    ok = True
    for a in range(n):
        # associativity row-block: (a*b)*c == a*(b*c) for all b, c
        if not np.array_equal(t[t[a, :], :], t[a, t]):
            ok = False
            break
    rep.add("associativity", ok, f"fails at a={a}" if not ok else "")
    rng = np.arange(n)
    e = g.identity
    rep.add("identity", np.array_equal(t[e], rng) and np.array_equal(t[:, e], rng))
    rep.add("inverses", all(t[a, g.inverses[a]] == e and t[g.inverses[a], a] == e
                            for a in range(n)))
    # latin square property follows from the axioms; cheap to confirm
    rep.add("cancellation", all(len(set(int(x) for x in t[a])) == n for a in range(n)))
    return rep


def validate_hom(f: GroupHom) -> Report:
    rep = Report()
    rep.add("maps-identity", f(f.source.identity) == f.target.identity)
    rep.add("multiplicative", f.is_hom())
    return rep


def validate_action(act: GroupAction) -> Report:
    rep = Report()
    D, H, t = act.actor, act.space, act.table
    rep.add("identity-acts-trivially",
            np.array_equal(t[D.identity], np.arange(H.order)))
    ok_auto = True
    for d in range(D.order):
        row = t[d]
        if len(set(int(x) for x in row)) != H.order:
            ok_auto = False
            break
        if not np.array_equal(row[H.table], H.table[np.ix_(row, row)]):
            ok_auto = False
            break
    rep.add("acts-by-automorphisms", ok_auto, f"row d={d}" if not ok_auto else "")
    ok_comp = True
    for d1 in range(D.order):
        for d2 in range(D.order):
            if not np.array_equal(t[D.mul(d1, d2)], t[d1][t[d2]]):
                ok_comp = False
                break
        if not ok_comp:
            break
    rep.add("compatible-with-multiplication", ok_comp)
    return rep


def validate_crossed_module(xm: CrossedModule) -> Report:
    """Check alpha is a hom, the action is by automorphisms, and both axioms.

    Axioms, in table form:
      equivariance: alpha(d.h) = d alpha(h) d^-1
      Peiffer:      (alpha(h)).h' = h h' h^-1
    """
    rep = Report()
    for nm, ok in validate_hom(xm.alpha).checks:
        rep.add(f"alpha-{nm}", ok)
    for nm, ok in validate_action(xm.action).checks:
        rep.add(f"action-{nm}", ok)
    H, D, a, act = xm.H, xm.D, xm.alpha.mapping, xm.action.table
    # equivariance, vectorised over (d, h)
    lhs = a[act]                                         # alpha(d.h)
    rhs = D.table[D.table[np.arange(D.order)[:, None], a[None, :]],
                  D.inverses[:, None]]                   # d alpha(h) d^-1
    eq_ok = np.array_equal(lhs, rhs)
    if not eq_ok:
        d, h = map(int, np.argwhere(lhs != rhs)[0])
        rep.add("equivariance", False, f"alpha({d}.{h}) != {d} alpha({h}) {d}^-1")
    else:
        rep.add("equivariance", True)
    # Peiffer, vectorised over (h, h')
    lhs = act[a]                                         # (alpha h).h'
    rhs = H.table[H.table[np.arange(H.order)[:, None],
                          np.arange(H.order)[None, :]],
                  H.inverses[:, None]]                   # h h' h^-1
    pf_ok = np.array_equal(lhs, rhs)
    if not pf_ok:
        h, h2 = map(int, np.argwhere(lhs != rhs)[0])
        rep.add("peiffer", False, f"(alpha {h}).{h2} != {h} {h2} {h}^-1")
    else:
        rep.add("peiffer", True)
    return rep


# ---------------------------------------------------------------------------
# subgroups, quotients, kernels


def closure(g: FiniteGroup, gens) -> list[int]:
    """Subgroup generated by `gens`, as a sorted element list."""
    seen = {g.identity}
    frontier = [g.identity]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = g.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def subgroup(g: FiniteGroup, elems, name: str = "S") -> tuple[FiniteGroup, GroupHom]:
    """The subgroup on `elems` (must be closed), with its inclusion hom."""
    elems = sorted(set(int(x) for x in elems))
    idx = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    tab = np.zeros((n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            z = g.mul(x, y)
            if z not in idx:
                raise StructureError(f"{name}: element set not closed ({x}*{y}={z})")
            tab[i, j] = idx[z]
    sub = FiniteGroup(tab, name=name)
    inc = GroupHom(sub, g, np.array(elems, dtype=np.int64), name=f"{name}-incl")
    return sub, inc


def is_normal(g: FiniteGroup, elems) -> bool:
    s = set(int(x) for x in elems)
    return all(g.conj(a, x) in s for a in g.elements() for x in s)


def quotient(g: FiniteGroup, normal_elems, name: str = "Q") -> tuple[FiniteGroup, GroupHom]:
    """Quotient of g by a normal subgroup, with the projection hom.

    Cosets are represented by their least element; raises StructureError if
    the subgroup is not normal.
    """
    nset = sorted(set(int(x) for x in normal_elems))
    if g.identity not in nset:
        raise StructureError(f"{name}: normal subgroup must contain identity")
    if not is_normal(g, nset):
        raise StructureError(f"{name}: subgroup is not normal, cannot quotient")
    coset_of = np.full(g.order, -1, dtype=np.int64)
    reps: list[int] = []
    for a in g.elements():
        if coset_of[a] >= 0:
            continue
        members = sorted(g.mul(a, x) for x in nset)
        r = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = r
    k = len(reps)
    tab = np.zeros((k, k), dtype=np.int64)
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            tab[i, j] = coset_of[g.mul(x, y)]
    q = FiniteGroup(tab, name=name)
    proj = GroupHom(g, q, coset_of, name=f"{name}-proj")
    return q, proj


def kernel(f: GroupHom, name: str = "ker") -> tuple[FiniteGroup, GroupHom]:
    elems = [a for a in f.source.elements() if f(a) == f.target.identity]
    return subgroup(f.source, elems, name=name)


def image(f: GroupHom, name: str = "im") -> tuple[FiniteGroup, GroupHom]:
    elems = sorted(set(int(x) for x in f.mapping))
    return subgroup(f.target, elems, name=name)


def cokernel(f: GroupHom, name: str = "coker") -> tuple[FiniteGroup, GroupHom]:
    """Quotient of the target by im(f); StructureError if the image is not normal."""
    elems = sorted(set(int(x) for x in f.mapping))
    if not is_normal(f.target, elems):
        raise StructureError(f"{name}: image of {f.name} is not normal in target")
    return quotient(f.target, elems, name=name)


def derived_crossed_modules(xm: CrossedModule) -> dict[str, CrossedModule]:
    """The four crossed modules derived from (H -> D).

    Returns {"to-image": (H -> im alpha), "coker-base": (1 -> coker alpha),
             "kernel-fiber": (ker alpha -> 1), "image-in-base": (im alpha -> D)}.
    All four are valid whenever xm is: im(alpha) is normal in D by
    equivariance and ker(alpha) is central in H by Peiffer.
    """
    out: dict[str, CrossedModule] = {}
    im_g, im_inc = image(xm.alpha, name="im")
    back = {int(v): i for i, v in enumerate(im_inc.mapping)}

    # H -> im(alpha), with im(alpha) acting through its inclusion into D
    alpha1 = GroupHom(xm.H, im_g,
                      np.array([back[int(v)] for v in xm.alpha.mapping]), name="alpha")
    act1 = GroupAction(im_g, xm.H, xm.action.table[im_inc.mapping], name="act")
    out["to-image"] = CrossedModule(xm.H, im_g, alpha1, act1,
                                    name=f"{xm.name}:to-image")

    # 1 -> coker(alpha)
    cok, _ = cokernel(xm.alpha, name="coker")
    out["coker-base"] = xmod_trivial_base(cok)

    # ker(alpha) -> 1 (ker alpha is central in H, hence abelian)
    ker_g, _ = kernel(xm.alpha, name="ker")
    out["kernel-fiber"] = xmod_trivial_fiber(ker_g)

    # im(alpha) -> D by inclusion, conjugation action
    out["image-in-base"] = xmod_inclusion(im_g, xm.D, im_inc.mapping)
    return out


# ---------------------------------------------------------------------------
# construction helpers


def trivial_group(name: str = "1") -> FiniteGroup:
    return FiniteGroup(np.zeros((1, 1), dtype=np.int64), name=name)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise StructureError("cyclic order must be >= 1")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"Z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n; element i + n*j is rotation^i * flip^j."""
    if n < 1:
        raise StructureError("dihedral parameter must be >= 1")
    tab = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i, j in itertools.product(range(n), range(2)):
        for i2, j2 in itertools.product(range(n), range(2)):
            ri = (i + (i2 if j == 0 else -i2)) % n
            tab[i + n * j, i2 + n * j2] = ri + n * (j ^ j2)
    return FiniteGroup(tab, name=f"D{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with permutations listed in lexicographic order; (p*q)(x) = p(q(x))."""
    perms = list(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    k = len(perms)
    tab = np.zeros((k, k), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            tab[i, j] = pos[tuple(p[q[x]] for x in range(n))]
    return FiniteGroup(tab, name=f"S{n}")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; (a, b) is encoded as a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    a = np.repeat(np.arange(n1), n2)
    b = np.tile(np.arange(n2), n1)
    tab = (g1.table[np.ix_(a, a)] * n2 + g2.table[np.ix_(b, b)])
    return FiniteGroup(tab, name=f"{g1.name}x{g2.name}")


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    t = np.tile(np.arange(space.order), (actor.order, 1))
    return GroupAction(actor, space, t, name="triv")


def conjugation_action(g: FiniteGroup) -> GroupAction:
    n = g.order
    t = g.table[g.table[np.arange(n)[:, None], np.arange(n)[None, :]],
                g.inverses[:, None]]
    return GroupAction(g, g, t, name="conj")


def xmod_identity(g: FiniteGroup) -> CrossedModule:
    """(G -> G, identity, conjugation)."""
    alpha = GroupHom(g, g, np.arange(g.order), name="id")
    return CrossedModule(g, g, alpha, conjugation_action(g), name=f"id({g.name})")


def xmod_mod(m: int, n: int) -> CrossedModule:
    """(Z_m -> Z_n, reduction mod n, trivial action); needs n | m."""
    D = cyclic_group(n)     # refuses n < 1 before n divides anything
    if m % n != 0:
        raise StructureError(f"xmod_mod: {n} must divide {m}")
    H = cyclic_group(m)
    alpha = GroupHom(H, D, np.arange(m) % n, name=f"mod{n}")
    return CrossedModule(H, D, alpha, trivial_action(D, H), name=f"Z{m}->Z{n}")


def xmod_inclusion(h: FiniteGroup, d: FiniteGroup, mapping) -> CrossedModule:
    """(H -> D, given injection, conjugation pulled back along it).

    The action is d.h = the unique h' with mapping[h'] = d mapping[h] d^-1;
    requires mapping to be injective with image normal in D.
    """
    mapping = np.asarray(mapping, dtype=np.int64)
    alpha = GroupHom(h, d, mapping, name="incl")
    if len(set(int(x) for x in mapping)) != h.order:
        raise StructureError("xmod_inclusion: mapping is not injective")
    if not is_normal(d, mapping):
        raise StructureError("xmod_inclusion: image is not normal in D")
    back = {int(v): i for i, v in enumerate(mapping)}
    act = np.zeros((d.order, h.order), dtype=np.int64)
    for dd in d.elements():
        for hh in h.elements():
            act[dd, hh] = back[d.conj(dd, int(mapping[hh]))]
    return CrossedModule(h, d, alpha, GroupAction(d, h, act), name=f"{h.name}<{d.name}")


def xmod_automorphism(h: FiniteGroup) -> CrossedModule:
    """(H -> Aut(H), h |-> conjugation-by-h, natural action)."""
    auts = automorphisms(h)
    pos = {tuple(int(x) for x in a): i for i, a in enumerate(auts)}
    k = len(auts)
    tab = np.zeros((k, k), dtype=np.int64)
    for i, p in enumerate(auts):
        for j, q in enumerate(auts):
            tab[i, j] = pos[tuple(int(x) for x in p[q])]
    D = FiniteGroup(tab, name=f"Aut({h.name})")
    amap = np.zeros(h.order, dtype=np.int64)
    for x in h.elements():
        inner = np.array([h.conj(x, y) for y in h.elements()], dtype=np.int64)
        amap[x] = pos[tuple(int(v) for v in inner)]
    alpha = GroupHom(h, D, amap, name="inn")
    act = np.stack(auts).astype(np.int64)
    return CrossedModule(h, D, alpha, GroupAction(D, h, act), name=f"aut({h.name})")


# ---------------------------------------------------------------------------
# isomorphism search


def element_orders(g: FiniteGroup) -> list[int]:
    return [g.element_order(a) for a in g.elements()]


def _generating_sequence(g: FiniteGroup) -> list[int]:
    gens: list[int] = []
    have = {g.identity}
    for a in sorted(g.elements(), key=lambda x: -g.element_order(x)):
        if a not in have:
            gens.append(a)
            have = set(closure(g, gens))
            if len(have) == g.order:
                break
    return gens


def _hom_from_gen_images(g1: FiniteGroup, g2: FiniteGroup,
                         gens: list[int], imgs: tuple[int, ...]):
    """Extend gens |-> imgs to a map on all of g1, or None on conflict."""
    val = {g1.identity: g2.identity}
    frontier = [g1.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s, t in zip(gens, imgs):
                y = g1.mul(x, s)
                w = g2.mul(val[x], t)
                if y in val:
                    if val[y] != w:
                        return None
                else:
                    val[y] = w
                    nxt.append(y)
        frontier = nxt
    if len(val) != g1.order:
        return None
    return np.array([val[a] for a in g1.elements()], dtype=np.int64)


def _isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    """Every isomorphism g1 -> g2, as value arrays, in backtracking order.

    Generator images run over the elements of g2 of the same order, the
    first generator slowest; fine for the orders this package works at
    (<= 48).
    """
    if g1.order != g2.order:
        return
    o1, o2 = element_orders(g1), element_orders(g2)
    if sorted(o1) != sorted(o2):
        return
    gens = _generating_sequence(g1)
    by_order: dict[int, list[int]] = {}
    for a, o in enumerate(o2):
        by_order.setdefault(o, []).append(a)
    for imgs in itertools.product(*(by_order[o1[s]] for s in gens)):
        m = _hom_from_gen_images(g1, g2, gens, imgs)
        if (m is not None and len(set(m.tolist())) == g1.order
                and GroupHom(g1, g2, m).is_hom()):
            yield m


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup):
    """The first isomorphism g1 -> g2 of `_isomorphisms` as a GroupHom, or None."""
    m = next(_isomorphisms(g1, g2), None)
    return None if m is None else GroupHom(g1, g2, m, name="iso")


def groups_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    return find_isomorphism(g1, g2) is not None


def automorphisms(g: FiniteGroup) -> list[np.ndarray]:
    """All automorphisms of g, as value arrays sorted lexicographically."""
    return sorted(_isomorphisms(g, g), key=lambda m: m.tolist())


def abelian_invariants(g: FiniteGroup) -> list[int]:
    """Invariant factors [d1, d2, ...] with d_{i+1} | d_i, for abelian g."""
    if not g.is_abelian():
        raise StructureError(f"{g.name} is not abelian")
    if g.order == 1:
        return []
    a = max(g.elements(), key=g.element_order)
    d1 = g.element_order(a)
    if d1 == g.order:
        return [d1]
    q, _ = quotient(g, closure(g, [a]))
    return [d1] + abelian_invariants(q)


# ---------------------------------------------------------------------------
# presets


def _parse_spec(spec):
    if isinstance(spec, FiniteGroup):
        return spec
    return preset_library(*str(spec).split(":"))


def _ints(name: str, args, count: int) -> list[int]:
    """The `count` parameters of preset `name` as ints; a StructureError
    naming the spec when there are more or one is not an integer."""
    spec = ":".join(map(str, (name, *args)))
    if len(args) > count:
        raise StructureError(
            f"'{spec}' has too many parameters; {name} takes {count}")
    try:
        return [int(a) for a in args]
    except ValueError:
        raise StructureError(
            f"'{spec}' has a parameter that is not an integer") from None


def preset_library(name: str, *args):
    """Named presets for groups and crossed modules.

    Groups: cyclic:n, dihedral:n, symmetric:n, trivial.
    Crossed modules: xmod_id:<group spec>, xmod_mod:m:n, xmod_aut:<group spec>,
    xmod_fiber:<group spec> for (H -> 1), xmod_base:<group spec> for (1 -> D).
    """
    if name == "cyclic":
        return cyclic_group(*_ints(name, args, 1))
    if name == "dihedral":
        return dihedral_group(*_ints(name, args, 1))
    if name == "symmetric":
        return symmetric_group(*_ints(name, args, 1))
    if name == "trivial":
        _ints(name, args, 0)
        return trivial_group()
    if name == "xmod_id":
        return xmod_identity(_parse_spec(args[0]))
    if name == "xmod_mod":
        return xmod_mod(*_ints(name, args, 2))
    if name == "xmod_aut":
        return xmod_automorphism(_parse_spec(args[0]))
    if name == "xmod_fiber":
        return xmod_trivial_fiber(_parse_spec(args[0]))
    if name == "xmod_base":
        return xmod_trivial_base(_parse_spec(args[0]))
    raise StructureError(f"unknown preset {name!r}")


def xmod_trivial_base(d: FiniteGroup) -> CrossedModule:
    """(1 -> D)."""
    H = trivial_group()
    alpha = GroupHom(H, d, np.array([d.identity]), name="triv")
    return CrossedModule(H, d, alpha, trivial_action(d, H), name=f"1->{d.name}")


def xmod_trivial_fiber(h: FiniteGroup) -> CrossedModule:
    """(H -> 1); requires H abelian (Peiffer forces it)."""
    D = trivial_group()
    alpha = GroupHom(h, D, np.zeros(h.order, dtype=np.int64), name="triv")
    return CrossedModule(h, D, alpha, trivial_action(D, h), name=f"{h.name}->1")


def preset_corpus() -> list[CrossedModule]:
    """The fixed list of crossed modules used throughout the test corpus.

    Contains only valid crossed modules; invalid controls are built by the
    tests that need them.
    """
    z2, z3, z4, z6 = cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(6)
    s3 = symmetric_group(3)
    return [
        xmod_trivial_fiber(z2),            # Z2 -> 1
        xmod_trivial_fiber(z3),            # Z3 -> 1
        xmod_trivial_base(z2),             # 1 -> Z2
        xmod_trivial_base(s3),             # 1 -> S3
        xmod_mod(4, 2),                    # Z4 -> Z2
        xmod_mod(6, 2),                    # Z6 -> Z2
        xmod_mod(6, 3),                    # Z6 -> Z3
        _xmod_times_k(2, 4),               # Z2 -> Z4 by x |-> 2x
        xmod_identity(z2),
        xmod_identity(z3),
        xmod_identity(z4),
        xmod_identity(s3),
        xmod_automorphism(z3),             # Z3 -> Z2
        xmod_automorphism(z4),             # Z4 -> Z2
        xmod_automorphism(z6),             # Z6 -> Z2
    ]


def _xmod_times_k(m: int, n: int) -> CrossedModule:
    """(Z_m -> Z_n, x |-> (n/m) x, trivial action); needs m | n."""
    if n % m != 0:
        raise StructureError(f"{m} must divide {n}")
    H, D = cyclic_group(m), cyclic_group(n)
    alpha = GroupHom(H, D, (np.arange(m) * (n // m)) % n, name=f"x{n//m}")
    return CrossedModule(H, D, alpha, trivial_action(D, H), name=f"Z{m}->Z{n}")


# ---------------------------------------------------------------------------
# JSON interfaces


def group_to_json(g: FiniteGroup) -> dict:
    return {"name": g.name, "order": g.order,
            "table": [[int(x) for x in row] for row in g.table]}


def _json_object(d, what: str, keys) -> None:
    """A StructureError unless `d` is a JSON object with every field in
    `keys`."""
    if not isinstance(d, dict):
        raise StructureError(f"{what} json must be an object, not {d!r:.40}")
    for key in keys:
        if key not in d:
            raise StructureError(f"{what} json missing field {key!r}")


def _json_int(v, name: str) -> int:
    """`v` when it is a JSON integer; a bool, float, string or anything else
    is a StructureError naming the field."""
    if type(v) is not int:
        raise StructureError(f"{name} must be an integer, not {v!r:.40}")
    return v


def _json_ints(v, name: str, ndim: int = 1) -> list:
    """`v` when it is `ndim` nested JSON lists of int64-sized JSON integers,
    the lists at each depth of one length (a list of rows of one width for
    `ndim` 2); a StructureError naming the field otherwise."""
    form = "a list of " + "lists of " * (ndim - 1) + "integers"

    def check(x, depth: int) -> None:
        if depth == 0 and type(x) is int:
            if not -2 ** 63 <= x < 2 ** 63:
                raise StructureError(f"{name} entry {x} out of range")
        elif depth > 0 and isinstance(x, list):
            for y in x:
                check(y, depth - 1)
            if depth > 1 and len({len(y) for y in x}) > 1:
                raise StructureError(f"{name} has lists of unequal length")
        else:
            raise StructureError(f"{name} must be {form}, not {x!r:.40}")

    check(v, ndim)
    return v


def group_from_json(d: dict) -> FiniteGroup:
    _json_object(d, "group", ("table",))
    tab = _json_ints(d["table"], "group table", 2)
    if "order" in d and len(tab) != _json_int(d["order"], "group order"):
        raise StructureError(f"declared order {d['order']} != table size {len(tab)}")
    g = FiniteGroup(tab, name=str(d.get("name", "G")))
    rep = validate_group(g)
    if not rep.ok:
        raise StructureError(f"group {g.name}: {rep.summary()}")
    return g


def xmod_to_json(xm: CrossedModule) -> dict:
    return {
        "H": group_to_json(xm.H),
        "D": group_to_json(xm.D),
        "alpha": [int(x) for x in xm.alpha.mapping],
        "action": [[int(x) for x in row] for row in xm.action.table],
    }


def xmod_from_json(d: dict) -> CrossedModule:
    _json_object(d, "xmod", ("H", "D", "alpha", "action"))
    H = group_from_json(d["H"])
    D = group_from_json(d["D"])
    alpha = GroupHom(H, D, _json_ints(d["alpha"], "alpha"), name="alpha")
    action = GroupAction(D, H, _json_ints(d["action"], "action", 2))
    return CrossedModule(H, D, alpha, action, name=str(d.get("name", "xm")))


def load_xmod(path: str) -> CrossedModule:
    with open(path) as fh:
        return xmod_from_json(json.load(fh))
