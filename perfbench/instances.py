"""Crossed-module instances of the benchmark, built without the program.

Each preset the workloads use is rebuilt here from its definition, so the
relabelled JSON files the program reads at a non-zero seed do not depend on
the code under test.  A relabelling permutes the element labels of H and of
D independently and uniformly; the identity element is permuted like any
other label.
"""
from __future__ import annotations

import itertools
import random


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def symmetric_table(n: int) -> list[list[int]]:
    """Multiplication table of S_n on its permutations in lexicographic
    order; (p*q)(i) = p(q(i))."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms]
            for p in perms]


def _xmod(h, d, alpha, action, name) -> dict:
    return {"name": name,
            "H": {"name": "H", "order": len(h), "table": h},
            "D": {"name": "D", "order": len(d), "table": d},
            "alpha": alpha, "action": action}


def build(spec: str) -> dict:
    """The crossed module named by a preset spec, as program-readable JSON.

    Only the presets the workloads use are known: xmod_fiber:cyclic:n
    (Z_n -> 1), xmod_base:symmetric:n (1 -> S_n) and xmod_mod:m:n (Z_m ->
    Z_n by reduction, trivial action)."""
    kind, *args = spec.split(":")
    one = [[0]]
    if kind == "xmod_fiber" and args[0] == "cyclic":
        h = cyclic_table(int(args[1]))
        return _xmod(h, one, [0] * len(h), [list(range(len(h)))], spec)
    if kind == "xmod_base" and args[0] == "symmetric":
        d = symmetric_table(int(args[1]))
        return _xmod(one, d, [0], [[0] for _ in d], spec)
    if kind == "xmod_mod":
        m, n = int(args[0]), int(args[1])
        h, d = cyclic_table(m), cyclic_table(n)
        return _xmod(h, d, [a % n for a in range(m)],
                     [list(range(m)) for _ in range(n)], spec)
    raise ValueError(f"no benchmark definition for preset {spec!r}")


def _permute_table(t: list[list[int]], p: list[int]) -> list[list[int]]:
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[t[a][b]]
    return out


def relabel(xm: dict, rng: random.Random) -> dict:
    """The same crossed module with the labels of H and D permuted.

    Element a of H becomes ph[a] and element d of D becomes pd[d]; the
    tables, alpha and the action are transported along the permutations."""
    nh, nd = len(xm["H"]["table"]), len(xm["D"]["table"])
    ph = list(range(nh))
    pd = list(range(nd))
    rng.shuffle(ph)
    rng.shuffle(pd)
    alpha = [0] * nh
    for a in range(nh):
        alpha[ph[a]] = pd[xm["alpha"][a]]
    action = [[0] * nh for _ in range(nd)]
    for d in range(nd):
        for a in range(nh):
            action[pd[d]][ph[a]] = ph[xm["action"][d][a]]
    return _xmod(_permute_table(xm["H"]["table"], ph),
                 _permute_table(xm["D"]["table"], pd), alpha, action,
                 xm["name"])
