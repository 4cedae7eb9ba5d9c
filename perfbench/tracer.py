"""Run one xmodgerbe CLI invocation with its layer boundaries traced.

Usage: python3 tracer.py SPANS_OUT INVOCATION_ID CLI_ARG...

The public functions listed in ``HOOKS`` are wrapped at run time: every
module of the package that holds a reference to one of them gets the
wrapper instead, so calls through ``from .x import f`` are seen too.  No
file of the program is changed.  Each wrapped call records a span (name,
start, end, parent) and the counts its hook reads at the same boundary.
Spans stay in memory and are written as JSON when the invocation ends;
the exit code is the CLI's own.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time


def _budget_used(bound):
    b = bound.arguments.get("budget")
    return None if b is None else (b, b.used)


def _nodes(state, _result, _exc) -> dict:
    """Nodes a call spent from the budget it was handed, raised or not."""
    if state is None:
        return {}
    b, before = state
    return {"nodes": b.used - before}


def _homotopy_pre(bound):
    state = _budget_used(bound)
    # homotopy_classes hands each capped probe a fresh budget named after
    # it; every other call is a full search
    kind = "probe" if state and "probe" in state[0].what else "full"
    return kind, state


def _homotopy_post(state, result, exc) -> dict:
    kind, budget_state = state
    if exc is not None:
        outcome = "cut"
    else:
        outcome = "refuted" if result is None else "witness"
    return {"kind": kind, "outcome": outcome, **_nodes(budget_state, result, exc)}


def _cocycles(_state, result, exc):
    return {} if exc is not None else {"cocycles": len(result)}


def _twistings(_state, result, exc):
    return {} if exc is not None else {"twistings": len(result.twistings)}


def _case(bound):
    return bound.arguments["name"]


def _case_post(name, _result, _exc):
    return {"case": name}


# (module, function, span name, pre hook, post hook)
HOOKS = [
    ("cli", "main", "cli.main", None, None),
    ("cli", "build_parser", "cli.parse", None, None),
    ("cli", "parse_xmod", "cli.parse", None, None),
    ("cli", "parse_cover", "cli.parse", None, None),
    ("cli", "parse_group", "cli.parse", None, None),
    ("cli", "parse_sset", "cli.parse", None, None),
    ("simplicial", "homotopy_classes", "simplicial.homotopy_classes", None, None),
    ("simplicial", "simplicially_homotopic", "simplicial.simplicially_homotopic",
     _homotopy_pre, _homotopy_post),
    ("simplicial", "cover_nerve", "simplicial.cover_nerve", None, None),
    ("xnerve", "match_wbar_duskin", "xnerve.match_wbar_duskin",
     _budget_used, _nodes),
    ("xnerve", "build_duskin", "xnerve.build_duskin", None, None),
    ("xnerve", "build_nerve", "xnerve.build_nerve", None, None),
    ("twist", "build_wbar", "twist.build_wbar", None, None),
    ("twist", "classify_bundles", "twist.classify_bundles", None, _twistings),
    ("gerbe", "enumerate_cocycles", "gerbe.enumerate_cocycles", None,
     _cocycles),
    ("gerbe", "classify_gerbes", "gerbe.classify_gerbes", None, None),
    ("gerbe", "cocycle_to_simplicial_map", "gerbe.cocycle_to_simplicial_map",
     _budget_used, _nodes),
    ("gerbe", "lift_gerbe", "gerbe.lift_gerbe", _budget_used, _nodes),
    ("gerbe", "abelian_oracle", "gerbe.abelian_oracle", None, None),
    ("fingroup", "derived_crossed_modules", "fingroup.derived", None, None),
    ("fingroup", "kernel", "fingroup.kernel_image", None, None),
    ("fingroup", "image", "fingroup.kernel_image", None, None),
    ("intlinalg", "homology", "intlinalg.homology", None, None),
    ("intlinalg", "smith_normal_form", "intlinalg.snf", None, None),
    ("intlinalg", "solve_mod", "intlinalg.solve_mod", None, None),
    ("gauge", "run_case", "gauge.run_case", _case, _case_post),
    ("util", "pmap", "util.pmap", None, None),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, inv: str):
        self.inv = inv
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, fn, name, pre, post):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(sig.bind(*args, **kwargs)) if pre else None
            span = {"inv": self.inv, "id": len(self.spans),
                    "parent": self.stack[-1] if self.stack else None,
                    "name": name, "t0": time.perf_counter(), "t1": None,
                    "attrs": {}}
            self.spans.append(span)
            self.stack.append(span["id"])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                if name == "cli.parse" and fn.__name__ == "build_parser":
                    result.parse_args = self.wrap(result.parse_args,
                                                  "cli.parse", None, None)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span["t1"] = time.perf_counter()
                self.stack.pop()
                if post:
                    span["attrs"] = post(state, result, exc)
        return traced

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        for mod_name, fn_name, name, pre, post in HOOKS:
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            original = getattr(mod, fn_name)
            wrapper = self.wrap(original, name, pre, post)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def dump(self, path: str) -> None:
        if os.getpid() != self.pid:
            return  # a forked pool worker: its spans stay with it
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def main(argv: list[str]) -> int:
    out, inv, *cli_args = argv
    import xmodgerbe
    tracer = Tracer(inv)
    tracer.install(xmodgerbe)
    from xmodgerbe import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
