"""Command-line interface: validation, classification, and gauge checks.

One binary with subcommands.  Reports are emitted on stdout as
deterministically ordered JSON (or a flat table); timing and cache notices
go to stderr so repeated runs produce byte-identical reports regardless of
parallelism.  Exit codes: 0 success, 1 verification mismatch, 2 usage or
parse error, 3 budget or memory exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

# Package modules beyond util are imported inside the command that runs
# them, so a process loads only what its command needs (and no numpy
# unless the command uses it).
from .util import DEFAULT_BUDGET, Budget, BudgetError, StructureError

if TYPE_CHECKING:
    from .fingroup import CrossedModule
    from .simplicial import CoverComplex

__all__ = ["RunConfig", "RunReport", "main"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_TRUNCATION = 3


@dataclass
class RunConfig:
    """Resolved knobs of one invocation; output options never enter the
    report payload, so runs differing only in them match bytewise."""

    command: str
    inputs: dict
    truncation: int = DEFAULT_TRUNCATION
    budget: int = DEFAULT_BUDGET
    cache_dir: str | None = None
    fmt: str = "table"
    force: bool = False
    fd_step: float | None = None
    tolerance: float | None = None
    out: str | None = None


@dataclass
class RunReport:
    command: str
    config: dict
    results: dict
    oracles: dict
    exhaustive: bool
    elapsed: float = 0.0

    def payload(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "oracles": self.oracles,
            "exhaustive": self.exhaustive,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        for section in ("config", "results", "oracles"):
            for k, v in sorted(getattr(self, section).items()):
                lines.append(f"  {section}.{k} = {_short(v)}")
        lines.append(f"  exhaustive = {self.exhaustive}")
        return "\n".join(lines) + "\n"


def _short(v) -> str:
    s = json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else str(v)
    return s if len(s) <= 100 else s[:97] + "..."


# ---------------------------------------------------------------------------
# input parsing

# the form of each spec that takes parameters, one per colon
GROUP_FORMS = {"cyclic": "cyclic:n", "dihedral": "dihedral:n",
               "symmetric": "symmetric:n"}
XMOD_FORMS = {"xmod_mod": "xmod_mod:m:n", "xmod_id": "xmod_id:<group>",
              "xmod_aut": "xmod_aut:<group>",
              "xmod_fiber": "xmod_fiber:<group>",
              "xmod_base": "xmod_base:<group>"}
COVER_FORMS = {"circle": "circle:n", "ball": "ball:k", "sphere": "sphere:k"}


def _spec_parts(spec: str, forms: dict) -> list[str]:
    """`spec` split at its colons; a usage error naming the expected form
    when the spec stops before its last parameter."""
    parts = spec.split(":")
    form = forms.get(parts[0])
    if form is not None and len(parts) < len(form.split(":")):
        raise StructureError(f"'{spec}' lacks a parameter; use {form}")
    return parts


def parse_xmod(spec: str) -> CrossedModule:
    from .fingroup import load_xmod, preset_library
    if os.path.isfile(spec):
        return load_xmod(spec)
    parts = _spec_parts(spec, XMOD_FORMS)
    if parts[0] in GROUP_FORMS or parts[0] == "trivial":
        raise StructureError(f"'{spec}' names a group, not a crossed module; "
                             f"use {', '.join(XMOD_FORMS.values())} "
                             "or a JSON file")
    if parts[0] in ("xmod_id", "xmod_aut", "xmod_fiber", "xmod_base"):
        group = ":".join(parts[1:])
        _group_parts(group)
        return preset_library(parts[0], group)
    return preset_library(parts[0], *parts[1:])


def _group_parts(spec: str) -> list[str]:
    """`_spec_parts` of a group spec; a usage error when it names a crossed
    module instead."""
    parts = _spec_parts(spec, GROUP_FORMS)
    if parts[0] in XMOD_FORMS:
        raise StructureError(f"'{spec}' names a crossed module, not a group; "
                             f"use {', '.join(GROUP_FORMS.values())} or trivial")
    return parts


def parse_group(spec: str):
    from .fingroup import preset_library
    return preset_library(*_group_parts(spec))


def parse_cover(spec: str, budget: Budget | None = None) -> CoverComplex:
    """The cover a spec or JSON file names; one whose closure under
    subsets would list more sets than `budget` allows is a BudgetError."""
    from .fingroup import _ints
    from .simplicial import (CoverComplex, ball_cover, circle_cover,
                             sphere_cover)
    if os.path.isfile(spec):
        with open(spec) as fh:
            return CoverComplex.from_json(json.load(fh), budget)
    parts = _spec_parts(spec, COVER_FORMS)
    makers = {"circle": circle_cover, "ball": ball_cover,
              "sphere": sphere_cover}
    if parts[0] not in makers:
        raise StructureError(f"unknown cover '{spec}'; use circle:n, ball:k, "
                             "sphere:k, or a JSON file")
    return makers[parts[0]](*_ints(parts[0], parts[1:], 1), budget=budget)


def parse_sset(spec: str, n: int):
    from .simplicial import circle, delta1, load_sset
    if os.path.isfile(spec):
        return load_sset(spec)
    if spec == "circle":
        return circle(n)
    if spec == "delta1":
        return delta1(n)
    raise StructureError(f"unknown simplicial set '{spec}'; use circle, "
                         "delta1, or a JSON file")


def _check_truncation(n: int) -> None:
    if not 2 <= n <= 4:
        raise StructureError(f"truncation {n} unsupported; supported range "
                             "is 2..4")


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


# ---------------------------------------------------------------------------
# subcommands


def cmd_xmod_check(cfg: RunConfig) -> tuple[RunReport, int]:
    from .fingroup import validate_crossed_module
    xm = parse_xmod(cfg.inputs["xmod"])
    rep = validate_crossed_module(xm)
    results = {
        "name": xm.name,
        "orders": {"H": xm.H.order, "D": xm.D.order},
        "valid": rep.ok,
        "checks": [[name, ok] for name, ok in rep.checks],
        "violations": rep.violations,
    }
    report = RunReport(cfg.command, _config_echo(cfg), results, {}, True)
    return report, EXIT_OK if rep.ok else EXIT_MISMATCH


def _alpha_trivial(xm: CrossedModule) -> bool:
    return all(int(v) == xm.D.identity for v in xm.alpha.mapping)


def _action_trivial(xm: CrossedModule) -> bool:
    import numpy as np
    return all(np.array_equal(xm.action.table[d], np.arange(xm.H.order))
               for d in range(xm.D.order))


def _homotopy_crosscheck(cl, budget_limit: int) -> dict:
    """Independent class count through the classification theorem
    H^1(X; H -> D) = [X, B|N(H -> D)|]: the homotopy classes of the
    cocycles' maps, decided by `crosscheck.certified_classes`, whose counts
    go to stderr."""
    from .crosscheck import certified_classes
    try:
        classes, stats = certified_classes(cl, budget_limit)
    except BudgetError as e:
        return {"checked": False, "reason": f"budget: {e}"}
    print(f"[gerbe-classify] map_homotopy: {stats['certified']} certified "
          f"merges, {stats['failed']} failed certificates, "
          f"{stats['searches']} gauge searches, {stats['refuted']} "
          "refutations", file=sys.stderr)
    return {"checked": True, "classes": len(classes),
            "agree": len(classes) == len(cl.classes)}


def cmd_gerbe_classify(cfg: RunConfig) -> tuple[RunReport, int]:
    cover = parse_cover(cfg.inputs["cover"], Budget(cfg.budget, what="cover"))
    xm = parse_xmod(cfg.inputs["xmod"])
    cache = _cache_path(cfg, cover, xm)
    hit = _cache_load(cache)
    if hit is not None:
        print(f"[{cfg.command}] cache hit", file=sys.stderr)
        report, code = hit
    else:
        report, code = _gerbe_classify(cfg, cover, xm)
        _cache_store(cache, report, code)
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, f"classes-{_slug(xm.name)}.json")
        with open(path, "w") as fh:
            json.dump(report.results["representatives"], fh, sort_keys=True,
                      indent=2)
    return report, code


def _gerbe_classify(cfg: RunConfig, cover: CoverComplex,
                    xm: CrossedModule) -> tuple[RunReport, int]:
    from .gerbe import abelian_oracle, classify_gerbes, cocycle_to_json
    budget = Budget(cfg.budget, what="gerbe classification")
    cl = classify_gerbes(cover, xm, budget=budget, force=cfg.force)
    results = {
        "cover": cover.to_json(),
        "xmod": xm.name,
        "cocycles": len(cl.cocycles),
        "classes": len(cl.classes),
        "orbit_sizes": [c.orbit_size for c in cl.classes],
        "representatives": [cocycle_to_json(c.representative)
                            for c in cl.classes],
    }
    oracles = {}
    code = EXIT_OK
    applicable = (_alpha_trivial(xm) and _action_trivial(xm)
                  and xm.H.is_abelian() and xm.D.is_abelian())
    if applicable:
        h2 = abelian_oracle(cover, xm.H, 2)
        h1 = abelian_oracle(cover, xm.D, 1)
        expected = h2.order * h1.order
        oracles["abelian"] = {
            "applicable": True,
            "h2_fiber": h2.invariants, "h1_base": h1.invariants,
            "expected_classes": expected,
            "agree": expected == len(cl.classes),
        }
        if not oracles["abelian"]["agree"]:
            code = EXIT_MISMATCH
    else:
        oracles["abelian"] = {"applicable": False}
    oracles["map_homotopy"] = _homotopy_crosscheck(cl, cfg.budget)
    if oracles["map_homotopy"].get("agree") is False:
        code = EXIT_MISMATCH
    report = RunReport(cfg.command, _config_echo(cfg), results, oracles,
                       cl.exhaustive)
    return report, code


def cmd_duskin_compare(cfg: RunConfig) -> tuple[RunReport, int]:
    from .xnerve import match_wbar_duskin
    _check_truncation(cfg.truncation)
    xm = parse_xmod(cfg.inputs["xmod"])
    match = match_wbar_duskin(xm, N=cfg.truncation,
                              budget=Budget(cfg.budget, what="model match"))
    results = {
        "xmod": xm.name,
        "truncation": cfg.truncation,
        "found": True,
        "wbar_sizes": list(match.wbar.sizes),
        "duskin_sizes": list(match.duskin.sizes),
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, f"dictionary-{_slug(xm.name)}.json")
        with open(path, "w") as fh:
            json.dump(match.dictionary(), fh, sort_keys=True, indent=2)
        results["dictionary_file"] = os.path.basename(path)
    report = RunReport(cfg.command, _config_echo(cfg), results, {},
                       True)
    return report, EXIT_OK


def cmd_classify_bundles(cfg: RunConfig) -> tuple[RunReport, int]:
    from .simplicial import constant_simplicial_group
    from .twist import classify_bundles
    _check_truncation(cfg.truncation)
    x = parse_sset(cfg.inputs["sset"], cfg.truncation)
    g = constant_simplicial_group(parse_group(cfg.inputs["group"]),
                                  cfg.truncation)
    bc = classify_bundles(x, g, budget=Budget(cfg.budget, what="bundles"))
    results = {
        "sset": cfg.inputs["sset"],
        "group": cfg.inputs["group"],
        "truncation": cfg.truncation,
        "twistings": len(bc.twistings),
        "twisting_classes": len(bc.twisting_classes),
        "map_classes": len(bc.map_classes),
        "twisting_class_sizes": sorted(len(c) for c in bc.twisting_classes),
        "map_class_sizes": sorted(len(c) for c in bc.map_classes),
        "bijection": bc.bijection_ok,
    }
    oracles = {"route_match": {"agree": bc.bijection_ok,
                               "checks": len(bc.report.checks)}}
    report = RunReport(cfg.command, _config_echo(cfg), results, oracles, True)
    return report, EXIT_OK if bc.bijection_ok else EXIT_MISMATCH


def cmd_gauge_verify(cfg: RunConfig) -> tuple[RunReport, int]:
    from .gauge import builtin_cases, run_case
    name = cfg.inputs["case"]
    grids = builtin_cases()
    names = ([name] if name != "all"
             else sorted(grids) + ["so3-conjugation-T"])
    results = {}
    passed = True
    for nm in names:
        t0 = time.perf_counter()
        # --case all hands --fd-step to the grid cases only
        step = cfg.fd_step if name != "all" or nm in grids else None
        rep = run_case(nm, step=step, tolerance=cfg.tolerance,
                       budget=Budget(cfg.budget, what="gauge grids"))
        # stderr, so stdout stays byte-identical from run to run
        print(f"[gauge-verify] case {nm} {time.perf_counter() - t0:.2f}s",
              file=sys.stderr)
        results[nm] = rep
        passed = passed and rep["passed"]
    report = RunReport(cfg.command, _config_echo(cfg),
                       {"cases": results, "passed": passed}, {}, True)
    return report, EXIT_OK if passed else EXIT_MISMATCH


def cmd_lift(cfg: RunConfig) -> tuple[RunReport, int]:
    from .gerbe import LiftPlan, enumerate_cocycles
    cover = parse_cover(cfg.inputs["cover"], Budget(cfg.budget, what="cover"))
    target = parse_xmod(cfg.inputs["xmod"])
    plan = LiftPlan(cover, target)
    budget = Budget(cfg.budget, what="lift")
    cocycles = enumerate_cocycles(cover, plan.base, budget=budget,
                                  laws=plan.base_laws)
    lifts = plan.lift_table(cocycles, budget=budget)
    lifted = int(lifts.found.sum())
    agree_all = lifts.agreement is None or bool(lifts.agreement.all())
    results = {
        "cover": cover.to_json(),
        "target_xmod": target.name,
        "base_xmod": plan.base.name,
        "cocycles": len(cocycles),
        "lifted": lifted,
        "all_lift": lifted == len(cocycles),
    }
    oracles = {}
    if plan.emitted:
        oracles["obstruction"] = {
            "emitted": True,
            "zero_count": int(lifts.obstruction_zero.sum()),
            "h3_kernel_invariants": plan.oracle.invariants,
            "agree": agree_all,
        }
    else:
        oracles["obstruction"] = {"emitted": False}
    report = RunReport(cfg.command, _config_echo(cfg), results, oracles, True)
    return report, EXIT_OK if agree_all else EXIT_MISMATCH


DISPATCH = {
    "xmod-check": cmd_xmod_check,
    "gerbe-classify": cmd_gerbe_classify,
    "duskin-compare": cmd_duskin_compare,
    "classify-bundles": cmd_classify_bundles,
    "gauge-verify": cmd_gauge_verify,
    "lift": cmd_lift,
}


# ---------------------------------------------------------------------------
# result cache (gerbe-classify)

# bump when the entry layout or the meaning of a result changes
CACHE_FORMAT = 4


def _cache_path(cfg: RunConfig, cover: CoverComplex,
                xm: CrossedModule) -> str | None:
    """Entry path keyed on the command, on the config its report echoes
    (everything that can influence results) and on the content of the
    resolved inputs, so an edited input file never serves the old result."""
    if not cfg.cache_dir:
        return None
    import hashlib
    from .fingroup import xmod_to_json
    key = {"format": CACHE_FORMAT, "command": cfg.command,
           "run": _config_echo(cfg),
           "cover": cover.to_json(),
           "xmod": dict(xmod_to_json(xm), name=xm.name)}
    digest = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode()).hexdigest()
    return os.path.join(cfg.cache_dir, f"{cfg.command}-{digest[:24]}.json")


def _cache_load(path: str | None) -> tuple[RunReport, int] | None:
    """The cached (report, exit code), or None on a miss.  An unreadable
    entry counts as a miss; the caller recomputes and overwrites it."""
    if not path or not os.path.isfile(path):
        return None
    try:
        with open(path) as fh:
            entry = json.load(fh)
        return RunReport(**entry["payload"]), int(entry["exit"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"cache entry {path} unreadable ({e}); recomputing",
              file=sys.stderr)
        return None


def _cache_store(path: str | None, report: RunReport, code: int) -> None:
    if not path:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"payload": report.payload(), "exit": code}, fh)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _config_echo(cfg: RunConfig) -> dict:
    echo = {"inputs": cfg.inputs, "truncation": cfg.truncation,
            "budget": cfg.budget, "force": cfg.force}
    if cfg.fd_step is not None:
        echo["fd_step"] = cfg.fd_step
    if cfg.tolerance is not None:
        echo["tolerance"] = cfg.tolerance
    return echo


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="xmodgerbe",
        description="Crossed-module bundle and gerbe classification with "
                    "numerical gauge-law checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, truncation: bool = False, residuals: bool = False):
        if truncation:
            sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                            help="simplicial truncation level (2..4)")
        else:
            # not read here, so an explicit --truncation is a usage error;
            # the default still fills the config echo and the cache key
            sp.set_defaults(truncation=DEFAULT_TRUNCATION)
        if residuals:
            sp.add_argument("--fd-step", type=float, default=None,
                            help="grid step for finite differences; only "
                                 "the grid cases take it (--case all passes "
                                 "it to those, and so3-conjugation-T alone "
                                 "refuses it)")
            sp.add_argument("--tolerance", type=float, default=None,
                            help="residual tolerance")
        else:
            # only the gauge checks read these; elsewhere they are a usage error
            sp.set_defaults(fd_step=None, tolerance=None)
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="search node budget")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility (N >= 1); every "
                             "command runs serially")
        sp.add_argument("--cache-dir", default=None,
                        help="directory for the result cache")
        sp.add_argument("--format", choices=("table", "json"),
                        default="table", dest="fmt")
        sp.add_argument("--force", action="store_true",
                        help="run past exhaustive-mode guards")
        sp.add_argument("--out", default=None,
                        help="directory for artifact files")

    sp = sub.add_parser("xmod-check", help="validate a crossed module")
    sp.add_argument("xmod", help="preset spec (e.g. xmod_mod:4:2) or "
                                 "JSON file")
    common(sp)

    sp = sub.add_parser("gerbe-classify",
                        help="classify gerbe cocycles on a cover")
    sp.add_argument("--cover", required=True,
                    help="circle:n | ball:k | sphere:k | JSON file")
    sp.add_argument("--xmod", required=True)
    common(sp)

    sp = sub.add_parser("duskin-compare",
                        help="match the classifying space of the nerve "
                             "against the 2-nerve model")
    sp.add_argument("--xmod", required=True)
    common(sp, truncation=True)

    sp = sub.add_parser("classify-bundles",
                        help="count principal bundles two ways")
    sp.add_argument("--sset", required=True, help="circle | delta1 | file")
    sp.add_argument("--group", required=True, help="e.g. symmetric:3")
    common(sp, truncation=True)

    sp = sub.add_parser("gauge-verify",
                        help="run residual checks on a bundled gauge case")
    sp.add_argument("--case", required=True,
                    help="case name or 'all'")
    common(sp, residuals=True)

    sp = sub.add_parser("lift", help="lift cocycles along a surjective "
                                     "fiber quotient and cross-check the "
                                     "obstruction")
    sp.add_argument("--cover", required=True)
    sp.add_argument("--xmod", required=True, help="target crossed module")
    common(sp)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    inputs = {}
    for key in ("xmod", "cover", "sset", "group", "case"):
        if hasattr(args, key) and getattr(args, key) is not None:
            inputs[key] = getattr(args, key)
    if args.budget <= 0:
        raise StructureError("budget must be positive")
    if args.jobs < 1:
        raise StructureError("jobs must be >= 1")
    if args.fd_step is not None and not (math.isfinite(args.fd_step)
                                         and args.fd_step > 0):
        raise StructureError(f"fd-step must be a positive number, not "
                             f"{args.fd_step}")
    if args.tolerance is not None and not (math.isfinite(args.tolerance)
                                           and args.tolerance >= 0):
        raise StructureError(f"tolerance must be a number >= 0, not "
                             f"{args.tolerance}")
    return RunConfig(command=args.command, inputs=inputs,
                     truncation=args.truncation, budget=args.budget,
                     cache_dir=args.cache_dir, fmt=args.fmt,
                     force=args.force, fd_step=args.fd_step,
                     tolerance=args.tolerance, out=args.out)


def _emit(payload_json: str, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(payload_json)
    else:
        sys.stdout.write(RunReport(**json.loads(payload_json)).to_table())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        cfg = _config_from_args(args)
        report, code = DISPATCH[cfg.command](cfg)
        report.elapsed = time.time() - t0
        _emit(report.to_json(), cfg.fmt)
        print(f"[{cfg.command}] elapsed {report.elapsed:.2f}s",
              file=sys.stderr)
        return code
    except BudgetError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as e:
        # a table no budget guard counts (a nerve level) ends like a budget
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except json.JSONDecodeError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (StructureError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
