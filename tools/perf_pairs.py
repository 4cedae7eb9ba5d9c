"""Alternated parent/change runs of the benchmark, written as BENCH_*.json.

Usage, from the root of a git checkout:

    python3 tools/perf_pairs.py --parent REV [--change REV] \
        --workload homotopy --workload model-match --seeds 21-28 \
        --seconds 40 --out BENCH_name.json --what "one line on the change"

Both sides are snapshots in a temporary directory: the parent revision is
exported with ``git archive``, and the change is either another revision
(``--change REV``) or, by default, the files of the working tree that git
tracks or would track.  For every workload and seed the script runs the
untraced ``perfbench/run.py`` of each side once, parent first at even
positions in the seed list and change first at odd ones, so neither side
always runs first.  Each run reads the JSON object on the last line of the
benchmark's stdout.

The output file gets a ``perfbench`` section with, per workload and
end-to-end metric, each side's sorted runs, median and quartiles, the
number of seeds on which the change was better (lower) and a verdict
against the metric's bound in the parent's ``BENCHMARK.json`` (see
``verdict``).  Other top-level
keys of an existing output file are kept, so hand-collected numbers can sit
beside the runs.  Nothing under ``perfbench/`` is changed.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

COMMAND = ("python3 perfbench/run.py --workload W --seed S "
           "--seconds {seconds:g} --trace 0")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True,
                          capture_output=True).stdout


def export_revision(rev: str, dest: str) -> None:
    """The tree of `rev`, written under `dest` with `git archive`."""
    data = _git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: str) -> None:
    """The working tree's tracked and untracked, not ignored, files."""
    names = _git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        if not os.path.isfile(name):
            continue  # deleted from the working tree, not yet from the index
        os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
        shutil.copy2(name, os.path.join(dest, name))


def parse_seeds(text: str) -> list[int]:
    """"21-24" -> [21, 22, 23, 24]; "3,5,9" -> [3, 5, 9]."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its last stdout line as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": sorted(round(r, 4) for r in runs)}


def verdict(p: list[float], c: list[float], bound: float,
            better: str = "lower") -> str:
    """How the change's runs `c` compare with the parent's runs `p`, taken
    pair by pair, for a metric that may worsen by `bound` times the
    parent's median:

    - "gain": the change is better in at least 9/10 of the pairs, ties
      counting for neither, and the medians differ by more than the
      distance between the parent's quartiles;
    - "worse": the change's median is worse than the parent's by more
      than the bound;
    - "unresolved": either side's quartiles lie further apart than the
      bound, relative to its median, unless every run of the change is
      better than every run of the parent;
    - "no worse": otherwise.
    """
    sign = 1 if better == "lower" else -1
    p, c = [sign * v for v in p], [sign * v for v in c]
    pm, cm = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4)
    won = sum(b < a for a, b in zip(p, c, strict=True))
    if 10 * won >= 9 * len(p) and pm - cm > q3 - q1:
        return "gain"
    if cm - pm > bound * abs(pm):
        return "worse"

    def spread(runs: list[float]) -> float:
        lo, _, hi = statistics.quantiles(runs, n=4)
        return (hi - lo) / abs(statistics.median(runs))
    if max(spread(p), spread(c)) > bound and max(c) >= min(p):
        return "unresolved"
    return "no worse"


def compare(workload_runs: dict[str, list[dict]],
            metrics: dict[str, dict]) -> dict:
    """Per end-to-end metric: both sides' summaries, the pairs won and,
    where `metrics` (the ``end_to_end`` entries of BENCHMARK.json, by
    name) gives its bound, the verdict."""
    parent, change = workload_runs["parent"], workload_runs["change"]
    out = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        won = sum(b < a for a, b in zip(p, c))
        out[name] = {"parent": summary(p), "change": summary(c),
                     "change_lower_in_pairs": f"{won}/{len(p)}"}
        if name in metrics:
            out[name]["verdict"] = verdict(p, c, metrics[name]["bound"],
                                           metrics[name]["better"])
    return out


def machine() -> str:
    mem = ""
    try:
        with open("/proc/meminfo") as fh:
            kb = int(fh.readline().split()[1])
        mem = f", {kb / 2**20:.0f} GB RAM"
    except (OSError, ValueError, IndexError):
        pass
    # the children inherit this environment; the exported trees hold no
    # __pycache__, so with writing off every child compiles from source
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        bytecode = "off (PYTHONDONTWRITEBYTECODE set): no bytecode cache"
    else:
        bytecode = "on: children after the first read a bytecode cache"
    return (f"{platform.machine()} {platform.system()}, {os.cpu_count()} "
            f"CPUs{mem}, Python {platform.python_version()}, "
            f"OPENBLAS_NUM_THREADS=1 in every benchmark child, "
            f"bytecode writing {bytecode}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", default=None,
                    help="git revision (default: the working tree)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help='e.g. "21-28" or "3,5"')
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", required=True, help="BENCH_*.json to write")
    ap.add_argument("--what", default="", help="what the change does")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("quartiles need at least two seeds")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    parent = _git("rev-parse", "--short", args.parent).decode().strip()
    doc.update({"what": args.what or doc.get("what", ""), "parent": parent,
                "machine": machine()})
    bench = doc.setdefault("perfbench", {})
    bench.update({
        "command": COMMAND.format(seconds=args.seconds),
        "method": "parent and change alternated per seed (parent first at "
                  "even positions of the seed list); each runs list is "
                  "sorted; the pairs count compares each seed's two runs",
    })
    workloads = bench.setdefault("workloads", {})

    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        roots = {"parent": os.path.join(tmp, "parent"),
                 "change": os.path.join(tmp, "change")}
        export_revision(args.parent, roots["parent"])
        with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
            metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
        if args.change:
            export_revision(args.change, roots["change"])
        else:
            export_worktree(roots["change"])
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_side(roots[side], workload, seed, args.seconds)
                    runs[side].append(r)
                    wall = r["metrics"]["wall_per_ref"]["value"]
                    print(f"{workload} seed {seed} {side}: wall_per_ref "
                          f"{wall:.4f}, failed {r['failed']}", file=sys.stderr)
            every = runs["parent"] + runs["change"]
            workloads[workload] = {
                "seeds": seeds,
                "all_correct": all(r["correct"] for r in every),
                "failed": sum(r["failed"] for r in every),
                "metrics": compare(runs, metrics),
            }
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
