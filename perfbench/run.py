"""Benchmark of the xmodgerbe command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

This one process runs real CLI invocations (``python3 -m xmodgerbe.cli
... --format json``), each a fresh subprocess, one at a time: a closed loop
with one client.  A pass runs every invocation of the workload once; a
round is one pass (with tracing, one untraced and one traced pass).
Rounds repeat until the next one would end after
``--seconds``, and at least one round runs.  Seed 0 passes the preset
specs as users type them; any other seed writes each crossed module as a
JSON file with the element labels of H and D permuted and shuffles the
order of the invocations in every pass.

Before every untraced invocation the run times the fixed task in
``reference.py`` (a fresh interpreter that imports numpy and runs a
pure-Python search).  Other tenants of a shared host slow whole stretches
of a run by a quarter or more, the reference task as much as the program,
so the end-to-end times are reported in units of the reference task:
``wall_per_ref`` sums, over the invocations of a pass, the median of each
invocation's wall time divided by the reference task's wall time taken
around it; ``cpu_per_ref`` does the same with CPU time.  The seconds
themselves are printed too.

Every report goes through the verdict gate in ``workloads.py``.  A failed
invocation still counts in the timings.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics (from
spans recorded by ``tracer.py``) with ``--trace 1``.  ``failed`` counts
every invocation the gate rejects, and every traced invocation that left
no span file; no invocation of any workload fails at any seed on a correct
program, so ``correct`` is true only when ``failed`` is 0.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import instances  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, verdict_problems  # noqa: E402

WORK_DIR = ".perfbench"
# set-up is sampled before every untraced invocation, and at least this often
SETUP_SAMPLES = 5
# an invocation's time is divided by the median of this many reference
# samples, the ones taken nearest it
REF_WINDOW = 5
# every run must end within this many seconds of its start
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_per_ref": "ratio", "cpu_per_ref": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"}


class Runner:
    """Runs invocations of one workload from the root of a checkout."""

    def __init__(self, root: str, workload: str, seed: int, deadline: float):
        self.root = root
        self.invocations = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(root, WORK_DIR, f"{workload}-{seed}")
        # One BLAS thread per process: on import, numpy's OpenBLAS otherwise
        # starts a worker thread in every child, which spins on the other
        # core and makes each time depend on what else runs there.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.first_bytes: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.xmods: dict[str, str] = {}
        self.reference: list[dict] = []
        self.setup: list[float] = []

    def prepare(self) -> None:
        """Choose the --xmod inputs: presets at seed 0, otherwise relabelled
        JSON files written once for the whole run."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "spans"))
        for spec in sorted({i.xmod for i in self.invocations if i.xmod}):
            if self.seed == 0:
                self.xmods[spec] = spec
                continue
            xm = instances.relabel(instances.build(spec), self.rng)
            path = os.path.join(WORK_DIR, os.path.basename(self.work),
                                spec.replace(":", "_") + ".json")
            with open(os.path.join(self.root, path), "w") as fh:
                json.dump(xm, fh)
            self.xmods[spec] = path

    def _argv(self, inv) -> list[str]:
        return [self.xmods.get(inv.xmod, a) if a == "{xmod}" else a
                for a in inv.args] + ["--format", "json"]

    def spawn(self, argv: list[str], stdout_path: str):
        """Run one child to completion; returns (wall, rusage, exit code)."""
        limit = self.deadline - time.monotonic()
        with open(stdout_path, "wb") as out, \
                open(stdout_path + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            killer = threading.Timer(max(limit, 0.0), _kill_group, [proc.pid])
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter importing the CLI, running no
        command: the set-up every invocation pays."""
        out = os.path.join(self.work, "setup.out")
        wall, _, code = self.spawn(
            [sys.executable, "-c", "import xmodgerbe.cli"], out)
        if code != 0:
            raise RuntimeError("cannot import xmodgerbe.cli: "
                               + _read(out + ".err").decode(errors="replace"))
        return wall

    def reference_sample(self) -> None:
        """Time the reference task once; it must succeed."""
        out = os.path.join(self.work, "reference.out")
        wall, usage, code = self.spawn(
            [sys.executable, os.path.join(HERE, "reference.py")], out)
        if code != 0:
            raise RuntimeError("the reference task failed: "
                               + _read(out + ".err").decode(errors="replace"))
        self.reference.append({"wall_s": wall,
                               "cpu_s": usage.ru_utime + usage.ru_stime})

    def run_pass(self, traced: bool) -> tuple[list[dict], list[dict]]:
        """One pass over the workload: a sample per invocation (its key,
        wall and CPU seconds, peak resident set and, untraced, the index of
        the reference sample taken just before it) and, if traced, the
        pass's spans.  Untraced, each invocation is preceded by a reference
        sample and a set-up sample."""
        order = list(self.invocations)
        if self.seed != 0:
            self.rng.shuffle(order)
        samples: list[dict] = []
        ref = None
        pass_spans: list[dict] = []
        for inv in order:
            if not traced:
                self.reference_sample()
                ref = len(self.reference) - 1
                self.setup.append(self.setup_sample())
            out = os.path.join(self.work, inv.key + ".out")
            argv = [sys.executable]
            if traced:
                span_file = os.path.join(self.work, "spans", inv.key + ".json")
                if os.path.exists(span_file):
                    os.remove(span_file)  # written afresh by this invocation
                argv += [os.path.join(HERE, "tracer.py"), span_file, inv.key]
            else:
                argv += ["-m", "xmodgerbe.cli"]
            t, usage, code = self.spawn(argv + self._argv(inv), out)
            stdout = _read(out)
            self.attempted += 1
            problems = verdict_problems(inv, code, stdout, self.first_bytes)
            self.first_bytes.setdefault(inv.bytes_key, stdout)
            if traced:
                if os.path.exists(span_file):
                    with open(span_file) as fh:
                        pass_spans += json.load(fh)
                else:
                    problems.append("the traced invocation wrote no spans")
            if problems:
                self.failures.append((inv.key, problems))
            samples.append({"key": inv.key, "ref": ref, "wall_s": t,
                            "cpu_s": usage.ru_utime + usage.ru_stime,
                            "peak_rss_mb": usage.ru_maxrss / 1024.0})
        return samples, pass_spans


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value), or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10  # samples at or below the percentile
    return 100.0 * k / n, sorted(samples)[k - 1]


def measure(runner: Runner, seconds: float, trace: bool):
    """Run rounds until the next would end after ``seconds`` (or after the
    hard limit); at least one round runs.  An untimed set-up sample first
    lets the interpreter compile and cache the package."""
    runner.setup_sample()
    start = time.monotonic()
    plain, traced = [], []
    kinds = [False, True] if trace else [False]
    while True:
        for kind in kinds:
            (traced if kind else plain).append(runner.run_pass(kind))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / len(plain)) > min(seconds, HARD_LIMIT_S):
            break
    while len(runner.setup) < SETUP_SAMPLES:
        runner.setup.append(runner.setup_sample())
    return plain, traced


def pass_metric(passes: list[tuple[list[dict], list[dict]]], name: str,
                combine=sum) -> float:
    """A pass's ``name`` from the median sample of each invocation, combined
    over the invocations of the pass (summed, or their maximum)."""
    by_key: dict[str, list[float]] = {}
    for samples, _ in passes:
        for s in samples:
            by_key.setdefault(s["key"], []).append(s[name])
    return combine(statistics.median(v) for v in by_key.values())


def reference_s(runner: Runner, name: str) -> float:
    return statistics.median(r[name] for r in runner.reference)


def per_reference(runner: Runner, passes, name: str) -> float:
    """A pass's ``name`` in units of the reference task: each invocation's
    sample divided by the median of the ``REF_WINDOW`` reference samples
    nearest it in time, the median of those ratios per invocation, summed
    over the invocations of the pass."""
    refs = [r[name] for r in runner.reference]
    by_key: dict[str, list[float]] = {}
    for samples, _ in passes:
        for s in samples:
            hi = min(len(refs), max(s["ref"] - REF_WINDOW // 2, 0) + REF_WINDOW)
            window = refs[max(hi - REF_WINDOW, 0):hi]
            by_key.setdefault(s["key"], []).append(
                s[name] / statistics.median(window))
    return sum(statistics.median(v) for v in by_key.values())


def end_to_end(runner: Runner, plain) -> dict:
    return {"wall_per_ref": per_reference(runner, plain, "wall_s"),
            "cpu_per_ref": per_reference(runner, plain, "cpu_s"),
            "setup_s": statistics.median(runner.setup),
            "peak_rss_mb": pass_metric(plain, "peak_rss_mb", max)}


def per_layer(plain, traced) -> dict:
    """Counts from the first traced pass (every pass runs the same inputs),
    times as the median over traced passes."""
    layers = [spans.layer_metrics(pass_spans) for _, pass_spans in traced]
    m = {}
    for name in spans.LAYER_METRICS:
        values = [x[name] for x in layers]
        m[name] = values[0] if name in spans.COUNT_METRICS \
            else statistics.median(values)
    m["trace_overhead_s"] = (pass_metric(traced, "wall_s")
                             - pass_metric(plain, "wall_s"))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xmodgerbe", "cli.py")):
        print("error: run from the root of an xmodgerbe checkout "
              "(src/xmodgerbe/cli.py not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    runner = Runner(root, args.workload, args.seed, started + HARD_LIMIT_S)
    try:
        runner.prepare()
        plain, traced = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)

    if args.trace:
        metrics = per_layer(plain, traced)
        units = spans.LAYER_METRICS
    else:
        metrics = end_to_end(runner, plain)
        units = END_TO_END
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes of "
          f"{len(runner.invocations)} invocations")
    for inv in runner.invocations:
        walls = [s["wall_s"] for samples, _ in plain for s in samples
                 if s["key"] == inv.key]
        tail = tail_percentile(walls)
        print(f"{inv.key} wall_s over n={len(walls)}: median "
              f"{statistics.median(walls):.4f} s, "
              + (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail else
                 "no percentile has ten samples beyond it"))
    print(f"pass wall_s {pass_metric(plain, 'wall_s'):.4f} s, cpu_s "
          f"{pass_metric(plain, 'cpu_s'):.4f} s (sums of the invocations' "
          f"medians); reference task over n={len(runner.reference)}: wall "
          f"{reference_s(runner, 'wall_s'):.4f} s, cpu "
          f"{reference_s(runner, 'cpu_s'):.4f} s (medians)")
    fail_ratio = len(runner.failures) / runner.attempted
    print(f"fail_ratio {fail_ratio:.4f} ({len(runner.failures)} of "
          f"{runner.attempted} invocations)")
    for key, problems in runner.failures:
        print(f"FAILED {key}: {'; '.join(problems)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
