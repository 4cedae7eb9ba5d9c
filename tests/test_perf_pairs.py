"""The verdicts `tools/perf_pairs.py` writes, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

PARENT = [10.0, 10.2, 9.9, 10.1, 10.3, 9.8, 10.0, 10.1, 9.9, 10.2]


@pytest.mark.parametrize("change, bound, want", [
    # 10/10 pairs lower and the medians 1.0 apart, the parent's IQR 0.25
    ([v - 1.0 for v in PARENT], 0.1, "gain"),
    # 9/10 pairs lower is still a gain
    ([v - 1.0 for v in PARENT[:9]] + [10.4], 0.1, "gain"),
    # 8/10 pairs lower is not
    ([v - 1.0 for v in PARENT[:8]] + [10.4, 10.4], 0.1, "no worse"),
    # lower in every pair, by less than the parent's IQR
    ([v - 0.01 for v in PARENT], 0.1, "no worse"),
    # median 30% higher, bound 25%
    ([v * 1.3 for v in PARENT], 0.25, "worse"),
    # median 5% higher, bound 10%
    ([v * 1.05 for v in PARENT], 0.1, "no worse"),
    # the change's quartiles 40% of its median apart, bound 25%
    ([8, 8, 8, 8, 10, 10, 12, 12, 12, 12], 0.25, "unresolved"),
])
def test_verdict(change, bound, want):
    assert perf_pairs.verdict(PARENT, change, bound) == want


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    # the parent's quartiles are 10 apart, so a 6 lower median is no gain,
    # but every run of the change reads better than every parent run
    parent = [10.0] * 5 + [20.0] * 5
    assert perf_pairs.verdict(parent, [9.0] * 10, 0.25) == "no worse"
    assert perf_pairs.verdict(parent, [9.0] * 9 + [10.0], 0.25) == "unresolved"


def test_verdict_when_higher_is_better():
    higher = [v + 1.0 for v in PARENT]
    assert perf_pairs.verdict(PARENT, higher, 0.1, "higher") == "gain"
    assert perf_pairs.verdict(higher, PARENT, 0.05, "higher") == "worse"


def test_compare_writes_a_verdict_for_each_bounded_metric():
    def runs(values):
        return [{"metrics": {"peak_rss_mb": {"value": v},
                             "other": {"value": v}}} for v in values]
    out = perf_pairs.compare(
        {"parent": runs(PARENT), "change": runs([v - 1.0 for v in PARENT])},
        {"peak_rss_mb": {"name": "peak_rss_mb", "bound": 0.1,
                         "better": "lower"}})
    assert out["peak_rss_mb"]["verdict"] == "gain"
    assert out["peak_rss_mb"]["change_lower_in_pairs"] == "10/10"
    assert "verdict" not in out["other"]
