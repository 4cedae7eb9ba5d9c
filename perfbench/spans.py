"""Span records and the per-layer metrics computed from them.

A span is a dict with the keys ``inv`` (the invocation it belongs to),
``id``, ``parent`` (``None`` at the root), ``name``, ``t0``, ``t1`` (seconds
on one monotonic clock) and ``attrs`` (counts taken when the span closed).
"""
from __future__ import annotations

GAUGE_CASES = ("trivial", "u1-circle-pair", "u1-circle-three",
               "u1-torus-three", "u1-sphere-monopole", "so3-conjugation-T")

# Per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "simplicial.probe_calls": "count",
    "simplicial.probe_witness": "count",
    "simplicial.probe_refuted": "count",
    "simplicial.probe_cut": "count",
    "simplicial.probe_nodes": "count",
    "simplicial.probe_s": "s",
    "simplicial.cut_nodes": "count",
    "simplicial.full_calls": "count",
    "simplicial.full_witness": "count",
    "simplicial.full_refuted": "count",
    "simplicial.full_nodes": "count",
    "simplicial.full_s": "s",
    "simplicial.nodes_per_s": "1/s",
    "simplicial.probe_decided_ratio": "ratio",
    "simplicial.homotopy_classes_self_s": "s",
    "simplicial.cover_nerve_s": "s",
    "xnerve.match_calls": "count",
    "xnerve.match_nodes": "count",
    "xnerve.match_s": "s",
    "xnerve.match_nodes_per_s": "1/s",
    "xnerve.build_duskin_s": "s",
    "xnerve.build_nerve_s": "s",
    "twist.build_wbar_s": "s",
    "twist.classify_bundles_s": "s",
    "twist.twistings": "count",
    "gerbe.cocycles": "count",
    "gerbe.enumerate_s": "s",
    "gerbe.orbit_bfs_s": "s",
    "gerbe.extend_calls": "count",
    "gerbe.extend_nodes": "count",
    "gerbe.extend_s": "s",
    "gerbe.lift_calls": "count",
    "gerbe.lift_nodes": "count",
    "gerbe.lift_self_s": "s",
    "gerbe.oracle_calls": "count",
    "gerbe.oracle_s": "s",
    "fingroup.derived_calls": "count",
    "fingroup.derived_s": "s",
    "fingroup.kernel_image_calls": "count",
    "fingroup.kernel_image_s": "s",
    "intlinalg.homology_calls": "count",
    "intlinalg.homology_s": "s",
    "intlinalg.snf_calls": "count",
    "intlinalg.snf_s": "s",
    "intlinalg.solve_mod_calls": "count",
    "intlinalg.solve_mod_s": "s",
    **{f"gauge.case_s.{c}": "s" for c in GAUGE_CASES},
    "util.pmap_calls": "count",
    "util.pmap_s": "s",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}

# Metrics that count work rather than time it: they repeat exactly between
# two traced runs of the same inputs.
COUNT_METRICS = tuple(k for k, u in LAYER_METRICS.items() if u == "count")


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Self time of each span, keyed by ``(inv, id)``: its duration minus
    the durations of its child spans.  The spans of one invocation come from
    one thread, so children nest inside their parent and never overlap."""
    out = {(s["inv"], s["id"]): s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[(s["inv"], s["parent"])] -= s["t1"] - s["t0"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times of one pass, from its spans.

    Times are inclusive span durations summed over calls, except the
    ``*_self_s`` metrics, ``gerbe.orbit_bfs_s`` and ``cli.self_s``, which
    sum self times.  ``trace_overhead_s`` is not derivable from spans and
    is left at zero here."""
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    own = self_times(spans)
    match_self = 0.0
    for s in spans:
        name, a = s["name"], s["attrs"]
        dur = s["t1"] - s["t0"]
        self_s = own[(s["inv"], s["id"])]
        if name == "simplicial.simplicially_homotopic":
            kind = a.get("kind", "full")
            m[f"simplicial.{kind}_calls"] += 1
            outcome = f"simplicial.{kind}_{a['outcome']}"
            if outcome in m:  # a full search cut by its budget has no counter
                m[outcome] += 1
            m[f"simplicial.{kind}_nodes"] += a.get("nodes", 0)
            m[f"simplicial.{kind}_s"] += dur
            if kind == "probe" and a["outcome"] == "cut":
                m["simplicial.cut_nodes"] += a.get("nodes", 0)
        elif name == "simplicial.homotopy_classes":
            m["simplicial.homotopy_classes_self_s"] += self_s
        elif name == "simplicial.cover_nerve":
            m["simplicial.cover_nerve_s"] += dur
        elif name == "xnerve.match_wbar_duskin":
            m["xnerve.match_calls"] += 1
            m["xnerve.match_nodes"] += a.get("nodes", 0)
            m["xnerve.match_s"] += dur
            match_self += self_s
        elif name in ("xnerve.build_duskin", "xnerve.build_nerve",
                      "twist.build_wbar"):
            m[name + "_s"] += dur
        elif name == "twist.classify_bundles":
            m["twist.classify_bundles_s"] += dur
            m["twist.twistings"] += a.get("twistings", 0)
        elif name == "gerbe.enumerate_cocycles":
            m["gerbe.cocycles"] += a.get("cocycles", 0)
            m["gerbe.enumerate_s"] += dur
        elif name == "gerbe.classify_gerbes":
            m["gerbe.orbit_bfs_s"] += self_s
        elif name == "gerbe.cocycle_to_simplicial_map":
            m["gerbe.extend_calls"] += 1
            m["gerbe.extend_nodes"] += a.get("nodes", 0)
            m["gerbe.extend_s"] += dur
        elif name == "gerbe.lift_gerbe":
            m["gerbe.lift_calls"] += 1
            m["gerbe.lift_nodes"] += a.get("nodes", 0)
            m["gerbe.lift_self_s"] += self_s
        elif name == "gerbe.abelian_oracle":
            m["gerbe.oracle_calls"] += 1
            m["gerbe.oracle_s"] += dur
        elif name in ("fingroup.derived", "fingroup.kernel_image",
                      "intlinalg.homology", "intlinalg.snf",
                      "intlinalg.solve_mod", "util.pmap"):
            m[name + "_calls"] += 1
            m[name + "_s"] += dur
        elif name == "gauge.run_case":
            m[f"gauge.case_s.{a['case']}"] += dur
        elif name == "cli.parse":
            # a child of cli.main, but of the cli layer itself
            m["cli.parse_s"] += dur
            m["cli.self_s"] += self_s
        elif name == "cli.main":
            m["cli.self_s"] += self_s
    searched = m["simplicial.probe_s"] + m["simplicial.full_s"]
    if searched > 0:
        m["simplicial.nodes_per_s"] = (m["simplicial.probe_nodes"]
                                       + m["simplicial.full_nodes"]) / searched
    if m["simplicial.probe_calls"]:
        m["simplicial.probe_decided_ratio"] = (
            1.0 - m["simplicial.probe_cut"] / m["simplicial.probe_calls"])
    if match_self > 0:
        m["xnerve.match_nodes_per_s"] = m["xnerve.match_nodes"] / match_self
    return m
