"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each test prints `ACCEPTANCE k: PASS/FAIL (detail)` on the real stdout
(bypassing capture) so the line is visible in live runs, then asserts.
Tolerances and time caps are pinned in the assertions themselves.
"""

import time

from xmodgerbe.fingroup import (cokernel, cyclic_group, groups_isomorphic,
                                kernel, symmetric_group,
                                validate_crossed_module, xmod_mod,
                                derived_crossed_modules)
from xmodgerbe.gauge import conjugation_T_samples, run_case
from xmodgerbe.gerbe import (abelian_oracle, classify_gerbes,
                             cocycle_to_simplicial_map, enumerate_cocycles,
                             lift_gerbe)
from xmodgerbe.simplicial import (circle, circle_cover,
                                  constant_simplicial_group, cover_nerve,
                                  homotopy_classes, moore_homotopy,
                                  sphere_cover, validate_map,
                                  validate_simplicial)
from xmodgerbe.twist import build_twisted_product, classify_bundles
from xmodgerbe.util import Budget
from xmodgerbe.xnerve import build_nerve, match_wbar_duskin

import conftest
from _oracles import scan_sigma_bar, scan_xmod_axioms
from test_fingroup import _invalid_examples


def _line(k: int, ok: bool, detail: str) -> None:
    msg = f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(msg)
    print(msg)


def test_criterion_01_axioms_validator_vs_scan(corpus):
    cases = [(xm, True) for xm in corpus] + \
            [(xm, False) for xm in _invalid_examples()]
    assert len(cases) >= 10
    assert sum(1 for _, good in cases if not good) >= 2
    worst = 0.0
    agree = True
    for xm, good in cases:
        t0 = time.perf_counter()
        v = validate_crossed_module(xm).ok
        s = scan_xmod_axioms(xm) == []
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        agree = agree and v == s == good
    ok = agree and worst < 1.0
    _line(1, ok, f"{len(cases)} presets, worst {worst * 1e3:.0f} ms")
    assert agree
    assert worst < 1.0


def test_criterion_02_twisted_products(twisting_corpus):
    total = sum(len(ts) for _, _, ts in twisting_corpus)
    assert total >= 50
    t0 = time.perf_counter()
    all_ok = True
    for base, sg, ts in twisting_corpus:
        for t in ts:
            tp = build_twisted_product(t)
            all_ok = (all_ok and tp.report.ok
                      and validate_simplicial(tp.total).ok
                      and scan_sigma_bar(tp) == [])
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 10.0
    _line(2, ok, f"{total} twistings, {dt:.2f} s")
    assert all_ok
    assert dt < 10.0


def test_criterion_03_bundle_classes_circle():
    t0 = time.perf_counter()
    x = circle(2)
    s3 = classify_bundles(x, constant_simplicial_group(symmetric_group(3), 2))
    z4 = classify_bundles(x, constant_simplicial_group(cyclic_group(4), 2))
    dt = time.perf_counter() - t0
    counts_ok = (len(s3.twisting_classes) == len(s3.map_classes) == 3
                 and s3.bijection_ok
                 and len(z4.twisting_classes) == len(z4.map_classes) == 4
                 and z4.bijection_ok)
    ok = counts_ok and dt < 30.0
    _line(3, ok, f"S3: {len(s3.twisting_classes)}, Z4: "
                 f"{len(z4.twisting_classes)}, {dt:.2f} s")
    assert counts_ok
    assert dt < 30.0


def test_criterion_04_nerve_homotopy(corpus):
    assert len(corpus) >= 10
    t0 = time.perf_counter()
    all_ok = True
    for xm in corpus:
        n = build_nerve(xm, 2)
        pi0 = moore_homotopy(n, 0)
        pi1 = moore_homotopy(n, 1)
        coker, _ = cokernel(xm.alpha)
        ker, _ = kernel(xm.alpha)
        all_ok = (all_ok and groups_isomorphic(pi0, coker)
                  and groups_isomorphic(pi1, ker))
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 10.0
    _line(4, ok, f"{len(corpus)} modules, {dt:.2f} s")
    assert all_ok
    assert dt < 10.0


def test_criterion_05_model_match(corpus):
    small = [xm for xm in corpus if xm.H.order * xm.D.order <= 16]
    assert small
    worst = 0.0
    all_ok = True
    for xm in small:
        t0 = time.perf_counter()
        m = match_wbar_duskin(xm, N=3, budget=Budget(what="match"))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        good = m.wbar.sizes == m.duskin.sizes and validate_map(m.iso).ok
        all_ok = all_ok and good and dt < 120.0
    ok = all_ok and worst < 120.0
    _line(5, ok, f"{len(small)} modules, worst {worst:.2f} s")
    assert all_ok


def test_criterion_06_gerbe_classes(gerbe_runs, bundle_counts):
    z2 = cyclic_group(2)
    expected = {
        "sphere-z2": abelian_oracle(sphere_cover(4), z2, 2).order,
        "circle-z2": abelian_oracle(circle_cover(3), z2, 2).order,
        "circle-s3": len(bundle_counts["S3"].twisting_classes),
    }
    assert expected["sphere-z2"] == 2
    assert expected["circle-s3"] == 3
    worst = 0.0
    all_ok = True
    details = []
    for label, (cover, xm, _) in gerbe_runs.items():
        t0 = time.perf_counter()
        cl = classify_gerbes(cover, xm)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        good = len(cl.classes) == expected[label] and cl.exhaustive
        all_ok = all_ok and good and dt < 120.0
        details.append(f"{label}={len(cl.classes)}")
    ok = all_ok and worst < 120.0
    _line(6, ok, ", ".join(details) + f", worst {worst:.2f} s")
    assert all_ok


def test_criterion_07_map_route_reproduces_counts(gerbe_runs):
    all_ok = True
    details = []
    for label, (cover, xm, cl) in gerbe_runs.items():
        match = match_wbar_duskin(xm, N=3, budget=Budget(what="match"))
        nerve = cover_nerve(cover, 3)
        maps = [cocycle_to_simplicial_map(c, match, nerve=nerve,
                                          budget=Budget(what="ext")).wbar_map
                for c in cl.cocycles]
        classes, _ = homotopy_classes(maps, budget=Budget(what="h"))
        good = len(classes) == len(cl.classes)
        all_ok = all_ok and good
        details.append(f"{label}: {len(classes)}=={len(cl.classes)}")
    _line(7, all_ok, ", ".join(details))
    assert all_ok


def test_criterion_08_lift_vs_obstruction():
    target = xmod_mod(4, 2)
    base = derived_crossed_modules(target)["image-in-base"]
    ker_group, _ = kernel(target.alpha)
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for cover, want_inv in ((sphere_cover(4), []), (sphere_cover(5), [2])):
        cocycles = enumerate_cocycles(cover, base)
        results = [lift_gerbe(c, target) for c in cocycles]
        oracle = abelian_oracle(cover, ker_group, 3)
        good = (all(r.agreement for r in results)
                and all(r.lifted and r.obstruction_zero for r in results)
                and oracle.invariants == want_inv)
        all_ok = all_ok and good
        details.append(f"{cover.charts} charts: {len(results)} lift, "
                       f"H3 {oracle.invariants}")
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 300.0
    _line(8, ok, "; ".join(details) + f", {dt:.1f} s")
    assert all_ok
    assert dt < 300.0


def test_criterion_09_gauge_residuals():
    t0 = time.perf_counter()
    strict = {}
    for name in ("trivial", "u1-circle-pair", "u1-circle-three"):
        out = run_case(name)
        strict[name] = max(r["max"] for r in out["residuals"].values())
    strict_ok = all(v < 1e-6 for v in strict.values())
    wide_ok = all(run_case(n)["passed"]
                  for n in ("u1-torus-three", "u1-sphere-monopole"))
    coarse = run_case("u1-circle-pair", step=1e-3)
    fine = run_case("u1-circle-pair", step=5e-4)
    ratio = (coarse["residuals"]["connection"]["max"]
             / fine["residuals"]["connection"]["max"])
    t_res = conjugation_T_samples(samples=100, seed=11)
    t_ok = t_res.max() < 1e-6
    dt = time.perf_counter() - t0
    ok = strict_ok and wide_ok and ratio >= 3.5 and t_ok and dt < 30.0
    _line(9, ok, f"worst strict {max(strict.values()):.2e}, halving x{ratio:.2f}, "
                 f"T {t_res.max():.2e}, {dt:.1f} s")
    assert strict_ok
    assert wide_ok
    assert ratio >= 3.5
    assert t_ok
    assert dt < 30.0


def test_criterion_10_determinism(capsys):
    from xmodgerbe.cli import main
    workloads = [
        ("classify-bundles", "--sset", "circle", "--group", "symmetric:3"),
        ("classify-bundles", "--sset", "circle", "--group", "cyclic:4"),
        ("gerbe-classify", "--cover", "sphere:4", "--xmod", "xmod_fiber:cyclic:2"),
        ("gerbe-classify", "--cover", "circle:3", "--xmod", "xmod_fiber:cyclic:2"),
        ("gerbe-classify", "--cover", "circle:3", "--xmod", "xmod_base:symmetric:3"),
        ("lift", "--cover", "sphere:4", "--xmod", "xmod_mod:4:2"),
        ("lift", "--cover", "sphere:5", "--xmod", "xmod_mod:4:2"),
    ]
    all_ok = True
    for argv in workloads:
        outs = []
        codes = []
        for jobs in ("1", "8"):
            code = main(list(argv) + ["--format", "json", "--jobs", jobs])
            captured = capsys.readouterr()
            outs.append(captured.out.encode())
            codes.append(code)
        same = outs[0] == outs[1] and codes[0] == codes[1] == 0
        all_ok = all_ok and same
    _line(10, all_ok, f"{len(workloads)} workloads x (jobs 1 vs 8)")
    assert all_ok
