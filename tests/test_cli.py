"""End-to-end command-line behavior, run in process through main()."""

import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time

import pytest

import xmodgerbe
from xmodgerbe.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_xmod_check_preset_ok(capsys):
    code, out, err = run_cli(capsys, "xmod-check", "xmod_mod:4:2",
                             "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["valid"] is True
    assert payload["results"]["violations"] == []


def test_xmod_check_invalid_file_exit_1(capsys, tmp_path):
    # identity alpha on S3 with the trivial action violates Peiffer
    from xmodgerbe.fingroup import (symmetric_group, trivial_action, GroupHom,
                                    CrossedModule, xmod_to_json)
    s3 = symmetric_group(3)
    import numpy as np
    bad = CrossedModule(s3, s3,
                        GroupHom(s3, s3, np.arange(6), name="id"),
                        trivial_action(s3, s3), name="bad")
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(xmod_to_json(bad)))
    code, out, err = run_cli(capsys, "xmod-check", str(p), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["results"]["valid"] is False
    assert any("peiffer" in v for v in payload["results"]["violations"])


def test_xmod_check_malformed_json_exit_2(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, out, err = run_cli(capsys, "xmod-check", str(p))
    assert code == 2


def test_xmod_check_unknown_preset_exit_2(capsys):
    code, out, err = run_cli(capsys, "xmod-check", "xmod_nonsense:7")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("classify-bundles", "--sset", "circle", "--group",
     "product:cyclic:2:cyclic:3"),
    ("xmod-check", "xmod_id:product:cyclic:2:cyclic:3"),
], ids=["group", "xmod-id"])
def test_product_spec_is_a_usage_error(capsys, argv):
    # no spec names a direct product; this one once ended in an IndexError
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


NOT_AN_XMOD = ("names a group, not a crossed module; use xmod_mod:m:n, "
               "xmod_id:<group>, xmod_aut:<group>, xmod_fiber:<group>, "
               "xmod_base:<group> or a JSON file")
NOT_A_GROUP = ("names a crossed module, not a group; use cyclic:n, dihedral:n, "
               "symmetric:n or trivial")


@pytest.mark.parametrize("argv, line", [
    (("xmod-check", "xmod_id:product:cyclic:2:cyclic:3"),
     "error: unknown preset 'product'"),
    (("xmod-check", "xmod_fiber:nonsense:x"), "error: unknown preset 'nonsense'"),
    (("xmod-check", "xmod_id:cyclic:x"),
     "error: 'cyclic:x' has a parameter that is not an integer"),
    (("xmod-check", "xmod_mod:4:x"),
     "error: 'xmod_mod:4:x' has a parameter that is not an integer"),
    (("classify-bundles", "--sset", "circle", "--group", "symmetric:3.0"),
     "error: 'symmetric:3.0' has a parameter that is not an integer"),
    (("xmod-check", "xmod_mod:4:2:9"),
     "error: 'xmod_mod:4:2:9' has too many parameters; xmod_mod takes 2"),
    (("xmod-check", "xmod_id:cyclic:3:4"),
     "error: 'cyclic:3:4' has too many parameters; cyclic takes 1"),
    (("xmod-check", "xmod_base:trivial:5"),
     "error: 'trivial:5' has too many parameters; trivial takes 0"),
    (("classify-bundles", "--sset", "circle", "--group", "cyclic:4:7"),
     "error: 'cyclic:4:7' has too many parameters; cyclic takes 1"),
    (("xmod-check", "xmod_mod:2:0"), "error: cyclic order must be >= 1"),
    (("gerbe-classify", "--cover", "circle:3", "--xmod", "cyclic:2"),
     "error: 'cyclic:2' " + NOT_AN_XMOD),
    (("lift", "--cover", "sphere:4", "--xmod", "symmetric:3"),
     "error: 'symmetric:3' " + NOT_AN_XMOD),
    (("duskin-compare", "--xmod", "trivial"), "error: 'trivial' " + NOT_AN_XMOD),
    (("classify-bundles", "--sset", "circle", "--group", "xmod_mod:4:2"),
     "error: 'xmod_mod:4:2' " + NOT_A_GROUP),
    (("classify-bundles", "--sset", "circle", "--group", "xmod_fiber:cyclic:2"),
     "error: 'xmod_fiber:cyclic:2' " + NOT_A_GROUP),
    (("xmod-check", "xmod_id:xmod_mod:4:2"), "error: 'xmod_mod:4:2' " + NOT_A_GROUP),
    (("gerbe-classify", "--cover", "sphere:4:9", "--xmod",
      "xmod_fiber:cyclic:2"),
     "error: 'sphere:4:9' has too many parameters; sphere takes 1"),
    (("gerbe-classify", "--cover", "ball:3:", "--xmod",
      "xmod_fiber:cyclic:2"),
     "error: 'ball:3:' has too many parameters; ball takes 1"),
    (("gerbe-classify", "--cover", "circle:x", "--xmod",
      "xmod_fiber:cyclic:2"),
     "error: 'circle:x' has a parameter that is not an integer"),
], ids=["nested-unknown", "nested-unknown-word", "nested-not-int",
        "xmod-not-int", "group-not-int", "xmod-extra", "nested-extra",
        "trivial-extra", "group-extra", "xmod-mod-zero", "xmod-is-cyclic",
        "xmod-is-symmetric", "xmod-is-trivial", "group-is-xmod-mod",
        "group-is-xmod-fiber", "nested-is-xmod", "cover-extra",
        "cover-empty-extra", "cover-not-int"])
def test_bad_spec_names_itself(capsys, argv, line):
    # a nested unknown name or a cover parameter that is not an integer once
    # read as "invalid literal for int()", parameters past a preset's or a
    # cover's last one were once ignored, a zero modulus once raised
    # ZeroDivisionError, and a group given for a crossed module (or the
    # other way round) once ended in an AttributeError or TypeError
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", line + "\n")


def test_every_exported_name_is_defined():
    for info in pkgutil.iter_modules(xmodgerbe.__path__):
        module = importlib.import_module(f"xmodgerbe.{info.name}")
        missing = [n for n in getattr(module, "__all__", [])
                   if not hasattr(module, n)]
        assert missing == [], module.__name__


def test_gerbe_classify_counts_and_out(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, out, err = run_cli(capsys, "gerbe-classify",
                             "--cover", "circle:3", "--xmod", "xmod_base:symmetric:3",
                             "--format", "json", "--out", str(out_dir))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["classes"] == 3
    assert payload["results"]["cocycles"] == 216
    assert payload["exhaustive"] is True
    files = list(out_dir.iterdir())
    assert len(files) == 1
    reps = json.loads(files[0].read_text())
    assert len(reps) == 3
    # digests recorded while the representatives were still written by
    # stripping the cover and the crossed module off a fuller JSON form
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "cac7485e4de2527eef189169febf30d42bc7b703555dfb1f65fc9c3385a44c1d"
    assert hashlib.sha256(files[0].read_bytes()).hexdigest() == \
        "92816f01e4ab9d21ef579022e87fa1e9d40f9ec99bcd8dc2fbb6d3ea2825a3fa"


def test_gerbe_classify_cache_round_trip(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ("gerbe-classify", "--cover", "circle:3", "--xmod", "xmod_base:cyclic:4",
            "--format", "json", "--cache-dir", str(cache))
    code1, out1, err1 = run_cli(capsys, *argv)
    assert code1 == 0
    assert "cache hit" not in err1
    assert len(list(cache.iterdir())) == 1
    code2, out2, err2 = run_cli(capsys, *argv)
    assert code2 == 0
    assert out2 == out1
    assert "cache hit" in err2


def test_cache_entry_of_an_older_format_is_a_miss(capsys, tmp_path,
                                                  monkeypatch):
    # format 3 entries may hold a map-homotopy check skipped beyond an
    # order cap that is gone, so they must not be served
    from xmodgerbe import cli
    argv = ("gerbe-classify", "--cover", "circle:3", "--xmod",
            "xmod_fiber:cyclic:2", "--format", "json", "--cache-dir",
            str(tmp_path))
    monkeypatch.setattr(cli, "CACHE_FORMAT", 3)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.undo()
    assert cli.CACHE_FORMAT == 4
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and "cache hit" not in err
    assert "cache hit" in run_cli(capsys, *argv)[2]


@pytest.mark.parametrize("cover, xmod, classes, flags", [
    ("circle:3", "xmod_base:symmetric:3", 3, ()),
    ("circle:3", "xmod_fiber:cyclic:2", 1, ()),
    ("ball:3", "xmod_fiber:cyclic:3", 1, ()),
    ("sphere:4", "xmod_fiber:cyclic:2", 2, ()),
    ("sphere:4", "xmod_fiber:cyclic:3", 3, ()),
    ("sphere:4", "xmod_aut:cyclic:3", 2, ()),
    ("sphere:4", "xmod_mod:4:2", 2, ()),
    ("circle:3", "xmod_id:symmetric:3", 1, ("--force",)),
    ("circle:3", "xmod_aut:symmetric:3", 1, ("--force",)),
    ("circle:3", "xmod_mod:8:4", 1, ("--force",)),
], ids=["circle3-S3", "circle3-Z2", "ball3-Z3", "sphere4-Z2", "sphere4-Z3",
        "sphere4-autZ3", "sphere4-mod4:2", "circle3-idS3-forced",
        "circle3-autS3-forced", "circle3-mod8:4-forced"])
def test_map_homotopy_checks_and_agrees(capsys, cover, xmod, classes, flags):
    # conjugacy classes of S3 on the circle, H^2(S^2; H) for H -> 1, and
    # the witness-orbit count for the modules no other oracle covers; the
    # sphere:4 rows after the first ran out of budget on the prism route,
    # and the forced rows (|H||D| > 16) were once left unchecked
    code, out, _ = run_cli(capsys, "gerbe-classify", "--cover", cover,
                           "--xmod", xmod, "--format", "json", *flags)
    report = json.loads(out)
    assert code == 0 and report["results"]["classes"] == classes
    assert report["oracles"]["map_homotopy"] == {
        "checked": True, "classes": classes, "agree": True}


def test_map_homotopy_names_its_budget_and_a_disagreement_exits_1(
        capsys, monkeypatch):
    # with the order cap gone, a forced run whose classification fits the
    # budget but whose W-bar does not says so; a contradicted count exits 1
    from xmodgerbe import cli
    argv = ("gerbe-classify", "--cover", "circle:3", "--xmod", "xmod_mod:8:4",
            "--force", "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--budget", "5000")
    check = json.loads(out)["oracles"]["map_homotopy"]
    assert code == 0 and check["checked"] is False
    assert check["reason"].startswith("budget: Wbar(N(Z8->Z4)) level 3 has "
                                      "32768 simplices")
    monkeypatch.setattr(cli, "_gauge_classes", lambda *args: (None, [[0], [1]]))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["oracles"]["map_homotopy"] == {
        "checked": True, "classes": 2, "agree": False}


def _classify_cached(capsys, cover_file, cache):
    code, out, err = run_cli(capsys, "gerbe-classify", "--cover", str(cover_file),
                             "--xmod", "xmod_base:cyclic:2", "--format", "json",
                             "--cache-dir", str(cache))
    assert code == 0
    return json.loads(out)["results"]["classes"], err


def test_gerbe_classify_cache_follows_input_file_content(capsys, tmp_path):
    from xmodgerbe.simplicial import ball_cover, circle_cover
    cov = tmp_path / "cov.json"
    cache = tmp_path / "cache"
    cov.write_text(json.dumps(circle_cover(3).to_json()))
    assert _classify_cached(capsys, cov, cache)[0] == 2
    cov.write_text(json.dumps(ball_cover(3).to_json()))
    classes, err = _classify_cached(capsys, cov, cache)
    assert "cache hit" not in err
    assert classes == 1


def test_gerbe_classify_corrupt_cache_entry_is_a_miss(capsys, tmp_path):
    from xmodgerbe.simplicial import circle_cover
    cov = tmp_path / "cov.json"
    cache = tmp_path / "cache"
    cov.write_text(json.dumps(circle_cover(3).to_json()))
    _classify_cached(capsys, cov, cache)
    [entry] = cache.iterdir()
    entry.write_text("{garbage")
    classes, err = _classify_cached(capsys, cov, cache)
    assert classes == 2
    assert "unreadable" in err and "cache hit" not in err
    classes, err = _classify_cached(capsys, cov, cache)
    assert classes == 2
    assert "cache hit" in err


def test_gerbe_classify_cache_hit_still_writes_out(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ("gerbe-classify", "--cover", "circle:3", "--xmod", "xmod_base:cyclic:2",
            "--format", "json", "--cache-dir", str(cache))
    code1, out1, err1 = run_cli(capsys, *argv, "--out", str(tmp_path / "a"))
    code2, out2, err2 = run_cli(capsys, *argv, "--out", str(tmp_path / "b"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache hit" not in err1 and "cache hit" in err2
    [fa] = (tmp_path / "a").iterdir()
    [fb] = (tmp_path / "b").iterdir()
    assert fa.name == fb.name and fa.name.startswith("classes-")
    assert fa.read_bytes() == fb.read_bytes()


@pytest.mark.parametrize("argv", [
    ("lift", "--cover", "sphere:4", "--xmod", "xmod_mod:4:2"),
    ("gerbe-classify", "--cover", "circle:3", "--xmod", "xmod_base:cyclic:2"),
    ("gauge-verify", "--case", "trivial"),
    ("xmod-check", "xmod_mod:4:2"),
])
def test_truncation_rejected_where_unused_exit_2(argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv) + ["--truncation", "4"])
    assert e.value.code == 2


@pytest.mark.parametrize("flag", [("--fd-step", "0.01"), ("--tolerance", "1e-3")],
                         ids=["fd-step", "tolerance"])
@pytest.mark.parametrize("argv", [
    ("lift", "--cover", "sphere:4", "--xmod", "xmod_mod:4:2"),
    ("gerbe-classify", "--cover", "circle:3", "--xmod", "xmod_base:cyclic:2"),
    ("duskin-compare", "--xmod", "xmod_mod:4:2"),
    ("classify-bundles", "--sset", "circle", "--group", "cyclic:2"),
    ("xmod-check", "xmod_mod:4:2"),
], ids=lambda argv: argv[0])
def test_residual_flags_rejected_where_unused_exit_2(argv, flag):
    # only gauge-verify reads --fd-step and --tolerance
    with pytest.raises(SystemExit) as e:
        main(list(argv) + list(flag))
    assert e.value.code == 2


def test_gauge_verify_reads_residual_flags(capsys):
    argv = ("gauge-verify", "--case", "trivial", "--format", "json")
    code, out, _ = run_cli(capsys, *argv, "--fd-step", "0.05",
                           "--tolerance", "1e-3")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["fd_step"], config["tolerance"]) == (0.05, 1e-3)


@pytest.mark.parametrize("argv", [
    ("gauge-verify", "--case", "u1-circle-pair", "--fd-step", "0"),
    ("gauge-verify", "--case", "trivial", "--fd-step", "-1"),
    ("gauge-verify", "--case", "u1-torus-three", "--fd-step", "-0.5"),
    ("gauge-verify", "--case", "trivial", "--fd-step", "nan"),
    ("gauge-verify", "--case", "trivial", "--fd-step", "inf"),
    ("gauge-verify", "--case", "so3-conjugation-T", "--fd-step", "0.1"),
    ("gauge-verify", "--case", "trivial", "--tolerance", "-1"),
    ("gauge-verify", "--case", "trivial", "--tolerance", "nan"),
    ("gauge-verify", "--case", "trivial", "--tolerance", "inf"),
], ids=lambda argv: f"{argv[2]}{argv[3]}={argv[4]}")
def test_bad_residual_flags_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: " + argv[3][2:])


def test_gauge_verify_all_passes_fd_step_to_the_grid_cases(capsys):
    # so3-conjugation-T samples no grid and refuses a step by itself
    # (test_bad_residual_flags_exit_2); --case all takes --fd-step for its
    # grid cases and runs it without one
    def cases(*flags):
        code, out, _ = run_cli(capsys, "gauge-verify", "--case", "all",
                               "--tolerance", "1", "--format", "json", *flags)
        assert code == 0
        return json.loads(out)["results"]["cases"]

    coarse, default = cases("--fd-step", "0.05"), cases()
    assert coarse.keys() == default.keys()
    for name in coarse:
        assert (coarse[name] == default[name]) == (name == "so3-conjugation-T")


def test_zero_tolerance_is_accepted(capsys):
    # the trivial case's residuals are exactly zero
    code, out, _ = run_cli(capsys, "gauge-verify", "--case", "trivial",
                           "--tolerance", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["tolerance"] == 0.0


@pytest.mark.parametrize("argv, form", [
    (("gerbe-classify", "--cover", "circle", "--xmod", "xmod_fiber:cyclic:2"),
     "circle:n"),
    (("lift", "--cover", "sphere", "--xmod", "xmod_mod:4:2"), "sphere:k"),
    (("xmod-check", "xmod_mod:4"), "xmod_mod:m:n"),
    (("xmod-check", "xmod_id"), "xmod_id:<group>"),
    (("xmod-check", "xmod_id:cyclic"), "cyclic:n"),
    (("classify-bundles", "--sset", "circle", "--group", "cyclic"),
     "cyclic:n"),
], ids=["cover-circle", "cover-sphere", "xmod-mod", "xmod-id", "xmod-id-group",
        "group-cyclic"])
def test_spec_missing_a_parameter_exit_2(capsys, argv, form):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"use {form}" in err


def test_gerbe_classify_jobs_do_not_change_output(capsys):
    argv = ("gerbe-classify", "--cover", "circle:3", "--xmod", "xmod_base:symmetric:3",
            "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code8, out8, _ = run_cli(capsys, *argv, "--jobs", "8")
    assert code1 == code8 == 0
    assert out1 == out8
    payload = json.loads(out1)
    assert payload["results"]["classes"] == 3


def test_jobs_start_no_worker_pool(capsys, monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    runs = [(("lift", "--cover", "sphere:5", "--xmod", "xmod_mod:4:2"), "2"),
            (("gerbe-classify", "--cover", "circle:3",
              "--xmod", "xmod_fiber:cyclic:2"), "8")]
    for argv, jobs in runs:
        for fmt in ("table", "json"):
            code1, out1, _ = run_cli(capsys, *argv, "--format", fmt,
                                     "--jobs", "1")
            code_n, out_n, _ = run_cli(capsys, *argv, "--format", fmt,
                                       "--jobs", jobs)
            assert code1 == code_n == 0
            assert out1 == out_n and out1
    code, out, err = run_cli(capsys, *runs[0][0], "--jobs", "0")
    assert code == 2 and out == "" and "jobs must be >= 1" in err


def test_gerbe_classify_guard_exit_3(capsys):
    code, out, err = run_cli(capsys, "gerbe-classify",
                             "--cover", "ball:6", "--xmod", "xmod_id:symmetric:3")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("command", ["gerbe-classify", "lift"])
@pytest.mark.parametrize("cover", ["sphere:30", "json-40"])
def test_cover_closure_over_budget_exit_3(capsys, tmp_path, command, cover):
    # closing these covers under subsets would list 30 (2^29 - 1) and
    # 2^40 - 1 sets; the count is refused before any subset is listed
    if cover == "json-40":
        path = tmp_path / "cover.json"
        path.write_text(json.dumps({"charts": 40,
                                    "intersections": [list(range(40))]}))
        cover = str(path)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--cover", cover,
                             "--xmod", "xmod_fiber:cyclic:2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "budget exhausted: closure of a cover of" in err


def test_duskin_compare_and_out(capsys, tmp_path):
    out_dir = tmp_path / "dict"
    code, out, err = run_cli(capsys, "duskin-compare", "--xmod", "xmod_mod:4:2",
                             "--format", "json", "--out", str(out_dir))
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["found"] is True
    assert payload["results"]["wbar_sizes"] == [1, 2, 16, 512]
    assert payload["results"]["duskin_sizes"] == [1, 2, 16, 512]
    files = list(out_dir.iterdir())
    assert [f.name for f in files] == [payload["results"]["dictionary_file"]]
    art = json.loads(files[0].read_text())
    assert isinstance(art, dict) and art


def test_duskin_compare_bytes_are_pinned(capsys, tmp_path):
    # The isomorphism levels depend on the index order of both models and on
    # the closed form of the dictionary (h_012 = h^-1); the stdout digest was
    # recorded from the per-simplex builders and the dictionary digest from
    # the closed form, so a change to either order shows up here.
    out_dir = tmp_path / "dict"
    code, out, err = run_cli(capsys, "duskin-compare", "--xmod", "xmod_mod:4:2",
                             "--format", "json", "--out", str(out_dir))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c11ca002993a2d74bd9f651d0adaa14f3c43472780c42e775aed00fad89d3663"
    art = (out_dir / "dictionary-Z4-_Z2.json").read_bytes()
    assert hashlib.sha256(art).hexdigest() == \
        "0f639fd5697ac606143470918d5a276fefee7ae91444af784e4f818fe6e510a8"


def test_match_budget_runs_out_inside_the_top_level(capsys):
    # 32,768 of the 32,901 nodes of the engine's first map between the
    # xmod_mod:8:4 models are top-level tries; the last one is the node one
    # budget step short of the search
    from xmodgerbe.fingroup import xmod_mod
    from xmodgerbe.simplicial import _found_maps, _map_spec
    from xmodgerbe.util import Budget, BudgetError
    from xmodgerbe.xnerve import match_wbar_duskin
    m = match_wbar_duskin(xmod_mod(8, 4), 3)

    def search(limit):
        return next(_found_maps(_map_spec(m.wbar, m.duskin), m.duskin,
                                Budget(limit, what="model match"), limit=1))

    with pytest.raises(BudgetError,
                       match="model match: needs ~32901 steps, budget is 32900"):
        search(32_900)
    assert search(32_901).source is m.wbar
    # the command builds its dictionary without a search, so its budget
    # guards only the model sizes: 32,768 simplices at level 3
    argv = ("duskin-compare", "--xmod", "xmod_mod:8:4", "--budget")
    code, out, err = run_cli(capsys, *argv, "32767")
    assert code == 3 and out == ""
    assert "level 3 has 32768 simplices: needs ~32768 steps, " \
           "budget is 32767" in err
    code, out, err = run_cli(capsys, *argv, "32768")
    assert code == 0
    assert "results.found = True" in out


def test_truncation_out_of_range_exit_2(capsys):
    code, out, err = run_cli(capsys, "duskin-compare", "--xmod", "xmod_mod:4:2",
                             "--truncation", "5")
    assert code == 2


def test_oversized_model_exit_3_before_allocation(capsys):
    # each model of id(S3) at N=4 has 6^10 simplices at level 4: the size
    # guard refuses it before anything that size is built
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "duskin-compare", "--xmod",
                             "xmod_id:symmetric:3", "--truncation", "4")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert "level 4 has 60466176 simplices" in err


def test_classify_bundles_s3(capsys):
    code, out, err = run_cli(capsys, "classify-bundles", "--sset", "circle",
                             "--group", "symmetric:3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["twisting_classes"] == 3
    assert payload["results"]["map_classes"] == 3
    assert payload["results"]["bijection"] is True


@pytest.mark.parametrize("case, step, missing", [
    ("u1-torus-three", "10", "no overlap point"),
    ("u1-circle-pair", "3", "no overlap point"),
    ("u1-circle-pair", "20", "no overlap point"),     # once divided by 0
    ("u1-circle-three", "1.5",
     "no valid sample point for connection-overlap[0], connection-triple[0]"),
])
def test_gauge_verify_refuses_a_step_without_samples_exit_2(capsys, case,
                                                           step, missing):
    # each of these runs checked a law of the case on no sample point at
    # all, and passed
    code, out, err = run_cli(capsys, "gauge-verify", "--case", case,
                             "--fd-step", step)
    assert code == 2 and out == ""
    assert err == f"error: gauge case {case}: step {step} leaves {missing}\n"


@pytest.mark.parametrize("argv", [
    ("--fd-step", "1e-5"),          # about 9.5e11 points: never allocated
    ("--budget", "1000"),           # the default step's 945,768 points
], ids=["fd-step", "budget"])
def test_gauge_verify_grids_over_budget_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, "gauge-verify", "--case",
                             "u1-torus-three", *argv)
    assert code == 3 and out == ""
    assert err.startswith("budget exhausted: gauge case u1-torus-three")


@pytest.mark.parametrize("case", ["all", "trivial", "u1-circle-pair",
                                  "u1-circle-three", "u1-torus-three",
                                  "u1-sphere-monopole"])
def test_gauge_verify_subnormal_step_exit_3(capsys, case):
    # span / step is infinite: refused as an oversized grid, not rounded
    code, out, err = run_cli(capsys, "gauge-verify", "--case", case,
                             "--fd-step", "5e-324")
    assert code == 3 and out == ""
    assert err.startswith("budget exhausted: gauge case ")
    assert "Traceback" not in err


def test_gauge_verify_known_and_unknown(capsys):
    code, out, err = run_cli(capsys, "gauge-verify", "--case",
                             "so3-conjugation-T", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["cases"]["so3-conjugation-T"]["passed"] is True
    code2, *_ = run_cli(capsys, "gauge-verify", "--case", "bogus")
    assert code2 == 2


def test_gauge_verify_times_each_case_on_stderr(capsys):
    # one stderr line per case with its elapsed time; stdout is the report
    # alone, and its bytes are the ones recorded before the lines were added
    names = ["trivial", "u1-circle-pair", "u1-circle-three",
             "u1-sphere-monopole", "u1-torus-three", "so3-conjugation-T"]
    code, out, err = run_cli(capsys, "gauge-verify", "--case", "all",
                             "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)["results"]["cases"]) == sorted(names)
    lines = err.splitlines()
    assert len(lines) == len(names) + 1
    for name, line in zip(names, lines):
        head, _, seconds = line.rpartition(" ")
        assert head == f"[gauge-verify] case {name}"
        assert seconds.endswith("s") and float(seconds[:-1]) >= 0
    assert lines[-1].startswith("[gauge-verify] elapsed ")
    code, out, err = run_cli(capsys, "gauge-verify", "--case", "trivial",
                             "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "31479a9a2515515d06de0184c986229ccebbdcdf045ffc92aee079aa11c1d018"
    assert [ln.rpartition(" ")[0] for ln in err.splitlines()] == [
        "[gauge-verify] case trivial", "[gauge-verify] elapsed"]


def test_lift_sphere4_all_lift(capsys):
    code, out, err = run_cli(capsys, "lift", "--cover", "sphere:4",
                             "--xmod", "xmod_mod:4:2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    r = payload["results"]
    assert r["cocycles"] == 64
    assert r["lifted"] == 64
    assert r["all_lift"] is True
    ob = payload["oracles"]["obstruction"]
    assert ob["agree"] is True and ob["emitted"] is True
    assert ob["h3_kernel_invariants"] == []


def test_table_format_has_no_json(capsys):
    code, out, err = run_cli(capsys, "xmod-check", "xmod_id:cyclic:3")
    assert code == 0
    assert not out.lstrip().startswith("{")
    assert "valid" in out


# ---------------------------------------------------------------------------
# each command loads only the package modules it runs


def _fresh(tmp_path, *argv: str) -> subprocess.CompletedProcess:
    """`python *argv` in a new interpreter that finds this package."""
    src = os.path.dirname(os.path.dirname(xmodgerbe.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)


def _modules_after(tmp_path, code: str) -> set:
    """The sys.modules of a new interpreter after it has run `code`."""
    script = ("import contextlib, io, json, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    {code}\n"
              "print(json.dumps(sorted(sys.modules)))")
    return set(json.loads(_fresh(tmp_path, "-c", script).stdout))


def _package(modules: set) -> set:
    return {m for m in modules if m.startswith("xmodgerbe.")}


def test_importing_the_cli_loads_no_numpy(tmp_path):
    loaded = _modules_after(tmp_path, "import xmodgerbe.cli")
    assert "numpy" not in loaded and "multiprocessing" not in loaded
    assert _package(loaded) == {"xmodgerbe.cli", "xmodgerbe.util"}


def test_lift_loads_no_gauge_or_model_modules(tmp_path):
    loaded = _modules_after(tmp_path, "from xmodgerbe import cli; cli.main("
                            "['lift', '--cover', 'sphere:4', '--xmod', "
                            "'xmod_mod:4:2'])")
    assert "xmodgerbe.gerbe" in loaded
    assert not loaded & {"xmodgerbe.gauge", "xmodgerbe.twist",
                         "xmodgerbe.xnerve"}


def test_gauge_verify_loads_only_gauge(tmp_path):
    loaded = _modules_after(tmp_path, "from xmodgerbe import cli; cli.main("
                            "['gauge-verify', '--case', 'trivial'])")
    assert _package(loaded) == {"xmodgerbe.cli", "xmodgerbe.gauge",
                                "xmodgerbe.util"}


def test_cache_written_and_hit_in_fresh_processes(tmp_path):
    argv = ("-m", "xmodgerbe.cli", "gerbe-classify", "--cover", "circle:3",
            "--xmod", "xmod_base:cyclic:2", "--format", "json",
            "--cache-dir", "cache")
    first = _fresh(tmp_path, *argv)
    assert "cache hit" not in first.stderr
    assert len(list((tmp_path / "cache").iterdir())) == 1
    second = _fresh(tmp_path, *argv)
    assert "cache hit" in second.stderr
    assert second.stdout == first.stdout
