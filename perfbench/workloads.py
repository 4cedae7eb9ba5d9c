"""The benchmark's workloads and the verdict gate for their reports.

Every expected value below comes from mathematics or from the acceptance
criteria of the package, never from running the code under test:

* gerbe classes are |H^2(X; H)| * |H^1(X; D)| when the abelian oracle
  applies (circle:3 is S^1, ball:3 is contractible), and the number of
  conjugacy classes of S_3, i.e. of homomorphisms pi_1(S^1) -> S_3 up to
  conjugacy, for 1 -> S_3 on the circle;
* principal bundles over the circle are counted by conjugacy classes of
  the structure group: 3 for S_3, 4 for Z_4;
* the lift target Z_4 -> Z_2 has image module Z_2 -> Z_2, whose cocycles on
  sphere:k are the 2^(k choose 2) edge labellings (64 for k = 4, 1024 for
  k = 5), all of which lift; the obstruction group is H^3(X; Z_2): 0 on
  S^2, Z_2 on S^3.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation of a workload.

    ``args`` are the CLI arguments; the value ``{xmod}`` stands for the
    crossed module ``xmod`` (a preset spec at seed 0, a relabelled JSON
    file otherwise).  ``expect`` maps report fields to expected values and
    ``same_bytes_as`` names an invocation whose stdout must be identical.
    """

    key: str
    args: tuple[str, ...]
    expect: dict
    xmod: str | None = None
    same_bytes_as: str | None = None
    oracles: dict = field(default_factory=dict)

    @property
    def bytes_key(self) -> str:
        """Invocations with the same bytes key must print the same bytes."""
        return self.same_bytes_as or self.key


def _classify(key, cover, xmod, classes, abelian):
    return Invocation(
        key, ("gerbe-classify", "--cover", cover, "--xmod", "{xmod}"),
        {"classes": classes}, xmod=xmod,
        oracles={"abelian": abelian, "map_homotopy": True})


def _lift(key, cover, cocycles, invariants, jobs, same_bytes_as=None):
    return Invocation(
        key, ("lift", "--cover", cover, "--xmod", "{xmod}", "--jobs", str(jobs)),
        {"cocycles": cocycles, "lifted": cocycles, "all_lift": True,
         "h3_kernel_invariants": invariants},
        xmod="xmod_mod:4:2", same_bytes_as=same_bytes_as,
        oracles={"obstruction": True})


def _bundles(key, group, classes):
    return Invocation(
        key, ("classify-bundles", "--sset", "circle", "--group", group),
        {"twisting_classes": classes, "map_classes": classes,
         "bijection": True}, oracles={"route_match": True})


def _duskin(key, xmod, *extra):
    return Invocation(key, ("duskin-compare", "--xmod", "{xmod}") + extra,
                      {"found": True, "equal_sizes": True}, xmod=xmod)


WORKLOADS = {
    "homotopy": [
        _classify("circle-s3", "circle:3", "xmod_base:symmetric:3", 3, False),
        _classify("circle-z2", "circle:3", "xmod_fiber:cyclic:2", 1, True),
        _classify("ball-z3", "ball:3", "xmod_fiber:cyclic:3", 1, True),
    ],
    "model-match": [
        _duskin("duskin-mod84", "xmod_mod:8:4"),
        _bundles("bundles-s3", "symmetric:3", 3),
        _bundles("bundles-z4", "cyclic:4", 4),
    ],
    "lift-gauge": [
        _lift("lift-sphere4", "sphere:4", 64, [], 1),
        _lift("lift-sphere5-j1", "sphere:5", 1024, [2], 1),
        _lift("lift-sphere5-j2", "sphere:5", 1024, [2], 2,
              same_bytes_as="lift-sphere5-j1"),
        Invocation("gauge-all", ("gauge-verify", "--case", "all"),
                   {"passed": True}),
    ],
}


def _fields(report: dict) -> dict:
    """The verdict-bearing fields of a report, flattened."""
    res = dict(report.get("results", {}))
    if "wbar_sizes" in res:
        res["equal_sizes"] = res["wbar_sizes"] == res.get("duskin_sizes")
    ob = report.get("oracles", {}).get("obstruction", {})
    if "h3_kernel_invariants" in ob:
        res["h3_kernel_invariants"] = ob["h3_kernel_invariants"]
    return res


def _oracle_problems(oracles: dict, expected: dict) -> list[str]:
    out = []
    for name, applies in expected.items():
        o = oracles.get(name, {})
        ran = o.get("applicable", o.get("checked", o.get("emitted", True)))
        if ran is not applies:
            out.append(f"oracle {name}: applicable={ran}, expected {applies}")
        elif applies and o.get("agree") is not True:
            out.append(f"oracle {name} does not agree")
    return out


def verdict_problems(inv: Invocation, exit_code: int, stdout: bytes,
                     earlier: dict[str, bytes]) -> list[str]:
    """Why an invocation failed; an empty list means it passed.

    It fails on a non-zero exit code, a report field or oracle verdict that
    differs from the expected value, or stdout bytes that differ from the
    first bytes seen in the run for its ``bytes_key``; ``earlier`` maps
    bytes keys to those first bytes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    got = _fields(report)
    for k, v in inv.expect.items():
        if got.get(k) != v:
            problems.append(f"{k} = {got.get(k)!r}, expected {v!r}")
    problems += _oracle_problems(report.get("oracles", {}), inv.oracles)
    if earlier.get(inv.bytes_key, stdout) != stdout:
        problems.append(f"stdout bytes differ from earlier {inv.bytes_key}")
    return problems
