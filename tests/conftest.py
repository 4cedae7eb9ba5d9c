"""Shared fixtures: the module corpus and the heavier classification runs
are computed once per session and reused by the unit and acceptance tests."""

from __future__ import annotations

import pytest
from hypothesis import settings

from xmodgerbe.fingroup import (cyclic_group, dihedral_group, preset_corpus,
                                symmetric_group, xmod_trivial_base,
                                xmod_trivial_fiber)
from xmodgerbe.gerbe import classify_gerbes
from xmodgerbe.simplicial import (circle, circle_cover, constant_simplicial_group,
                                  delta1, sphere_cover)
from xmodgerbe.twist import classify_bundles, enumerate_twistings
from xmodgerbe.util import Budget


# Property tests replay the same examples on every run and stay cheap.
settings.register_profile("xmodgerbe", derandomize=True, max_examples=8,
                          deadline=None, database=None)
settings.load_profile("xmodgerbe")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus():
    return preset_corpus()


@pytest.fixture(scope="session")
def twisting_corpus():
    """(base, group, twistings) triples; >= 50 twistings in total."""
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              cyclic_group(6), symmetric_group(3), dihedral_group(4)]
    out = []
    for base in (circle(2), delta1(2)):
        for g in groups:
            sg = constant_simplicial_group(g, 2)
            ts = enumerate_twistings(base, g=sg,
                                     budget=Budget(what="twisting corpus"))
            out.append((base, sg, ts))
    return out


@pytest.fixture(scope="session")
def bundle_counts():
    """Bundle classifications over the minimal circle (both routes)."""
    x = circle(2)
    out = {}
    for name, g in (("S3", symmetric_group(3)), ("Z4", cyclic_group(4))):
        sg = constant_simplicial_group(g, 2)
        out[name] = classify_bundles(x, sg)
    return out


@pytest.fixture(scope="session")
def gerbe_runs():
    """The three reference classification instances used repeatedly."""
    runs = {
        "sphere-z2": (sphere_cover(4), xmod_trivial_fiber(cyclic_group(2))),
        "circle-z2": (circle_cover(3), xmod_trivial_fiber(cyclic_group(2))),
        "circle-s3": (circle_cover(3), xmod_trivial_base(symmetric_group(3))),
    }
    return {k: (cover, xm, classify_gerbes(cover, xm))
            for k, (cover, xm) in runs.items()}
