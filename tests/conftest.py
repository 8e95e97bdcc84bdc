"""Shared strategies and the acceptance-suite reporting hook."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from fullsub import Graph
from fullsub import graph as graph_mod

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 9):
    """A labelled graph: order n, then one boolean per vertex pair."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, picks) if keep])


densities = st.sampled_from(
    [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
     Fraction(3, 4), Fraction(1)]
)

proper_fractions = st.sampled_from(
    [Fraction(a, b) for b in range(2, 8) for a in range(1, b)
     if Fraction(a, b).denominator == b]
)


@pytest.fixture
def memory_max(monkeypatch, tmp_path):
    """Physical memory patched to 2^32 bytes and the cgroup file moved to
    tmp_path, not yet written; returns its path. The limit, read once
    per process, is read afresh in the test and again after it."""
    monkeypatch.setattr(graph_mod.os, "sysconf", lambda name: 1 << 16)
    path = tmp_path / "memory.max"
    monkeypatch.setattr(graph_mod, "_CGROUP_MEMORY_MAX", str(path))
    graph_mod._cgroup_limit.cache_clear()
    yield path
    graph_mod._cgroup_limit.cache_clear()


# ---------------------------------------------------------------------------
# acceptance criteria get one printed PASS/FAIL line each, emitted after
# the run so pytest's capture cannot swallow them

ACCEPTANCE_DETAILS: dict[int, str] = {}

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def record_criterion(number: int, detail: str) -> None:
    ACCEPTANCE_DETAILS[number] = detail


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(report.nodeid)
            if match:
                num = int(match.group(1))
                outcomes[num] = "PASS" if status == "passed" else "FAIL"
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(outcomes):
        detail = ACCEPTANCE_DETAILS.get(num, "")
        suffix = f" - {detail}" if detail else ""
        terminalreporter.write_line(f"criterion {num}: {outcomes[num]}{suffix}")
