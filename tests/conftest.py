"""Shared pytest hooks and fixtures.

* a per-criterion summary for the acceptance suite;
* child processes import the package from this checkout's ``src/``, so tests
  that start ``python -m formalpde`` need no install;
* each test starts with no analysis held (``clear_held``): no symbol record
  (``jetpde._Symbol``: the tower and the Spencer windows of each of the most
  recent symbols), no system record (``jetpde._Analysis``: the walk levels
  from level 0, the base fiber, and their fibers of the most recent system;
  ``jetpde.solution_fiber`` and ``jetpde.symbol_tableau``: its base fiber
  and symbol, cached apart too) and no parse memoised
  (``cli.parse_system``), so a test that breaks an internal meets work done
  under that fault, not work an earlier test left behind.
  `test_jetpde.py` pins that list against every cache in ``jetpde`` and
  ``cli`` but the pure coordinate tables;
* ``count_calls`` wraps a package function in every namespace that holds it,
  or a method on its class.
"""

import os
import re
import sys
from pathlib import Path

import pytest

from formalpde import cli, jetpde

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _children_import_this_checkout(monkeypatch):
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (SRC, inherited))))


HELD = (jetpde._Symbol, jetpde._Analysis, jetpde.solution_fiber, jetpde.symbol_tableau,
        cli.parse_system)


def clear_held():
    """Empty every record held for a symbol or a system, and the parse memo."""
    for cache in HELD:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _no_analysis_held():
    clear_held()


@pytest.fixture
def count_calls(monkeypatch):
    """install(func) -> the list of argument tuples of every later call.

    The wrapper replaces func in every loaded ``formalpde`` module that holds
    it, so calls from any module are seen; a method (``Subspace.reduce_mod``)
    is replaced on its class, and its calls' first argument is the instance.
    """

    def install(func):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)

        owner, _, attr = func.__qualname__.rpartition(".")
        if owner:
            monkeypatch.setattr(getattr(sys.modules[func.__module__], owner), attr, counting)
            return calls
        for name, mod in list(sys.modules.items()):
            if name.startswith("formalpde") and getattr(mod, func.__name__, None) is func:
                monkeypatch.setattr(mod, func.__name__, counting)
        return calls

    return install


_CRITERION_RE = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")
_results: dict[tuple[str, str], bool] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if not match:
        return
    key = (match.group(1), match.group(2))
    if report.when == "call":
        _results[key] = report.passed
    elif report.failed:  # setup or teardown error
        _results[key] = False


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, slug in sorted(_results):
        status = "PASS" if _results[(num, slug)] else "FAIL"
        terminalreporter.write_line(f"[acceptance] criterion {num} {slug}: {status}")
