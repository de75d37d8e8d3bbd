"""The benchmark harness in perfbench/ runs against this package.

Each workload's warm-up ops go through its run and check functions, so a
change that breaks the harness (a renamed function, a curve of the wrong
shape, other CSV columns, other verdicts) fails here, not only in a full
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ordstat
import ordstat.cli
import ordstat.svgplot

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while the class body is processed
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _load_workloads()


def failed_warmup_checks(name, tmp_path, monkeypatch, cycles=1):
    # the harness writes its outputs under a path relative to the cwd
    monkeypatch.chdir(tmp_path)
    work = Path("work")
    work.mkdir()
    workload = WORKLOADS.make_workload(name, 0)
    inputs = workload.warmup(ordstat, work)
    assert inputs
    failed = []
    for inp in inputs * cycles:
        out = workload.run(ordstat, inp)
        failed += [(inp[0], check) for check in workload.check(ordstat, inp, out)]
    return failed


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_warmup_ops_pass_their_checks(name, tmp_path, monkeypatch):
    assert not failed_warmup_checks(name, tmp_path, monkeypatch)


def test_certify_checks_hold_on_curves_split_into_passes(tmp_path, monkeypatch):
    # 99 unit-point elements a pass: each side of the warm-up's 1000-point
    # grids spans tens of passes, the last of them ragged
    monkeypatch.setattr(ordstat.orderstats, "_BLOCK", 99)
    assert not failed_warmup_checks("certify", tmp_path, monkeypatch)


def test_reproduce_warmup_passes_twice_in_one_process(tmp_path, monkeypatch):
    # the second cycle reuses the parser, the default grid and its u,x cells
    # that the first one built, as the harness's timed loop does
    assert not failed_warmup_checks("reproduce", tmp_path, monkeypatch, cycles=2)
