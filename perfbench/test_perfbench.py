"""Checks of the benchmark itself (not part of the tier-1 suite).

Run with::

    python3 -m pytest perfbench -q
"""

import os
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402  (needs src/ on the path)
from repro.serve.jobs import Job  # noqa: E402


def _flip_one_element(value):
    """A copy of ``value`` with one bit of one element flipped."""
    array = np.array(value.to_numpy() if hasattr(value, "to_numpy") else value,
                     copy=True)
    flat = array.reshape(-1)
    flat[flat.size // 2:flat.size // 2 + 1].view(np.uint8)[0] ^= 1
    return array


def _corrupt(monkeypatch, name):
    """Make every result of workload ``name`` differ in one element."""
    if name == "sobel-stencil":
        detect = workloads.SobelEdgeDetection.detect
        monkeypatch.setattr(workloads.SobelEdgeDetection, "detect",
                            lambda self, image: _flip_one_element(detect(self, image)))
    elif name == "cold-compile":
        build_and_run = workloads.build_and_run
        monkeypatch.setattr(workloads, "build_and_run",
                            lambda case, fns: _flip_one_element(build_and_run(case, fns)))
    else:
        result = Job.result
        monkeypatch.setattr(Job, "result",
                            lambda self: _flip_one_element(result(self)))


@pytest.fixture
def workdir(tmp_path):
    run.pin_settings(str(tmp_path))
    yield str(tmp_path)
    import repro.skelcl as skelcl

    skelcl.terminate()
    skelcl.configure(reset=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_corrupted_element_counts_as_a_failed_op(workdir, monkeypatch, name):
    workload = workloads.WORKLOADS[name](seed=3, workdir=workdir)
    workload.setup()
    try:
        clean = run.Tally()
        clean.record(workload.step(0))
        assert clean.attempted >= 1 and clean.failed == 0

        _corrupt(monkeypatch, name)
        corrupted = run.Tally()
        corrupted.record(workload.step(1))
        assert corrupted.attempted >= 1
        assert corrupted.failed == corrupted.attempted
    finally:
        workload.close()


def test_exits_nonzero_without_the_sources(tmp_path):
    """Copied alone into an empty directory, the benchmark refuses to run."""
    import shutil
    import subprocess

    copy = tmp_path / "perfbench"
    shutil.copytree(run.HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "sobel-stencil", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
