"""Tests of the benchmark itself: layer coverage, transparency, fingerprints.

    python3 -m pytest perfbench -q

The workloads run here at a reduced size (few epochs, short runs); the code
paths, the tracer and the checks are the ones the benchmark uses.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from spans import GROUPS, Tracer  # noqa: E402

SMALL = {"epochs": 2, "duration_s": 2.0}

# Layers each workload must reach, and layers it must bypass.
EXERCISED = {
    "suite": (
        "nncore.forward", "nncore.backward", "nncore.step", "dynamics.train",
        "dynamics.predict", "dynamics.eval", "dynamics.csv", "plant.generate_dataset",
        "plant.make_observation", "plant.true_wrench", "harness.run_ablation_suite",
    ),
    "closed_loop": (
        "nncore.forward", "nncore.backward", "nncore.step", "dynamics.train",
        "dynamics.predict", "dynamics.affine_at", "allocator.solve",
        "allocator.track_sequence", "plant.make_observation", "plant.true_wrench",
        "plant.true_affine_terms", "harness.closed_loop_run", "harness.make_target_sequence",
    ),
    "sensing": (
        "nncore.forward", "nncore.backward", "nncore.step", "plant.generate_dataset",
        "plant.make_observation", "plant.true_wrench", "plant.probe_pressures",
        "probe.train_calibration", "probe.estimate_flow", "probe.normalize", "probe.csv",
    ),
}
BYPASSED = {
    "suite": [g for g in GROUPS if g.startswith(("allocator.", "probe."))]
    + ["harness.closed_loop_run"],
    "closed_loop": [g for g in GROUPS if g.startswith("probe.")],
    "sensing": [g for g in GROUPS if g.startswith("allocator.")],
}
# Functions other modules import by name; a wrapper must replace these too.
BY_NAME = (
    "aeroalloc.dynamics.forward", "aeroalloc.dynamics.backward",
    "aeroalloc.allocator.predict", "aeroalloc.allocator.affine_at",
    "aeroalloc.harness.track_sequence", "aeroalloc.harness.train_dynamics",
    "aeroalloc.harness.train_unstructured", "aeroalloc.harness.eval_rmse",
    "aeroalloc.harness.per_channel_rmse", "aeroalloc.harness.symmetry_residual_norm",
)


def _traced(workload, tmp_path, seed=0):
    return run.run_workload(workload, seed, 0.0, True, tmp_path, **SMALL)


def test_wrappers_replace_by_name_imports_and_restore():
    from aeroalloc import dynamics, nncore

    original = nncore.forward
    tracer = Tracer()
    tracer.install()
    try:
        bound = set(tracer.bindings())
        assert set(BY_NAME) <= bound
        assert dynamics.forward is nncore.forward is not original
    finally:
        tracer.uninstall()
    assert dynamics.forward is nncore.forward is original


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_layer_coverage(workload, tmp_path):
    calls = _traced(workload, tmp_path)["tracer"].calls()
    missing = [g for g in EXERCISED[workload] if calls[g] == 0]
    leaked = {g: calls[g] for g in BYPASSED[workload] if calls[g] != 0}
    assert not missing, f"{workload} never reached {missing}"
    assert not leaked, f"{workload} should bypass {leaked}"


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_tracing_is_transparent(workload, tmp_path):
    untraced = run.run_workload(workload, 0, 0.0, False, tmp_path / "plain", **SMALL)
    first = _traced(workload, tmp_path / "a")
    second = _traced(workload, tmp_path / "b")
    digests = {
        run.fingerprint_digest(out.fingerprint)
        for result in (untraced, first, second) for out in result["outcomes"]
    }
    assert len(digests) == 1
    assert first["tracer"].calls() == second["tracer"].calls()
    assert dict(first["tracer"].counts) == dict(second["tracer"].counts)


def test_outputs_are_checked(tmp_path):
    result = run.run_workload("closed_loop", 0, 0.0, False, tmp_path, **SMALL)
    out = result["outcomes"][0]
    assert out.problems == []
    assert out.step_s.size == 6 * 100
    assert sorted(out.fingerprint) == ["c7_rmssd_pair", "rmssd", "tracking_rmse"]


def test_changed_output_notice(tmp_path, monkeypatch):
    recorded = tmp_path / "fingerprints.json"
    recorded.write_text(json.dumps({"suite": {"3": "0" * 64}}))
    monkeypatch.setattr(run, "FINGERPRINTS", recorded)
    fingerprint = {"split_hash": "x", "rmse": {}}
    digest = run.fingerprint_digest(fingerprint)
    assert run.output_notices("suite", 3, fingerprint, "0" * 64) == []
    notices = run.output_notices("suite", 3, fingerprint, digest)
    assert len(notices) == 1 and notices[0].startswith("CHANGED OUTPUT")
    assert "no recorded fingerprint" in run.output_notices("suite", 4, fingerprint, digest)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sensing", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
