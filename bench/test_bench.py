"""The benchmark's own tests.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_percentile_leaves_ten_samples_beyond():
    assert spans.tail_percentile([1.0] * 10) is None
    assert spans.tail_percentile(list(range(11))) == (9, 0)
    assert spans.tail_percentile(list(range(100, 0, -1))) == (90, 90)
    for n in (11, 20, 37, 250):
        values = [float(x) for x in range(n)]
        pct, value = spans.tail_percentile(values)
        assert sum(v > value for v in values) == 10
        assert pct == 100 * (n - 10) // n


def test_median():
    assert spans.median([3.0, 1.0, 2.0]) == 2.0
    assert spans.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_rescale_uses_the_samples_on_either_side():
    import reference

    n = reference.NOMINAL_S
    assert reference.rescale([1.0, 3.0], [n, n, 3 * n]) == pytest.approx([1.0, 1.5])


def test_self_time_subtracts_child_spans():
    nested = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("d", 11.0, 12.0, -1),
    ]
    assert spans.self_times(nested) == {"a": 6.0, "b": 3.0, "c": 1.0, "d": 1.0}
    assert spans.call_counts(nested) == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert spans.root_coverage(nested, 0.0, 12.0) == 11.0
    # overlapping children are covered once; parts outside the parent not at all
    overlapping = [
        ("p", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 7.0, 0),
        ("z", 9.0, 12.0, 0),
    ]
    assert spans.self_times(overlapping)["p"] == 3.0


def test_recorder_patches_calling_namespaces_and_restores_them():
    from qec422 import experiments, noise
    from qec422.circuits import Circuit, GateInstance, GateKind

    original = experiments.noisy_counts
    rec = spans.Recorder()
    rec.install()
    try:
        assert experiments.noisy_counts is noise.noisy_counts is not original
        circuit = Circuit(2, [GateInstance(GateKind.H, (0,)), GateInstance(GateKind.CNOT, (0, 1))],
                          [0, 1])
        experiments.noisy_counts(circuit, noise.NoiseParams(eps1=0.1, eps2=0.1), 64, 0)
    finally:
        rec.uninstall()
    assert experiments.noisy_counts is noise.noisy_counts is original
    op = rec.op_spans(0)
    names = [name for name, _, _, _ in op]
    assert names[0] == "noise.noisy_counts"
    assert {"noise.fault_sampling", "noise.outcome_draw", "noise.flip_mask_table"} <= set(names)
    assert all(parent >= 0 for _, _, _, parent in op[1:])
    assert rec.counts[0]["simulator.apply_gate"] == 2
    assert rec.absent == []


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload):
    base = ["--workload", workload, "--seed", "3", "--seconds", "0", "--scale", "tiny"]
    plain = _result(_bench(*base, "--trace", "0"))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [_result(_bench(*base, "--trace", "1")) for _ in range(2)]
    assert all(t["correct"] for t in traced)
    assert set(traced[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("simulator.apply_gate.calls", "noise.config_sim.calls",
                 "ftcheck.sims_per_site", "experiments.run_pair.calls"):
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name
    assert traced[0]["metrics"]["trace.absent_spans"]["value"] == 0


def test_units_match_the_spec():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units == run.LAYER_UNITS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
