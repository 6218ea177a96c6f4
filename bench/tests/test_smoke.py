"""Tiny-scale smoke test of the benchmark; it has no timing gates.

    python3 -m pytest bench/tests

Runs every workload end to end, plain and traced, and asserts that no
operation failed (error_rate == 0) and that every metric BENCHMARK.json
names is emitted with its unit.
"""
import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean_and_emits_every_metric(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"], out.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["layers"]
    mapped = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for layer in layers.values():
        assert set(layer["on"]) <= workloads and set(layer["moves"]) <= end_to_end


def test_generator_is_deterministic(tmp_path):
    sys.path.insert(0, str(BENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(BENCH))
    for workload in gen.SCALES:
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        gen.generate(workload, 3, "tiny", a)
        gen.generate(workload, 3, "tiny", b)
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert filecmp.cmpfiles(a, b, names, shallow=False)[0] == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
