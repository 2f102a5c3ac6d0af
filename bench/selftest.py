"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the package's default test collection:
they start a few hundred interpreters and take about three minutes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
from child import layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# functions each workload must call, from the prediction table in README.md
MUST_CALL = {
    "region-large": [
        "presets.resolve_state_spec", "cli.main", "qstate.partial_trace",
        "qstate.entropy", "qstate.conditional_entropy", "linalg.eig",
        "qstate.DensityMatrix.constructed", "regions.chat_from_state",
        "regions.dhat_from_state", "regions.main_region", "regions.membership",
        "regions.rate_split", "regions.separate"],
    "code-n2": [
        "qstate.DensityMatrix.constructed", "qstate.apply_unitary",
        "qstate.embed_operator", "qstate.tensor_power", "qstate.partial_trace",
        "qstate.permute_factors", "qstate.trace_norm", "linalg.svd",
        "protocols.build_qmap_code", "protocols.pgm_decoder",
        "protocols.evaluate_code", "protocols.haar_unitary", "protocols.pauli_family"],
    "small-many": [
        "qstate.apply_unitary", "qstate.embed_operator",
        "protocols.sequential_decoder", "protocols.randomize",
        "protocols.chained_randomization_experiment", "protocols.union_bound_check",
        "protocols.povm_success", "protocols.haar_unitary",
        "regions.polymatroid_vertices", "regions.contrapolymatroid_vertices",
        "regions.check_set_function_properties", "regions.separate"],
}
# functions a workload must never reach, so a change to them shows no gain there
NEVER_CALL = {
    "region-large": [n for n in layer_names() if n.startswith("protocols.")]
    + ["qstate.apply_unitary", "qstate.embed_operator"],
}


def _inputs(directory: Path, name: str, seed: int):
    directory.mkdir()
    commands = WORKLOADS[name](directory, seed)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return commands, files


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(tmp_path, name):
    first = _inputs(tmp_path / "a", name, 5)
    assert first == _inputs(tmp_path / "b", name, 5)
    assert first[0]


def test_region_inputs_depend_on_the_seed(tmp_path):
    assert _inputs(tmp_path / "a", "region-large", 5)[1] != _inputs(
        tmp_path / "b", "region-large", 6)[1]


def _traced(name: str) -> dict[str, tuple]:
    result = run.run_workload(name, checks.DEFAULT_SEED, 1, True,
                              checks.load_reference()[name])
    assert all(not r["errors"] for p in result["passes"] for r in p["results"])
    metrics, errors = run.per_layer(result["passes"])
    assert not errors
    return metrics


def _calls(metrics: dict[str, tuple]) -> dict[str, int]:
    return {k.removesuffix(".calls"): v for k, (v, _) in metrics.items()
            if k.endswith(".calls") or k == run.CONSTRUCTED}


@pytest.fixture(scope="module")
def traced_twice():
    """Per-layer metrics of two traced runs of each workload at the default seed."""
    return {name: (_traced(name), _traced(name)) for name in WORKLOADS}


def test_traced_runs_give_equal_calls(traced_twice):
    for first, second in traced_twice.values():
        assert _calls(first) == _calls(second)


def test_benchmark_json_lists_the_reported_metrics(traced_twice):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    for first, _ in traced_twice.values():
        assert [m["name"] for m in spec["per_layer"]] == list(first)
        assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in first.values()]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_calls_the_layers_it_stresses(traced_twice, name):
    calls = _calls(traced_twice[name][0])
    assert not [f for f in MUST_CALL[name] if calls[f] == 0]
    assert not [f for f in NEVER_CALL.get(name, []) if calls[f] != 0]


def test_every_layer_is_called_by_some_workload(traced_twice):
    calls = [_calls(first) for first, _ in traced_twice.values()]
    assert not [f for f in layer_names() if all(c[f] == 0 for c in calls)]


@pytest.fixture(scope="module")
def region_report(tmp_path_factory):
    work = tmp_path_factory.mktemp("region")
    cmd = WORKLOADS["region-large"](work, checks.DEFAULT_SEED)[0]
    result = run.run_command(cmd, work, run.child_env(work), False,
                             checks.load_reference()["region-large"])
    assert cmd.report == "region" and result["errors"] == []
    return result["report"]


def test_corrupted_region_report_fails_the_checks(region_report):
    assert checks.check_report("region", region_report) == []
    bad = copy.deepcopy(region_report)
    bad["constraints"]["entries"][3]["value"] += 1e-6
    assert checks.check_report("region", bad)
    bad = copy.deepcopy(region_report)
    bad["identity_residuals"][0]["residual"] = 1e-6
    assert checks.check_report("region", bad)


def test_report_off_the_reference_fails(region_report):
    recorded = checks.flatten(region_report)
    assert checks.compare_reference(region_report, recorded) == []
    bad = copy.deepcopy(region_report)
    bad["chat"]["entries"][0]["value"] += 1e-3
    assert checks.compare_reference(bad, recorded)


def test_corrupted_report_counts_as_a_failed_command(monkeypatch, capsys):
    original = checks.check_report

    def perturbing(kind, report, exact_code=False):
        if kind == "region":
            report = copy.deepcopy(report)
            report["constraints"]["entries"][0]["value"] += 1e-3
        return original(kind, report, exact_code)

    monkeypatch.setattr(checks, "check_report", perturbing)
    rc = run.main(["--workload", "region-large", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (15, 5)  # one pass, 5 regions


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "small-many",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
