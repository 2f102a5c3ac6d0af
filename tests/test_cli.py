import json
import math

import numpy as np
import pytest

from qmap.cli import main
from qmap.presets import (
    SpecError,
    bell_pair,
    cq_state,
    ghz_state,
    resolve_state_spec,
    werner_state,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def bell_spec(tmp_path):
    return write_json(tmp_path / "spec.json", {"preset": {"name": "bell"}})


@pytest.fixture
def two_bell_spec(tmp_path):
    return write_json(tmp_path / "spec2.json", {"preset": {"name": "two-bell"}})


class TestPresets:
    def test_all_presets_resolve(self):
        for obj in (
                {"preset": {"name": "bell"}},
                {"preset": {"name": "two-bell"}},
                {"preset": {"name": "ghz", "params": {"parties": 3}}},
                {"preset": {"name": "werner", "params": {"p": 0.3}}},
                {"preset": {"name": "product"}},
                {"preset": {"name": "cq", "params": {"probs": [0.25, 0.75]}}}):
            spec = resolve_state_spec(obj)
            assert abs(np.trace(spec.state.matrix) - 1) < 1e-10

    def test_werner_extremes(self):
        assert np.allclose(werner_state(1.0).matrix, bell_pair().matrix)
        assert np.allclose(werner_state(0.0).matrix, np.eye(4) / 4)

    def test_ghz_marginal(self):
        s = ghz_state(["A1", "A2", "B"])
        assert abs(np.trace(s.matrix @ s.matrix) - 1) < 1e-10

    def test_cq_state_diagonal(self):
        s = cq_state([0.5, 0.5])
        assert np.allclose(s.matrix, np.diag([0.5, 0, 0, 0.5]))

    def test_unknown_preset(self):
        with pytest.raises(SpecError):
            resolve_state_spec({"preset": {"name": "nope"}})

    def test_roles_override(self):
        spec = resolve_state_spec({"preset": {"name": "bell"},
                                   "senders": [["B"]], "receiver": ["A1"]})
        assert spec.senders == (("B",),)
        assert spec.receiver == ("A1",)

    def test_roles_must_partition(self):
        with pytest.raises(SpecError):
            resolve_state_spec({"preset": {"name": "bell"},
                                "senders": [["A1"], ["A1"]], "receiver": ["B"]})


class TestExplicitSpec:
    def test_matrix_validation_path(self):
        with pytest.raises(SpecError) as exc:
            resolve_state_spec({"layout": [["A", 2]],
                                "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]],
                                "senders": [["A"]]})
        assert "matrix" in str(exc.value)

    def test_non_state_rejected(self):
        with pytest.raises(SpecError):
            resolve_state_spec({
                "layout": [["A", 2]],
                "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                "senders": [["A"]]})


class TestRegionCommands:
    def test_region_superdense(self, bell_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["region", "--spec", bell_spec, "--out", str(out)]) == 0
        obj = json.loads((out / "region.json").read_text())
        entry = obj["constraints"]["entries"][0]
        assert entry["subset"] == [1]
        assert abs(entry["value"] - 2.0) < 1e-9

    def test_region_two_bell(self, two_bell_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["region", "--spec", two_bell_spec, "--out", str(out)]) == 0
        obj = json.loads((out / "region.json").read_text())
        vals = {tuple(e["subset"]): e["value"]
                for e in obj["constraints"]["entries"]}
        assert abs(vals[(1,)] - 2.0) < 1e-9
        assert abs(vals[(2,)] - 2.0) < 1e-9
        assert abs(vals[(1, 2)] - 4.0) < 1e-9
        for res in obj["identity_residuals"]:
            assert abs(res["residual"]) < 1e-9

    def test_region_product_zero(self, tmp_path):
        spec = write_json(tmp_path / "p.json", {"preset": {"name": "product"}})
        out = tmp_path / "out"
        assert main(["region", "--spec", spec, "--out", str(out)]) == 0
        obj = json.loads((out / "region.json").read_text())
        assert abs(obj["constraints"]["entries"][0]["value"]) < 1e-9

    def test_check_origin_member(self, two_bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"rates": [0.0, 0.0]})
        out = tmp_path / "out"
        assert main(["check", "--spec", two_bell_spec, "--config", cfg,
                     "--out", str(out)]) == 0
        assert json.loads((out / "check.json").read_text())["member"]

    def test_check_exterior_reports_subset(self, two_bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"rates": [2.5, 0.0]})
        out = tmp_path / "out"
        main(["check", "--spec", two_bell_spec, "--config", cfg,
              "--out", str(out)])
        obj = json.loads((out / "check.json").read_text())
        assert not obj["member"]
        assert obj["worst_subset"] == [1]

    def test_split_interior(self, two_bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"rates": [0.5, 0.5]})
        out = tmp_path / "out"
        assert main(["split", "--spec", two_bell_spec, "--config", cfg,
                     "--out", str(out)]) == 0
        obj = json.loads((out / "split.json").read_text())
        for i in range(2):
            assert obj["c"][i] == obj["d"][i] + 0.5
        for margin in obj["margins"].values():
            assert margin["c_margin"] > 0
            assert margin["d_margin"] > 0

    def test_split_boundary_rejected(self, two_bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"rates": [2.0, 0.0]})
        out = tmp_path / "out"
        assert main(["split", "--spec", two_bell_spec, "--config", cfg,
                     "--out", str(out)]) == 2


class TestSimulateCommands:
    def test_randomization_report(self, bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n": 1, "block_sizes": [2], "trials": 2})
        out = tmp_path / "out"
        assert main(["simulate-randomization", "--spec", bell_spec,
                     "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        obj = json.loads((out / "simulate-randomization.json").read_text())
        assert obj["trials"] == 2
        assert (out / "simulate-randomization.csv").exists()

    def test_seed_required(self, bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n": 1, "block_sizes": [2], "trials": 1})
        assert main(["simulate-randomization", "--spec", bell_spec,
                     "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_encoding_sweep(self, bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n": 1, "k_sweep": [1, 2], "trials": 2})
        out = tmp_path / "out"
        assert main(["simulate-encoding", "--spec", bell_spec, "--config", cfg,
                     "--out", str(out), "--seed", "5"]) == 0
        obj = json.loads((out / "simulate-encoding.json").read_text())
        assert obj["estimates"]["success_K1"] > obj["estimates"]["success_K2"] - 1e-9

    def test_code_superdense_pauli(self, bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n": 1, "rates": [2.0], "family": "pauli",
                          "splits": {"c": [2.0], "d": [0.0]}})
        out = tmp_path / "out"
        assert main(["simulate-code", "--spec", bell_spec, "--config", cfg,
                     "--out", str(out), "--seed", "1"]) == 0
        obj = json.loads((out / "simulate-code.json").read_text())
        assert obj["estimates"]["epsilon"] < 1e-10
        assert obj["estimates"]["theta"] < 1e-10

    def test_budget_exit_code(self, bell_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("QMAP_BUDGET_QUBITS", "2")
        cfg = write_json(tmp_path / "c.json",
                         {"n": 3, "block_sizes": [2], "trials": 1})
        assert main(["simulate-randomization", "--spec", bell_spec,
                     "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "1"]) == 4

    def test_budget_env_capped(self, monkeypatch):
        from qmap.protocols import budget_qubits
        monkeypatch.setenv("QMAP_BUDGET_QUBITS", "20")
        assert budget_qubits() == 14
        monkeypatch.setenv("QMAP_BUDGET_QUBITS", "10")
        assert budget_qubits() == 10

    def test_byte_identical_reports(self, bell_spec, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"n": 1, "block_sizes": [4], "trials": 2})
        blobs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["simulate-randomization", "--spec", bell_spec,
                         "--config", cfg, "--out", str(out),
                         "--seed", "77"]) == 0
            blobs.append(((out / "simulate-randomization.json").read_bytes(),
                          (out / "simulate-randomization.csv").read_bytes()))
        assert blobs[0] == blobs[1]


class TestVerifyLemmas:
    def test_default_run_passes(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"sizes": [2], "states_per_size": 3, "union_trials": 10})
        out = tmp_path / "out"
        assert main(["verify-lemmas", "--config", cfg, "--out", str(out),
                     "--seed", "3"]) == 0
        obj = json.loads((out / "verify-lemmas.json").read_text())
        assert obj["passed"]
        assert set(obj["suites"]) == {"set_function_structure", "greedy_vertices",
                                      "rate_splitting", "union_bound"}

    def test_counterexample_mode_fails(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"sizes": [2], "states_per_size": 1, "union_trials": 1,
                          "counterexample": True})
        out = tmp_path / "out"
        assert main(["verify-lemmas", "--config", cfg, "--out", str(out),
                     "--seed", "3"]) == 3
        obj = json.loads((out / "verify-lemmas.json").read_text())
        assert not obj["passed"]

    def test_fixed_seed_bit_identical(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"sizes": [2], "states_per_size": 2, "union_trials": 5})
        blobs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            main(["verify-lemmas", "--config", cfg, "--out", str(out),
                  "--seed", "9"])
            blobs.append((out / "verify-lemmas.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestValidationErrors:
    def test_missing_spec_file(self, tmp_path):
        assert main(["region", "--spec", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["region", "--spec", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_rates(self, bell_spec, tmp_path):
        assert main(["check", "--spec", bell_spec,
                     "--out", str(tmp_path / "o")]) == 2


class TestNonFiniteSpec:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_diagonal_exits_2(self, tmp_path, token):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"layout": [["A1", 2], ["B", 2]], "senders": [["A1"]], "receiver": ["B"],'
            ' "matrix": [' + ", ".join(
                "[" + ", ".join(f"[{token if i == j == 0 else float(i == j) / 4}, 0.0]"
                                for j in range(4)) + "]"
                for i in range(4)) + "]}")
        out = tmp_path / "out"
        assert main(["region", "--spec", str(spec), "--out", str(out)]) == 2
        assert not (out / "region.json").exists()


class TestReadmeSession:
    def test_example_session_exits_0(self, tmp_path, monkeypatch):
        """Runs the README's example session: `echo ... > file` writes the
        file, each `qmap ...` line goes through `main`."""
        import shlex
        from pathlib import Path

        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("Example session:")[1].split("```sh\n")[1].split("```")[0]
        monkeypatch.chdir(tmp_path)
        ran = 0
        for line in block.strip().splitlines():
            words = shlex.split(line)
            if words[0] == "echo":
                assert words[2] == ">"
                (tmp_path / words[3]).write_text(words[1])
            else:
                assert words[0] == "qmap"
                assert main(words[1:]) == 0, line
                ran += 1
        assert ran == 4


class TestFamilyKinds:
    @pytest.mark.parametrize("command,config", [
        ("simulate-randomization", {"n": 1, "block_sizes": [2], "trials": 1}),
        ("simulate-encoding", {"n": 1, "k_sweep": [1, 2], "trials": 1}),
        ("simulate-code", {"n": 1, "rates": [1.0],
                           "splits": {"c": [1.0], "d": [0.0]}}),
    ])
    def test_identity_accepted_unknown_rejected(self, bell_spec, tmp_path, command,
                                                config):
        for family, code in (("identity", 0), ("nope", 2)):
            cfg = write_json(tmp_path / f"{family}.json", dict(config, family=family))
            assert main([command, "--spec", bell_spec, "--config", cfg,
                         "--out", str(tmp_path / family), "--seed", "1"]) == code

    @pytest.mark.parametrize("family", ["haar", "pauli", "identity"])
    @pytest.mark.parametrize("command, config", [
        ("simulate-randomization", {"n": 1, "block_sizes": [0], "trials": 1}),
        ("simulate-randomization", {"n": 1, "block_sizes": [-2], "trials": 1}),
        ("simulate-encoding", {"n": 1, "k_sweep": [0], "trials": 1}),
    ], ids=["block-size-0", "block-size-minus-2", "k-sweep-0"])
    def test_a_family_size_below_one_exits_2(self, bell_spec, tmp_path, capsys, command,
                                             config, family):
        cfg = write_json(tmp_path / "config.json", dict(config, family=family))
        out = tmp_path / "out"
        assert main([command, "--spec", bell_spec, "--config", cfg, "--out", str(out),
                     "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert ("size must be in [1, 4]" if family == "pauli"
                else "K and n must be >= 1") in err
        assert not out.exists()
