"""`evaluate_code` mixes a table code's message states on the senders+E marginal.

Leakage and randomization distance read only the senders+E marginal, and the
sender unitaries commute with the trace over B, so a code with a
`success_table` never needs a state of dimension d^n. The reference is the
same code without its table, which mixes on the full rho^(x)n. Also covered:
exact answers at n=3 through the CLI, and an oversized message space refused
before any family is drawn.
"""

import json
import time
from dataclasses import replace

import pytest

from qmap import protocols
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import build_qmap_code, evaluate_code
from qmap.qstate import SystemLayout, random_density

ABBE = SystemLayout((("A1", 2), ("A2", 2), ("B", 2), ("E", 2)))

# (n, rates, (c, d)): every code has N r^n <= d^n for rank r = 2, so a table
CODES = [
    (1, [1, 1], ([2, 1], [1, 0])),  # N = 8
    (2, [0.5, 0.5], ([1, 1], [0.5, 0.5])),  # N = 16
    (2, [1, 1], ([1.5, 1], [0.5, 0])),  # N = 32
]


def rank2_code(n, rates, splits, seed):
    rho = random_density(ABBE, 2, seed)
    code = build_qmap_code(rho, [["A1"], ["A2"]], ["B"], ["E"], n, rates, splits,
                           seed, family="haar")
    assert code.success_table is not None
    return rho, code


@pytest.mark.parametrize("n, rates, splits", CODES)
@pytest.mark.parametrize("seed", [0, 1])
def test_marginal_path_matches_dense_path(n, rates, splits, seed):
    rho, code = rank2_code(n, rates, splits, seed)
    got = evaluate_code(code, rho)
    want = evaluate_code(replace(code, success_table=None), rho)
    assert got.trials == want.trials == code.message_space
    for name in ("success", "leakage", "randomization_distance"):
        assert len(got.samples[name]) == code.message_space
        for a, b in zip(got.samples[name], want.samples[name], strict=True):
            assert abs(a - b) < 1e-12, name


def test_table_code_builds_nothing_of_dimension_d_to_the_n(monkeypatch):
    n = 2
    rho, code = rank2_code(n, [1, 1], ([1.5, 1], [0.5, 0]), 3)
    dims = []
    for name in ("_mix", "tensor_power"):
        inner = getattr(protocols, name)

        def recording(state, *args, inner=inner):
            dims.append(state.dim)
            return inner(state, *args)

        monkeypatch.setattr(protocols, name, recording)
    evaluate_code(code, rho)
    leak_dim = ABBE.dim_of(["A1", "A2", "E"])
    assert len(dims) == 1 + code.z_count * code.message_space
    assert max(dims) == leak_dim ** n < rho.dim ** n


def run(tmp_path, spec, config, seed=0):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "config.json").write_text(json.dumps(config))
    return main(["simulate-code", "--spec", str(tmp_path / "spec.json"),
                 "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out"), "--seed", str(seed)])


def report(tmp_path):
    return json.loads((tmp_path / "out" / "simulate-code.json").read_text())


def test_superdense_coding_is_exact_at_n3(tmp_path):
    config = {"n": 3, "rates": [2], "splits": {"c": [2], "d": [0]}, "family": "pauli"}
    assert run(tmp_path, {"preset": {"name": "bell"}}, config) == 0
    estimates = report(tmp_path)["estimates"]
    assert report(tmp_path)["trials"] == 64
    assert estimates["epsilon"] <= 1e-9
    assert estimates["theta"] <= 1e-9


def test_full_pauli_twirl_randomizes_exactly_at_n3(tmp_path):
    config = {"n": 3, "rates": [0], "splits": {"c": [2], "d": [2]}, "family": "pauli"}
    assert run(tmp_path, {"preset": {"name": "bell"}}, config) == 0
    out = report(tmp_path)
    assert out["extra"]["block_sizes"] == [64]
    assert out["estimates"]["theta"] <= 1e-9
    assert out["estimates"]["randomization_distance"] <= 1e-9


def test_two_bell_pauli_runs_at_n3(tmp_path):
    config = {"n": 3, "rates": [1, 1], "splits": {"c": [1, 1], "d": [0, 0]},
              "family": "pauli"}
    assert run(tmp_path, {"preset": {"name": "two-bell"}}, config) == 0
    assert report(tmp_path)["trials"] == 64


@pytest.mark.parametrize("family, rate", [("haar", 18), ("haar", 1e9), ("pauli", 1e9)])
def test_oversized_message_space_is_refused_before_any_family(tmp_path, capsys,
                                                             monkeypatch, family, rate):
    def forbidden(*args, **kwargs):
        raise AssertionError("a family was drawn")

    monkeypatch.setattr(protocols, "make_family", forbidden)
    config = {"n": 1, "rates": [rate], "splits": {"c": [rate], "d": [0]},
              "family": family}
    start = time.perf_counter()
    assert run(tmp_path, {"preset": {"name": "bell"}}, config) == 4
    assert time.perf_counter() - start < 1
    assert "message space" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
