"""One dimension budget for the library and the CLI, and config fields read
with their JSON paths.

`QMAP_BUDGET_QUBITS` sets the one limit that `protocols.check_dim_budget`
applies, whoever the caller is. Nothing of the budget's size is allocated
here: `tensor_power` is patched, and the decoders get a stub that has only
a dimension.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from qmap import protocols
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    BudgetError,
    build_qmap_code,
    chained_randomization_experiment,
    encoding_experiment,
    evaluate_code,
    lemma_suites,
    randomize,
    sequential_decoder,
)

BELL = {"preset": {"name": "bell"}}


class PastBudget(Exception):
    """Raised by the patched `tensor_power`: the budget check let the call through."""


@pytest.fixture
def bell():
    return resolve_state_spec(BELL)


@pytest.fixture
def bell_code(bell):
    return build_qmap_code(bell.state, bell.senders, bell.receiver, bell.eavesdropper,
                           1, [1], ([2], [1]), 0, family="pauli")


def _patch_tensor_power(monkeypatch):
    def past_budget(*args, **kwargs):
        raise PastBudget

    monkeypatch.setattr(protocols, "tensor_power", past_budget)


def test_library_honours_the_raised_budget(monkeypatch, bell, bell_code):
    monkeypatch.setenv("QMAP_BUDGET_QUBITS", "14")
    _patch_tensor_power(monkeypatch)
    with pytest.raises(PastBudget):
        evaluate_code(replace(bell_code, n=7), bell.state)  # 4^7 = 2^14
    state = SimpleNamespace(dim=8192)
    # each decoder's next check after the budget is its family count
    with pytest.raises(ValueError, match="one family per sender group required"):
        randomize(state, [["A1_1"]], [], [])
    with pytest.raises(ValueError, match="one family per sender required"):
        sequential_decoder(state, [["A1_1"]], [], [])


def test_library_honours_the_lowered_budget(monkeypatch, bell, bell_code):
    monkeypatch.setenv("QMAP_BUDGET_QUBITS", "2")
    _patch_tensor_power(monkeypatch)
    n = 2  # bell: 4^2 = 16 > 2^2
    calls = [
        lambda: build_qmap_code(bell.state, bell.senders, bell.receiver,
                                bell.eavesdropper, n, [1], ([1], [0]), 0),
        lambda: chained_randomization_experiment(bell.state, bell.senders, ["B"], n,
                                                 [2], 1, 0),
        lambda: encoding_experiment(bell.state, bell.senders, n, [2], 1, 0),
        lambda: evaluate_code(replace(bell_code, n=n), bell.state),
        lambda: lemma_suites(0, [2], 1, 1),  # rate splitting at z=2 draws 2^4
    ]
    for call in calls:
        with pytest.raises(BudgetError, match="exceeds budget 4"):
            call()


def run(tmp_path, command, config, spec=None, seed=None):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv += ["--spec", str(path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


def test_non_integer_budget_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("QMAP_BUDGET_QUBITS", "many")
    config = {"block_sizes": [2], "trials": 1}
    assert run(tmp_path, "simulate-randomization", config, BELL, seed=0) == 2
    assert "QMAP_BUDGET_QUBITS must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, spec, config, path", [
    ("simulate-code", BELL, {"rates": [1], "splits": {"c": [2.0]}}, "$.splits.d"),
    ("simulate-code", BELL, {"rates": [1], "splits": [[2.0], [1.0]]}, "$.splits"),
    ("simulate-code", BELL, {"rates": 0.5}, "$.rates"),
    ("simulate-code", BELL, {"n": None, "rates": [1]}, "$.n"),
    ("simulate-randomization", BELL, {"block_sizes": 4}, "$.block_sizes"),
    ("verify-lemmas", None, {"sizes": 3}, "$.sizes"),
    ("check", BELL, [0.5], "$"),
])
def test_malformed_config_exits_2_at_its_path(tmp_path, capsys, command, spec, config,
                                              path):
    assert run(tmp_path, command, config, spec, seed=0) == 2
    assert f"error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_lemmas_refuses_sizes_past_the_budget(monkeypatch, tmp_path, capsys):
    """z=3 draws 2^5-dim states; the budget refuses them before the first."""
    monkeypatch.setenv("QMAP_BUDGET_QUBITS", "2")
    assert run(tmp_path, "verify-lemmas", {"sizes": [3]}) == 4
    assert "exceeds budget 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_encoding_experiment_rejects_a_repeated_size(bell):
    with pytest.raises(ValueError, match="k_sweep sizes must be distinct"):
        encoding_experiment(bell.state, bell.senders, 1, [2, 2], 2, 3)


def test_randomization_refuses_a_block_size_past_the_budget(monkeypatch, tmp_path, capsys):
    """bell with L = 2^14 index tuples per family, above the default 2^12:
    refused before any marginal or family is built, as a K of 2^14 is."""
    monkeypatch.delenv("QMAP_BUDGET_QUBITS", raising=False)

    def past_budget(*args, **kwargs):
        raise PastBudget

    for name in ("partial_trace", "make_family"):
        monkeypatch.setattr(protocols, name, past_budget)
    config = {"block_sizes": [2 ** 14], "trials": 1}
    assert run(tmp_path, "simulate-randomization", config, BELL, seed=0) == 4
    assert "error: index space 2^14 exceeds budget 4096" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
