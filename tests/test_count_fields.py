"""Count fields the CLI refuses before any work, each naming its JSON path.

`verify-lemmas` needs `union_trials` and `states_per_size` of at least 1 and
distinct `sizes` of at least 1 (a repeated size would redraw its streams and
count each case twice). Every `simulate-*` command needs `n` of at least 1,
whatever the family kind. Each refusal exits 2 with one `error:` line and
writes no report.
"""

import json

import pytest

from qmap.cli import main

LEMMA_CONFIGS = {
    "union-trials-negative": ({"union_trials": -3}, "$.union_trials"),
    "union-trials-zero": ({"union_trials": 0}, "$.union_trials"),
    "states-per-size-zero": ({"states_per_size": 0}, "$.states_per_size"),
    "sizes-repeated": ({"sizes": [2, 2]}, "$.sizes"),
    "sizes-negative": ({"sizes": [-1]}, "$.sizes"),
    "sizes-zero": ({"sizes": [2, 0]}, "$.sizes"),
}


def _refused(capsys, out, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(LEMMA_CONFIGS))
def test_verify_lemmas_refuses_a_bad_count(tmp_path, capsys, case):
    config, path = LEMMA_CONFIGS[case]
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["verify-lemmas", "--config", str(tmp_path / "config.json"),
                 "--out", str(out)]) == 2
    _refused(capsys, out, path)


SIMULATE_CONFIGS = {
    "simulate-code": {"rates": [1], "splits": {"c": [2], "d": [1]}},
    "simulate-randomization": {"block_sizes": [2]},
    "simulate-encoding": {"k_sweep": [2]},
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("family", ["haar", "pauli", "identity"])
@pytest.mark.parametrize("command", sorted(SIMULATE_CONFIGS))
def test_simulate_commands_refuse_fewer_than_one_copy(tmp_path, capsys, command, family, n):
    (tmp_path / "spec.json").write_text(json.dumps({"preset": {"name": "bell"}}))
    (tmp_path / "config.json").write_text(json.dumps(
        {**SIMULATE_CONFIGS[command], "n": n, "family": family}))
    out = tmp_path / "out"
    assert main([command, "--spec", str(tmp_path / "spec.json"),
                 "--config", str(tmp_path / "config.json"), "--out", str(out),
                 "--seed", "0"]) == 2
    _refused(capsys, out, "$.n")
