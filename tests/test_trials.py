"""An experiment with no trial is refused, not averaged into NaN.

`chained_randomization_experiment` and `encoding_experiment` raise
`ValueError` for fewer than one trial; the CLI exits 2 with the `$.trials`
path and writes no report.
"""

import json

import pytest

from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import chained_randomization_experiment, encoding_experiment

CONFIGS = {
    "simulate-randomization": {"n": 1, "block_sizes": [2]},
    "simulate-encoding": {"n": 1, "k_sweep": [1, 2]},
}


@pytest.mark.parametrize("trials", [0, -2])
@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_cli_refuses_fewer_than_one_trial(tmp_path, capsys, command, trials):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": {"name": "bell"}}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIGS[command], "trials": trials}))
    out = tmp_path / "out"
    assert main([command, "--spec", str(spec), "--config", str(cfg), "--out", str(out),
                 "--seed", "0"]) == 2
    assert "error: $.trials:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", [0, -2])
def test_library_refuses_fewer_than_one_trial(trials):
    bell = resolve_state_spec({"preset": {"name": "bell"}})
    with pytest.raises(ValueError, match="trials must be >= 1"):
        chained_randomization_experiment(bell.state, bell.senders, ["B"], 1, [2],
                                         trials, 0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        encoding_experiment(bell.state, bell.senders, 1, [1, 2], trials, 0)
