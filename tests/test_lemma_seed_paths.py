"""Seed paths of `verify-lemmas`, pinned call by call.

Suites 1-3 (set-function structure, greedy vertices, rate splitting) draw
state (z, trial) from `derived_rng(seed, suite, z, trial)`, and union-bound
trial t draws from `derived_rng(seed, 4, t)`, in that order. A drifted key
changes every verify-lemmas report.
"""

import json

from qmap import protocols
from qmap.cli import main

SEED = 7


def test_verify_lemmas_spawn_keys(tmp_path, monkeypatch):
    keys = []
    inner = protocols.derived_rng

    def recording(*args):
        keys.append(args)
        return inner(*args)

    monkeypatch.setattr(protocols, "derived_rng", recording)
    sizes, per_size, union_trials = [2, 3], 2, 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sizes": sizes, "states_per_size": per_size,
                                  "union_trials": union_trials}))
    assert main(["verify-lemmas", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--seed", str(SEED)]) == 0
    expected = [(SEED, suite, z, trial) for suite in (1, 2, 3)
                for z in sizes for trial in range(per_size)]
    expected += [(SEED, 4, trial) for trial in range(union_trials)]
    assert keys == expected
