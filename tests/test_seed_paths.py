"""Seed paths of the stochastic callers, pinned bit for bit.

Each caller that builds a Haar family must draw factor (k, i) from
`derived_rng(seed, *prefix, k, i)` with the prefix it has always used:
`(K, t, z)` in simulate-encoding, `(t, z)` in simulate-randomization and
`(z,)` in `build_qmap_code`. A drifted path changes every seeded report,
so these tests compare against `haar_unitary` directly rather than
against a second run of the same code.
"""

import json

import numpy as np

from qmap import protocols
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import build_qmap_code, derived_rng, haar_unitary

SEED = 31


def assert_haar_path(family, prefix):
    assert family.kind == "haar"
    assert family.seed == (SEED, *prefix)
    for k, copies in enumerate(family.per_index):
        for i, u in enumerate(copies):
            expected = haar_unitary(family.dim, derived_rng(SEED, *prefix, k, i))
            assert np.array_equal(u, expected), (prefix, k, i)


def run_cli(tmp_path, command, config):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": {"name": "two-bell"}}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--spec", str(spec), "--config", str(cfg),
                 "--out", str(tmp_path / "out"), "--seed", str(SEED)]) == 0


def test_simulate_encoding_prefix_is_size_trial_sender(tmp_path, monkeypatch):
    drawn = []
    inner = protocols.make_family

    def recording(*args, **kwargs):
        drawn.append(inner(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(protocols, "make_family", recording)
    k_sweep, trials = [1, 3], 2
    run_cli(tmp_path, "simulate-encoding", {"n": 2, "k_sweep": k_sweep, "trials": trials})
    runs = [(k, t) for k in k_sweep for t in range(trials)]
    calls = [drawn[i:i + 2] for i in range(0, len(drawn), 2)]  # two senders per run
    assert len(calls) == len(runs)
    for (k, t), families in zip(runs, calls):
        assert [f.size for f in families] == [k, k]
        for z, family in enumerate(families, start=1):
            assert_haar_path(family, (k, t, z))


def test_simulate_randomization_prefix_is_trial_sender(tmp_path, monkeypatch):
    drawn = []
    inner = protocols.make_family

    def recording(*args, **kwargs):
        drawn.append(inner(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(protocols, "make_family", recording)
    run_cli(tmp_path, "simulate-randomization",
            {"n": 2, "block_sizes": [2, 3], "trials": 3})
    calls = [drawn[i:i + 2] for i in range(0, len(drawn), 2)]  # two senders per trial
    assert len(calls) == 3
    for t, families in enumerate(calls):
        assert [f.size for f in families] == [2, 3]
        for z, family in enumerate(families, start=1):
            assert_haar_path(family, (t, z))


def test_build_qmap_code_prefix_is_sender():
    spec = resolve_state_spec({"preset": {"name": "two-bell"}})
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           2, [0.5, 0.5], ([0.5, 0.5], [0.0, 0.0]), SEED, family="haar")
    assert [f.size for f in code.families] == [2, 2]
    for z, family in enumerate(code.families, start=1):
        assert_haar_path(family, (z,))
