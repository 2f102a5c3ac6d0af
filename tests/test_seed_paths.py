"""Seed paths of the stochastic callers, pinned bit for bit.

Each caller that builds a Haar family must draw factor (k, i) from
`derived_rng(seed, *prefix, k, i)` with the prefix it has always used:
`(K, t, z)` in simulate-encoding, `(t, z)` in simulate-randomization and
`(z,)` in `build_qmap_code`. The two experiments draw one sender's families
for a chunk of trials in one `_family_stack` call. A drifted path changes
every seeded report, so these tests compare against `haar_unitary` directly
rather than against a second run of the same code.
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
    assert_haar_factors(family.per_index, family.dim, prefix)


def assert_haar_factors(per_index, dim, prefix):
    for k, copies in enumerate(per_index):
        for i, u in enumerate(copies):
            expected = haar_unitary(dim, derived_rng(SEED, *prefix, k, i))
            assert np.array_equal(u, expected), (prefix, k, i)


def record_stacks(monkeypatch):
    """(kind, d, prefixes, stack) of each `_family_stack` call: the stacked
    draw of one sender's families over a chunk of trials."""
    drawn = []
    inner = protocols._family_stack

    def recording(kind, n, d, size, master_seed, prefixes):
        drawn.append((kind, d, list(prefixes),
                      inner(kind, n, d, size, master_seed, prefixes)))
        return drawn[-1][-1]

    monkeypatch.setattr(protocols, "_family_stack", recording)
    return drawn


def run_cli(tmp_path, command, config):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": {"name": "two-bell"}}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--spec", str(spec), "--config", str(cfg),
                 "--out", str(tmp_path / "out"), "--seed", str(SEED)]) == 0


def test_simulate_encoding_prefix_is_size_trial_sender(tmp_path, monkeypatch):
    drawn = record_stacks(monkeypatch)
    k_sweep, trials = [1, 3], 2
    run_cli(tmp_path, "simulate-encoding", {"n": 2, "k_sweep": k_sweep, "trials": trials})
    runs = [(k, t, z) for k in k_sweep for t in range(trials) for z in (1, 2)]
    seen = []
    for kind, d, prefixes, stack in drawn:
        assert kind == "haar"
        assert [len(u) for u in stack] == [prefixes[0][0]] * len(prefixes)
        for prefix, per_index in zip(prefixes, stack):
            assert_haar_factors(per_index, d, prefix)
            seen.append(tuple(prefix))
    assert sorted(seen) == sorted(runs)


def test_simulate_randomization_prefix_is_trial_sender(tmp_path, monkeypatch):
    drawn = record_stacks(monkeypatch)
    run_cli(tmp_path, "simulate-randomization",
            {"n": 2, "block_sizes": [2, 3], "trials": 3})
    seen = []
    for kind, d, prefixes, stack in drawn:
        assert kind == "haar"
        for prefix, per_index in zip(prefixes, stack):
            t, z = prefix
            assert len(per_index) == [2, 3][z - 1]
            assert_haar_factors(per_index, d, prefix)
            seen.append((t, z))
    assert sorted(seen) == [(t, z) for t in range(3) for z in (1, 2)]


def test_build_qmap_code_prefix_is_sender():
    spec = resolve_state_spec({"preset": {"name": "two-bell"}})
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           2, [0.5, 0.5], ([0.5, 0.5], [0.0, 0.0]), SEED, family="haar")
    assert [f.size for f in code.families] == [2, 2]
    for z, family in enumerate(code.families, start=1):
        assert_haar_path(family, (z,))
