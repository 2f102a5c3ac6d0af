"""`evaluate_code` mixes a code's message states on the senders+E marginal.

Leakage and randomization distance read only the senders+E marginal, and the
sender unitaries commute with the trace over B, so a code scored in Gram
space never needs a state of dimension d^n. The reference forms the full
rho^(x)n: the block means of `encode`, and the dense PGM of every encoded
state summed over each block. Also covered: exact answers at n=3 through
the CLI, and an oversized message space refused before any family is drawn.
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from qmap import protocols
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import _message_blocks, build_qmap_code, encode, evaluate_code, pgm_decoder
from qmap.qstate import (
    DensityMatrix,
    SystemLayout,
    maximally_mixed,
    partial_trace,
    permute_factors,
    random_density,
    tensor,
    tensor_power,
    trace_norm,
)

ABBE = SystemLayout((("A1", 2), ("A2", 2), ("B", 2), ("E", 2)))

# (n, rates, (c, d)): every code has N r^n <= d^n for rank r = 2, so a Gram table
CODES = [
    (1, [1, 1], ([2, 1], [1, 0])),  # N = 8
    (2, [0.5, 0.5], ([1, 1], [0.5, 0.5])),  # N = 16
    (2, [1, 1], ([1.5, 1], [0.5, 0])),  # N = 32
    (2, [0.5, 0], ([0.5, 0], [0, 0])),  # N = 2: two messages, mean held as a factor
]


def rank2_code(n, rates, splits, seed, monkeypatch):
    tables = []
    inner = protocols.pgm_success_table

    def recording(*args):
        tables.append(args)
        return inner(*args)

    monkeypatch.setattr(protocols, "pgm_success_table", recording)
    rho = random_density(ABBE, 2, seed)
    code = build_qmap_code(rho, [["A1"], ["A2"]], ["B"], ["E"], n, rates, splits,
                           seed, family="haar")
    assert len(tables) == 1
    return rho, code


def full_state_samples(code, rho):
    """Per-message success, leakage and randomization distance on rho^(x)n:
    each message state is the mean of `encode` over its block, its element the
    dense PGM of every encoded state summed over that block, and the target
    I/d_S (x) rho_E^(x)n."""
    rho_n = tensor_power(rho, code.n)
    sizes = [f.size for f in code.families]
    encoded = encode(rho_n, code.families, code.sender_groups,
                     list(product(*[range(size) for size in sizes])))
    povm = pgm_decoder(encoded, [1.0 / len(encoded)] * len(encoded))
    senders = [lab for g in code.sender_groups for lab in g]
    success, leaks = [], []
    for row in _message_blocks(code.message_counts, code.block_sizes):
        mean = sum(encoded[k].matrix for k in row) / len(row)
        success.append(float(np.real(np.trace(sum(povm.elements[k] for k in row) @ mean))))
        leaks.append(partial_trace(DensityMatrix(mean, rho_n.layout),
                                   senders + list(code.e_labels)))
    bar = sum(leak.matrix for leak in leaks) / len(leaks)
    target = tensor(maximally_mixed(SystemLayout(tuple(
        (lab, rho_n.layout.dim_of(lab)) for lab in senders))),
        tensor_power(partial_trace(rho, "E"), code.n))
    target = permute_factors(target, leaks[0].layout.labels).matrix
    return {"success": success,
            "leakage": [trace_norm(leak.matrix - bar) for leak in leaks],
            "randomization_distance": [trace_norm(leak.matrix - target) for leak in leaks]}


@pytest.mark.parametrize("n, rates, splits", CODES)
@pytest.mark.parametrize("seed", [0, 1])
def test_marginal_path_matches_dense_path(n, rates, splits, seed, monkeypatch):
    rho, code = rank2_code(n, rates, splits, seed, monkeypatch)
    got = evaluate_code(code, rho)
    want = full_state_samples(code, rho)
    assert got.trials == code.message_space
    for name in ("success", "leakage", "randomization_distance"):
        assert len(got.samples[name]) == code.message_space
        for a, b in zip(got.samples[name], want[name], strict=True):
            assert abs(a - b) < 1e-12, name


def test_table_code_builds_nothing_of_dimension_d_to_the_n(monkeypatch):
    n = 2
    rho, code = rank2_code(n, [1, 1], ([1.5, 1], [0.5, 0]), 3, monkeypatch)
    dims = []  # the n-copy dimension of each `_Power`, the layout of each `_randomized`
    inner_init, inner_randomized = protocols._Power.__init__, protocols._randomized

    def init(self, marginal, copies):
        inner_init(self, marginal, copies)
        dims.append(self.layout.dim)

    def randomized(state, layout, *args):
        dims.append(layout.dim)
        return inner_randomized(state, layout, *args)

    monkeypatch.setattr(protocols._Power, "__init__", init)
    monkeypatch.setattr(protocols, "_randomized", randomized)
    evaluate_code(code, rho)
    leak_dim = ABBE.dim_of(["A1", "A2", "E"])
    # one `_randomized` per distinct message prefix (m_1..m_z): sum_z prod_{y<=z} M_y
    mixes = sum(math.prod(code.message_counts[:z + 1]) for z in range(code.z_count))
    assert len(dims) == 1 + mixes
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
