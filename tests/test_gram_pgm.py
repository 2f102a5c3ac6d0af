"""The PGM scored in Gram space and per message, against the dense decoder as
reference.

`pgm_success_table` reads Tr[E_k' rho_k] of the uniform-prior pretty-good
measurement from the square root of the ensemble's Gram matrix, and
`_pgm_message_success` reads each message's success from it or from the PGM
of the message factors. The reference is the dense path: `pgm_decoder` on
the encoded n-copy states, its elements summed over each message's block.
With uniform priors that sum is the PGM of the message states, element by
element. Beyond the dense reach, Pauli superdense coding has the known
answer: every message is decoded with certainty.
"""

import json
from itertools import product

import numpy as np
import pytest

from qmap import protocols
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    RANK_CUTOFF,
    _message_blocks,
    _message_factors,
    _pgm,
    _pgm_message_success,
    _sqrt_factor,
    build_qmap_code,
    encode,
    encoding_experiment,
    evaluate_code,
    make_family,
    pgm_decoder,
    pgm_success_table,
)
from qmap.qstate import SystemLayout, random_density, tensor_power

TOL = 1e-12


def rank3_spec():
    layout = SystemLayout((("A1", 2), ("A2", 2), ("B", 2)))
    rho = random_density(layout, 3, 41)
    return rho, [("A1",), ("A2",)]


def preset(name, **params):
    spec = resolve_state_spec({"preset": {"name": name, "params": params}})
    return spec.state, list(spec.senders)


STATES = {
    "bell": lambda: preset("bell"),
    "two-bell": lambda: preset("two-bell"),
    "ghz": lambda: preset("ghz"),
    "werner": lambda: preset("werner", p=0.3),
    "rank3": rank3_spec,
}


def dense_pgm(rho, families, groups):
    """The encoded n-copy states in flat tuple order, and their dense PGM."""
    n = families[0].n
    k_tuples = list(product(*[range(f.size) for f in families]))
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]
    encoded = encode(tensor_power(rho, n), families, copy_groups, k_tuples)
    return encoded, pgm_decoder(encoded, [1.0 / len(encoded)] * len(encoded))


def dense_table(rho, families, groups):
    """Tr[E_k' rho_k] from the dense PGM of the encoded n-copy states."""
    encoded, povm = dense_pgm(rho, families, groups)
    return np.array([[np.real(np.einsum("ij,ji->", el, s.matrix)) for s in encoded]
                     for el in povm.elements[: len(encoded)]])


def dense_message_success(encoded, elements, blocks):
    """Tr[(sum_l E_k(m,l)) mean_l rho_k(m,l)] for each message m of `blocks`."""
    return [float(np.real(np.einsum("ij,ji->", sum(elements[k] for k in row),
                                    sum(encoded[k].matrix for k in row) / len(row))))
            for row in blocks]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["haar", "pauli"])
@pytest.mark.parametrize("name", sorted(STATES))
def test_gram_table_matches_dense_pgm(name, kind, n):
    rho, groups = STATES[name]()
    size = 3 if kind == "haar" else 4 ** n - 1  # a Pauli family short of a twirl
    if len(groups) > 1:
        size = 2 if kind == "haar" else 3
    families = [make_family(kind, z, n, rho.layout.dim_of(g), size, 7, (z,))
                for z, g in enumerate(groups, start=1)]
    factor = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF)
    table = pgm_success_table(factor, rho.layout, families, groups)
    want = dense_table(rho, families, groups)
    assert table.shape == want.shape == (size ** len(groups),) * 2
    assert np.max(np.abs(table - want)) < TOL


def test_rank_factor_drops_only_null_directions():
    rho, _ = rank3_spec()
    factor = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF)
    assert factor.shape == (8, 3)
    assert np.max(np.abs(factor @ factor.conj().T - rho.matrix)) < TOL


CODES = [
    # (state, n, rates, (C, D), family): the Gram table runs when N r^n <= d^n
    ("bell", 2, [1.0], ([1.5], [0.5]), "haar"),
    ("two-bell", 2, [0.5, 0.5], ([1.0, 1.0], [0.5, 0.5]), "haar"),
    ("two-bell", 2, [0.5, 0.5], ([1.0, 1.0], [0.5, 0.5]), "pauli"),
    ("ghz", 1, [1.0, 1.0], ([1.0, 1.0], [0.0, 0.0]), "haar"),
    ("rank3", 1, [1.0, 0.0], ([1.0, 0.0], [0.0, 0.0]), "haar"),
    ("werner", 1, [1.0], ([2.0], [1.0]), "haar"),  # full rank: no table
]


def _record(monkeypatch, name):
    """The argument tuples of every call to `protocols.<name>`, which still runs."""
    calls, inner = [], getattr(protocols, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(protocols, name, recording)
    return calls


@pytest.mark.parametrize("name, n, rates, splits, kind", CODES)
def test_evaluate_code_success_matches_lazy_decoder(name, n, rates, splits, kind,
                                                    monkeypatch):
    rho, groups = STATES[name]()
    tables = _record(monkeypatch, "pgm_success_table")
    code = build_qmap_code(rho, groups, (), (), n, rates, splits, 5, family=kind)
    rank = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF).shape[1]
    count = int(np.prod([f.size for f in code.families]))
    assert bool(tables) == (count * rank ** n <= rho.dim ** n)
    report = evaluate_code(code, rho)
    assert report.samples["success"] == code.success
    encoded, povm = dense_pgm(rho, code.families, groups)
    want = dense_message_success(encoded, povm.elements,
                                 _message_blocks(code.message_counts, code.block_sizes))
    for got, ref in zip(code.success, want, strict=True):
        assert abs(got - ref) < TOL


def _forbid(monkeypatch, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("the dense decoder path ran")

    for name in names:
        monkeypatch.setattr(protocols, name, forbidden)


def test_superdense_success_at_n3_without_dense_decoder(monkeypatch):
    """Two-bell at n=3: 64 messages on a 4096-dim state, decoded with
    certainty; nothing of dimension 4096 is built."""
    _forbid(monkeypatch, "tensor_power", "_pgm", "pgm_decoder")
    rho, groups = preset("two-bell")
    code = build_qmap_code(rho, groups, ("B1", "B2"), (), 3, [1, 1],
                           ([1, 1], [0, 0]), 0, family="pauli")
    assert code.message_counts == (8, 8) and code.block_sizes == (1, 1)
    assert len(code.success) == 64
    assert max(abs(v - 1) for v in code.success) < TOL


def full_rank_pair():
    layout = SystemLayout((("A1", 2), ("A2", 2), ("B", 2)))
    return random_density(layout, 8, 43), [("A1",), ("A2",)]


# (state, n, message counts, block sizes): full-rank and pure, one and two senders
MESSAGE_PGMS = [
    (lambda: preset("werner", p=0.3), 1, (2,), (2,)),
    (lambda: preset("werner", p=0.3), 2, (2,), (2,)),
    (lambda: preset("bell"), 2, (2,), (4,)),
    (full_rank_pair, 1, (2, 2), (1, 2)),
    (lambda: preset("ghz"), 1, (2, 2), (2, 1)),
    (lambda: preset("two-bell"), 2, (2, 2), (2, 2)),
]


def code_ensemble(state, n, counts, sizes, kind="haar"):
    rho, groups = state()
    families = [make_family(kind, z, n, rho.layout.dim_of(g), m * l, 11, (z,))
                for z, (g, m, l) in enumerate(zip(groups, counts, sizes), start=1)]
    return rho, groups, families, _message_blocks(counts, sizes)


@pytest.mark.parametrize("state, n, counts, sizes", MESSAGE_PGMS,
                         ids=["werner-1", "werner-2", "bell-2", "full-rank-pair-1",
                              "ghz-1", "two-bell-2"])
def test_message_pgm_is_the_index_pgm_summed_over_blocks(state, n, counts, sizes):
    rho, groups, families, blocks = code_ensemble(state, n, counts, sizes)
    factor = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF)
    messages = _message_factors(factor, rho.layout, n, families, groups, blocks)
    tuples = _message_factors(factor, rho.layout, n, families, groups,
                              np.arange(blocks.size)[:, None])
    got = _pgm(messages, [1.0 / len(messages)] * len(messages)).elements
    index = _pgm(tuples, [1.0 / len(tuples)] * len(tuples)).elements
    want = [sum(index[k] for k in row) for row in blocks] + list(index[blocks.size:])
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) < TOL


# both sides of N r^n <= d^n, with the side each is on
SCORED = [
    (lambda: preset("bell"), 2, (2,), (2,), True),  # 4 * 1 <= 16
    (lambda: preset("ghz"), 1, (2, 2), (1, 1), True),  # 4 * 1 <= 8
    (lambda: preset("werner", p=0.3), 1, (2,), (2,), False),  # 4 * 4 > 4
    (rank3_spec, 1, (2, 2), (1, 2), False),  # 8 * 3 > 8
]


@pytest.mark.parametrize("state, n, counts, sizes, gram", SCORED,
                         ids=["bell-2", "ghz-1", "werner-1", "rank3-1"])
@pytest.mark.parametrize("kind", ["haar", "pauli"])
def test_message_success_matches_the_plain_references(state, n, counts, sizes, gram,
                                                      kind, monkeypatch):
    rho, groups, families, blocks = code_ensemble(state, n, counts, sizes, kind)
    tables = _record(monkeypatch, "pgm_success_table")
    got = _pgm_message_success(_sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF), rho.layout,
                               n, families, groups, blocks)
    assert bool(tables) == gram
    encoded, povm = dense_pgm(rho, families, groups)
    want = dense_message_success(encoded, povm.elements, blocks)
    assert got.shape == (len(blocks),)
    assert np.max(np.abs(got - want)) < TOL


def test_two_bell_sweep_at_n2_scores_in_gram_space(monkeypatch):
    """K = 16 gives 256 index tuples of rank 1 on a 256-dim state."""
    _forbid(monkeypatch, "_pgm", "tensor_power")
    rho, groups = preset("two-bell")
    tables = _record(monkeypatch, "pgm_success_table")
    report = encoding_experiment(rho, groups, 2, [16], 1, 0)
    assert len(tables) == 1
    assert 0 <= report.estimates["success_K16"] <= 1 + 1e-9


def run_code(tmp_path, config):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": {"name": "two-bell"}}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return main(["simulate-code", "--spec", str(spec), "--config", str(cfg),
                 "--out", str(tmp_path / "out"), "--seed", "3"])


CODE_N2 = {"n": 2, "rates": [0.5, 0.5], "family": "haar", "decoder": "pgm"}


def test_simulate_code_never_builds_the_dense_decoder(tmp_path, monkeypatch):
    _forbid(monkeypatch, "_pgm", "pgm_decoder")
    assert run_code(tmp_path, CODE_N2) == 0
    report = json.loads((tmp_path / "out" / "simulate-code.json").read_text())
    assert all(0 <= v <= 1 + 1e-9 for v in report["samples"]["success"])


def test_out_of_range_table_exits_invariant(tmp_path, monkeypatch):
    inner = protocols._psd_power

    def doubled(*args, **kwargs):
        return 2 * inner(*args, **kwargs)

    monkeypatch.setattr(protocols, "_psd_power", doubled)
    assert run_code(tmp_path, CODE_N2) == 3
    assert not (tmp_path / "out" / "simulate-code.json").exists()
