"""The PGM scored in Gram space, against the dense decoder as reference.

`pgm_success_table` reads Tr[E_k' rho_k] of the uniform-prior pretty-good
measurement from the square root of the ensemble's Gram matrix. The
reference is the dense path: `pgm_decoder` on the encoded n-copy states,
and the code's coarse-grained decoder, which `CodeSpec.decoder` builds on
first access. Beyond the dense reach, Pauli superdense coding has the known
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
    _sqrt_factor,
    build_qmap_code,
    encode,
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


def dense_table(rho, families, groups):
    """Tr[E_k' rho_k] from the dense PGM of the encoded n-copy states."""
    n = families[0].n
    k_tuples = list(product(*[range(f.size) for f in families]))
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]
    encoded = encode(tensor_power(rho, n), families, copy_groups, k_tuples)
    povm = pgm_decoder(encoded, [1.0 / len(encoded)] * len(encoded))
    return np.array([[np.real(np.einsum("ij,ji->", el, s.matrix)) for s in encoded]
                     for el in povm.elements[: len(k_tuples)]])


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
    # (state, n, rates, (C, D), family): the table is attached when N r^n <= d^n
    ("bell", 2, [1.0], ([1.5], [0.5]), "haar"),
    ("two-bell", 2, [0.5, 0.5], ([1.0, 1.0], [0.5, 0.5]), "haar"),
    ("two-bell", 2, [0.5, 0.5], ([1.0, 1.0], [0.5, 0.5]), "pauli"),
    ("ghz", 1, [1.0, 1.0], ([1.0, 1.0], [0.0, 0.0]), "haar"),
    ("rank3", 1, [1.0, 0.0], ([1.0, 0.0], [0.0, 0.0]), "haar"),
    ("werner", 1, [1.0], ([2.0], [1.0]), "haar"),  # full rank: no table
]


@pytest.mark.parametrize("name, n, rates, splits, kind", CODES)
def test_evaluate_code_success_matches_lazy_decoder(name, n, rates, splits, kind):
    rho, groups = STATES[name]()
    code = build_qmap_code(rho, groups, (), (), n, rates, splits, 5, family=kind)
    rank = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF).shape[1]
    count = int(np.prod([f.size for f in code.families]))
    assert (code.success_table is not None) == (count * rank ** n <= rho.dim ** n)
    assert "decoder" not in vars(code)  # not built yet
    report = evaluate_code(code, rho)
    rho_n = tensor_power(rho, n)
    for idx, m_tuple in enumerate(product(*[range(m) for m in code.message_counts])):
        k_tuples = [[m * l_z + l for m, l_z, l in zip(m_tuple, code.block_sizes, l_tuple)]
                    for l_tuple in product(*[range(l) for l in code.block_sizes])]
        state = sum(s.matrix for s in encode(rho_n, code.families, code.sender_groups,
                                             k_tuples)) / len(k_tuples)
        want = float(np.real(np.einsum("ij,ji->", code.decoder.elements[idx], state)))
        assert abs(report.samples["success"][idx] - want) < TOL
    assert code.decoder is code.decoder  # built once


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
    assert code.success_table.shape == (64, 64)
    assert np.max(np.abs(np.diag(code.success_table) - 1)) < TOL
    with pytest.raises(AssertionError, match="dense decoder path"):
        code.decoder


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
