"""One path per protocol operation, checked against plain references.

The references are the direct forms: the explicit sum over all 2^Z outcome
patterns of the gentle chain, and a message state as the mean of `encode`
over its block tuples. Also covered: a budget is checked before anything is
allocated, and the CLI fixes that ride along (an empty W, distinct
`k_sweep` sizes, the `verify-lemmas` seed).
"""

import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from qmap import protocols
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    MAX_MESSAGES,
    BudgetError,
    CodeSpec,
    Povm,
    _psd_power,
    build_qmap_code,
    chained_randomization_experiment,
    derived_rng,
    encode,
    encoding_experiment,
    evaluate_code,
    identity_family,
    pgm_decoder,
    sequential_decoder,
    union_bound_check,
)
from qmap.qstate import (
    SystemLayout,
    apply_local,
    apply_unitary,
    conjugate_local,
    partial_trace,
    random_density,
    tensor_power,
)


def pattern_sum(ops_per_stage, apply, eye):
    """sum over b of C^dag C, C = O_Z^{b_Z} ... O_1^{b_1}, one product per pattern;
    `apply(chain, z, op)` left-multiplies the chain by stage z's operator."""
    total = 0
    for bits in product((0, 1), repeat=len(ops_per_stage)):
        chain = eye
        for z, b in enumerate(bits):
            chain = apply(chain, z, ops_per_stage[z][b])
        total = total + chain.conj().T @ chain
    return total


def reference_sequential_elements(rho, sender_groups, v_labels, families):
    """The gentle decoder's elements with the explicit outcome-pattern sum."""
    layout = rho.layout
    stages, stage_labels = [], []
    for z, fam in enumerate(families):
        labels = [lab for g in sender_groups[: z + 1] for lab in g] + list(v_labels)
        marginal = partial_trace(rho, labels)
        group = list(sender_groups[z])
        encoded = [apply_unitary(marginal, fam.block(k), group) for k in range(fam.size)]
        povm = pgm_decoder(encoded, [1.0 / fam.size] * fam.size, fold_completion=True)
        ops = []
        for k in range(fam.size):
            upsilon = conjugate_local(_psd_power(povm.elements[k], 0.5),
                                      fam.block(k).conj().T, group, marginal.layout)
            sq = upsilon @ upsilon
            ops.append((sq, upsilon @ _psd_power(np.eye(sq.shape[0]) - sq, 0.5)))
        stages.append(ops)
        stage_labels.append(list(marginal.layout.labels))

    def apply(chain, z, op):
        return apply_local(chain, op, stage_labels[z], layout)

    elements = []
    for k_tuple in product(*[range(f.size) for f in families]):
        lam = pattern_sum([stages[z][k] for z, k in enumerate(k_tuple)], apply,
                          np.eye(rho.dim, dtype=complex))
        for z, k in enumerate(k_tuple):
            lam = conjugate_local(lam, families[z].block(k), list(sender_groups[z]), layout)
        elements.append(lam)
    return elements


@pytest.mark.parametrize("preset, rates", [
    ({"name": "two-bell"}, [1, 1]),
    ({"name": "ghz", "params": {"parties": 4}}, [0.3, 0.3, 0.3]),
])
def test_sequential_decoder_matches_pattern_sum(preset, rates):
    spec = resolve_state_spec({"preset": preset})
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           1, rates, (rates, [0.0] * len(rates)), 11, decoder="sequential")
    v_labels = list(code.b_labels) + list(code.e_labels)
    rho_n = tensor_power(spec.state, 1)
    povm, _ = sequential_decoder(rho_n, code.sender_groups, v_labels, code.families)
    expected = reference_sequential_elements(rho_n, code.sender_groups, v_labels,
                                             code.families)
    assert len(povm.elements) == len(expected)
    for got, want in zip(povm.elements, expected):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_union_bound_matches_pattern_sum(stages):
    rng = derived_rng(5, stages)
    dim = 4
    lams = []
    for _ in range(stages):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = g @ g.conj().T
        lams.append(h / (np.linalg.eigvalsh(h).max() * (1 + rng.uniform(0, 1))))
    rho = random_density(SystemLayout((("S", dim),)), dim, rng)
    pieces = [(l, _psd_power(l, 0.5) @ _psd_power(np.eye(dim) - l, 0.5)) for l in lams]
    lam_hat = pattern_sum(pieces, lambda chain, z, op: op @ chain, np.eye(dim))
    expected = float(np.real(np.trace(lam_hat @ rho.matrix)))
    assert abs(union_bound_check(lams, rho).lambda_hat_trace - expected) < 1e-12


@pytest.mark.parametrize("family", ["haar", "pauli"])
def test_evaluate_code_message_states_match_encode_mean(family, monkeypatch):
    spec = resolve_state_spec({"preset": {"name": "two-bell"}})
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           1, [1, 1], ([2, 2], [1, 1]), 4, family=family)
    assert code.block_sizes == (2, 2)
    mixes = []
    inner = protocols._mix

    def recording(*args):
        mixes.append(inner(*args))
        return mixes[-1]

    monkeypatch.setattr(protocols, "_mix", recording)
    report = evaluate_code(code, spec.state)
    states = mixes[code.z_count - 1::code.z_count]  # the last sender's mix per message
    rho_n = tensor_power(spec.state, code.n)
    for idx, m_tuple in enumerate(product(*[range(m) for m in code.message_counts])):
        k_tuples = [[m * l_z + l for m, l_z, l in zip(m_tuple, code.block_sizes, l_tuple)]
                    for l_tuple in product(*[range(l) for l in code.block_sizes])]
        encoded = encode(rho_n, code.families, code.sender_groups, k_tuples)
        want = sum(s.matrix for s in encoded) / len(encoded)
        assert np.max(np.abs(states[idx].matrix - want)) < 1e-12
        success = float(np.real(np.trace(code.decoder.elements[idx] @ want)))
        assert abs(report.samples["success"][idx] - success) < 1e-12
    assert len(states) == report.trials == code.message_space
    assert report.extra["exact"] is True


def test_oversized_message_space_is_refused_before_any_state(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr(protocols, "tensor_power", forbidden)
    monkeypatch.setattr(protocols, "_mix", forbidden)
    count = 65  # 65 * 65 = 4225 messages
    assert count * count > MAX_MESSAGES
    families = tuple(identity_family(z, 1, 2, size=count) for z in (1, 2))
    code = CodeSpec(1, 2, (("A1_1",), ("A2_1",)), ("B_1",), (), (count, count), (1, 1),
                    families, Povm((np.eye(8),)), "identity", "pgm", None)
    with pytest.raises(BudgetError, match="message space 4225"):
        evaluate_code(code, resolve_state_spec({"preset": {"name": "two-bell"}}).state)


def test_budget_is_checked_before_tensor_power(monkeypatch):
    spec = resolve_state_spec({"preset": {"name": "bell"}})
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           1, [1], ([2], [1]), 0, family="pauli")

    def forbidden(*args, **kwargs):
        raise AssertionError("tensor_power ran before the budget check")

    monkeypatch.setattr(protocols, "tensor_power", forbidden)
    n = 7  # bell: 4^7 = 16384 > 4096
    calls = [
        lambda: build_qmap_code(spec.state, spec.senders, spec.receiver,
                                spec.eavesdropper, n, [1], ([1], [0]), 0),
        lambda: chained_randomization_experiment(spec.state, spec.senders, ["B"], n,
                                                 [2], 1, 0),
        lambda: encoding_experiment(spec.state, spec.senders, n, [2], 1, 0),
        lambda: evaluate_code(replace(code, n=n), spec.state),
    ]
    for call in calls:
        with pytest.raises(BudgetError):
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


def test_randomization_with_empty_w(tmp_path):
    spec = {"preset": {"name": "bell"}, "senders": ["A1", "B"], "receiver": [],
            "eavesdropper": []}
    config = {"n": 1, "block_sizes": [2, 2], "trials": 1}
    assert run(tmp_path, "simulate-randomization", config, spec, seed=0) == 0
    report = json.loads((tmp_path / "out" / "simulate-randomization.json").read_text())
    distances = [v for vals in report["samples"].values() for v in vals]
    assert len(distances) == 3
    assert all(0 <= v <= 2 for v in distances)


def test_repeated_k_sweep_size_is_rejected(tmp_path, capsys):
    config = {"k_sweep": [2, 2], "trials": 2}
    assert run(tmp_path, "simulate-encoding", config, {"preset": {"name": "bell"}},
               seed=3) == 2
    assert "$.k_sweep" in capsys.readouterr().err
    assert not (tmp_path / "out" / "simulate-encoding.json").exists()


LEMMAS = {"sizes": [2], "states_per_size": 1, "union_trials": 1}


@pytest.mark.parametrize("cli_seed, expected", [(None, 5), (9, 9)])
def test_verify_lemmas_seed(tmp_path, cli_seed, expected):
    """--seed, else master_seed: the report equals a run given only that seed."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert run(first, "verify-lemmas", {"master_seed": 5, **LEMMAS}, seed=cli_seed) == 0
    assert run(second, "verify-lemmas", LEMMAS, seed=expected) == 0
    report = (first / "out" / "verify-lemmas.json").read_bytes()
    assert json.loads(report)["seed"] == expected
    assert report == (second / "out" / "verify-lemmas.json").read_bytes()
