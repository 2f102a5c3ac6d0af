"""`simulate-randomization` in factor space, against the dense references.

`chained_randomization_experiment` holds each stage state, its target and
the chained total as a square-root factor while that factor is no wider
than the space, and reads a distance between two factors from the Gram
form of [G T]. Every sample must agree with the plain dense `randomize`
within 1e-12. A state whose factors are wider than the space (a full-rank
marginal) takes the dense path and keeps its bits. A factor-held mixture is
checked by its trace, so non-unitary blocks fail as a dense mixture does.
The `Povm` check runs one stacked `check_psd` per chunk of elements.
"""

import json

import numpy as np
import pytest

from qmap import protocols, qstate
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    RANK_CUTOFF,
    Povm,
    _sqrt_factor,
    chained_randomization_experiment,
    make_family,
    randomize,
)
from qmap.qstate import (
    StateValidationError,
    SystemLayout,
    check_psd,
    conjugate_local,
    label_groups,
    partial_trace,
    random_density,
    tensor_power,
    trace_norm,
)

TWO_BELL = {"preset": {"name": "two-bell"}}
GHZ4 = {"preset": {"name": "ghz", "params": {"parties": 4}}}
A1A2E = SystemLayout((("A1", 2), ("A2", 2), ("E", 2)))


def w_labels(spec):
    return list(spec.eavesdropper) if spec.eavesdropper else list(spec.receiver)


def randomize_samples(rho, senders, w, n, block_sizes, trials, seed, family):
    """Each stage and total sample from `randomize` on the dense n-copy marginal."""
    groups = label_groups(senders)
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]
    w_copies = list(SystemLayout.copy_major(w, n))
    samples = {"total_distance": [],
               **{f"stage_{z}_distance": [] for z in range(1, len(groups) + 1)}}
    for t in range(trials):
        families = [make_family(family, z, n, rho.layout.dim_of(g), l, seed, (t, z))
                    for z, (g, l) in enumerate(zip(groups, block_sizes), start=1)]
        for z in range(len(groups)):
            suffix = [lab for g in groups[z:] for lab in g] + w
            marg_n = tensor_power(partial_trace(rho, suffix), n)
            rest = [lab for g in copy_groups[z + 1:] for lab in g] + w_copies
            _, dist = randomize(marg_n, [copy_groups[z]], rest, [families[z]])
            samples[f"stage_{z + 1}_distance"].append(dist)
        _, total = randomize(tensor_power(partial_trace(rho, sum(groups, ()) + tuple(w)), n),
                             copy_groups, w_copies, families)
        samples["total_distance"].append(total)
    return samples


def rank2_state():
    return random_density(A1A2E, 2, 3), [["A1"], ["A2"]], ["E"]


CASES = {
    "two-bell-n1-haar": (TWO_BELL, 1, [4, 4], "haar"),
    "two-bell-n1-pauli": (TWO_BELL, 1, [4, 3], "pauli"),
    "two-bell-n2-haar": (TWO_BELL, 2, [4, 4], "haar"),
    "two-bell-n2-pauli": (TWO_BELL, 2, [16, 5], "pauli"),
    "ghz4-n2-haar": (GHZ4, 2, [2, 3, 4], "haar"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_sample_matches_randomize(case):
    spec_json, n, block_sizes, family = CASES[case]
    spec = resolve_state_spec(spec_json)
    args = (spec.state, spec.senders, w_labels(spec), n, block_sizes, 2, 7, family)
    report = chained_randomization_experiment(*args)
    want = randomize_samples(*args)
    assert sorted(report.samples) == sorted(want)
    for name, values in want.items():
        assert np.max(np.abs(np.subtract(report.samples[name], values))) <= 1e-12, name


@pytest.mark.parametrize("family", ["haar", "pauli"])
def test_a_rank_2_mixed_state_matches_randomize(family):
    rho, senders, w = rank2_state()
    args = (rho, senders, w, 2, [2, 3], 3, 5, family)
    report = chained_randomization_experiment(*args)
    for name, values in randomize_samples(*args).items():
        assert np.max(np.abs(np.subtract(report.samples[name], values))) <= 1e-12, name


def test_low_rank_stages_form_no_dense_mixture(monkeypatch):
    """Two-bell at n=2: every mixture is a factor; no `_mixture` runs."""
    monkeypatch.setattr(protocols, "_mixture", None)
    spec = resolve_state_spec(TWO_BELL)
    chained_randomization_experiment(spec.state, spec.senders, w_labels(spec), 2, [4, 4],
                                     1, 0)


def row_target(marginal, n, on):
    """(I/d_on) (x) Tr_on(F F^dag) for F = F_1^(x)n, F_1 the marginal's
    square-root factor cut at RANK_CUTOFF, written out: F's `on` row axes
    moved to the front, Tr_on summed over them and the columns, the Kronecker
    product with I/d_on, and the axes moved back to the n-copy layout."""
    layout, single = marginal.layout.power(n), _sqrt_factor(marginal.matrix, RANK_CUTOFF)
    factor = single
    for _ in range(n - 1):
        factor = np.kron(factor, single)
    pos, k, d_on = [layout.index(lab) for lab in on], len(layout.dims), layout.dim_of(on)
    rows = np.moveaxis(factor.reshape(layout.dims + (-1,)), pos, range(len(pos)))
    rows = rows.reshape(d_on, layout.dim // d_on, -1)
    rest = np.tensordot(rows, rows.conj(), axes=([0, 2], [0, 2]))
    moved = [layout.dims[p] for p in pos] + [d for i, d in enumerate(layout.dims)
                                             if i not in pos]
    t = np.kron(np.eye(d_on) / d_on, rest).reshape(moved * 2)
    front = list(range(len(pos)))
    t = np.moveaxis(t, front + [k + i for i in front], pos + [k + p for p in pos])
    return t.reshape(layout.dim, layout.dim)


def dense_samples(rho, senders, w, n, block_sizes, trials, seed, family):
    """The dense per-trial loop: every mixture summed one conjugation at a
    time on the n-copy marginal, every distance one `trace_norm`, every
    target (I/d_on) (x) Tr_on(F F^dag) from `row_target`."""
    groups = label_groups(senders)
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]

    def mix(m, layout, blocks, on):
        return sum(conjugate_local(m, u, on, layout) for u in blocks) / len(blocks)

    stages = []
    for z, group in enumerate(copy_groups):
        marginal = partial_trace(rho, [lab for g in groups[z:] for lab in g] + w)
        stages.append((group, tensor_power(marginal, n), row_target(marginal, n, group)))
        if z == 0:
            total_target = row_target(marginal, n, sum(copy_groups, ()))
    samples = {"total_distance": [],
               **{f"stage_{z}_distance": [] for z in range(1, len(groups) + 1)}}
    for t in range(trials):
        for z, (g, l, (group, marg_n, target)) in enumerate(
                zip(groups, block_sizes, stages), start=1):
            blocks = make_family(family, z, n, rho.layout.dim_of(g), l, seed, (t, z)).blocks
            mixed = mix(marg_n.matrix, marg_n.layout, blocks, group)
            samples[f"stage_{z}_distance"].append(trace_norm(mixed - target))
            chain = mixed if z == 1 else mix(chain, stages[0][1].layout, blocks, group)
        samples["total_distance"].append(trace_norm(chain - total_target))
    return samples


@pytest.mark.parametrize("family, block_sizes", [("haar", [2, 3]), ("pauli", [16, 16])])
def test_a_full_rank_state_keeps_the_dense_bits(family, block_sizes, monkeypatch):
    """Each factor of a full-rank state is wider than the space, so every
    state is dense and every sample has the dense loop's bits."""
    factors = []
    inner = protocols._State

    def recording(array, held):
        factors.append(held)
        return inner(array, held)

    monkeypatch.setattr(protocols, "_State", recording)
    args = (random_density(A1A2E, 8, 4), [["A1"], ["A2"]], ["E"], 2, block_sizes, 3, 6, family)
    report = chained_randomization_experiment(*args)
    assert factors and not any(factors)
    for name, values in dense_samples(*args).items():
        got = np.array(report.samples[name])
        assert got.tobytes() == np.array(values).tobytes(), name


def non_unitary_stack(monkeypatch):
    """`_family_stack` with every per-copy factor scaled by 1.1, so a block on
    n copies has U^dag U = 1.21^n I."""
    inner = protocols._family_stack
    monkeypatch.setattr(protocols, "_family_stack", lambda *args: 1.1 * inner(*args))


def test_non_unitary_blocks_fail_the_factor_trace_check(monkeypatch):
    non_unitary_stack(monkeypatch)
    spec = resolve_state_spec(TWO_BELL)
    with pytest.raises(StateValidationError, match="^trace .* is not 1 within tolerance$"):
        chained_randomization_experiment(spec.state, spec.senders, w_labels(spec), 1, [2, 2],
                                         2, 0)


def test_non_unitary_blocks_exit_3_through_the_cli(monkeypatch, tmp_path, capsys):
    non_unitary_stack(monkeypatch)
    (tmp_path / "spec.json").write_text(json.dumps(TWO_BELL))
    (tmp_path / "config.json").write_text(json.dumps({"n": 2, "block_sizes": [4, 4],
                                                      "trials": 1}))
    assert main(["simulate-randomization", "--spec", str(tmp_path / "spec.json"),
                 "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out"),
                 "--seed", "0"]) == 3
    assert capsys.readouterr().err.startswith("error: trace ")
    assert not (tmp_path / "out").exists()


class TestStackedPovmCheck:
    @staticmethod
    def elements(count, d=4):
        """`count` PSD elements that sum to the identity."""
        rng = np.random.default_rng(count)
        g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        h = g @ g.conj().swapaxes(-1, -2)
        root = protocols._psd_power(h.sum(axis=0), -0.5)
        return [root @ e @ root for e in h]

    @pytest.mark.parametrize("bad", ["hermitian", "psd", "nan"])
    def test_one_bad_element_keeps_the_single_check_message(self, bad):
        elements = self.elements(6)
        if bad == "hermitian":
            elements[4] = elements[4] + np.triu(np.ones((4, 4)), 1)
        elif bad == "psd":
            elements[4] = elements[4] - np.eye(4)
        else:
            elements[4] = elements[4] * np.nan
        with pytest.raises(StateValidationError) as single:
            check_psd(elements[4], protocols.POVM_PSD_TOL, "POVM element")
        with pytest.raises(StateValidationError) as stacked:
            Povm(tuple(elements))
        assert str(stacked.value) == str(single.value)

    def test_one_check_per_chunk(self, monkeypatch):
        """Ten 4-dim elements with TRIAL_BYTES at three elements: four stacked
        checks of 3, 3, 3 and 1, and a bad element in the last chunk still raises."""
        calls = []
        inner = qstate.check_psd

        def counted(m, tol, what):
            calls.append(len(m))
            return inner(m, tol, what)

        monkeypatch.setattr(protocols, "check_psd", counted)
        monkeypatch.setattr(protocols, "TRIAL_BYTES", 3 * 16 * 4 * 4)
        elements = self.elements(10)
        Povm(tuple(elements))
        assert calls == [3, 3, 3, 1]
        elements[9] = elements[9] - np.eye(4)
        with pytest.raises(StateValidationError, match="^POVM element is not PSD"):
            Povm(tuple(elements))
