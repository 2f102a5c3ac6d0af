"""Differential tests: each stochastic command's stacked trials against the
per-trial loop they replace, bit for bit.

`chained_randomization_experiment`, `encoding_experiment` and the
`verify-lemmas` suites run their trials in chunks of stacked arrays
(`protocols._trial_chunks`). Every stacked step runs the same LAPACK or BLAS
call per item as a per-trial call does, so each sample, table and failure
entry must equal the plain per-trial reference byte for byte, whatever the
chunk size.
"""

import math

import numpy as np
import pytest

from qmap import protocols, regions
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    RANK_CUTOFF,
    _family_stack,
    _mixture,
    _pgm_message_success,
    _randomization_target,
    _sqrt_factor,
    chained_randomization_experiment,
    derived_rng,
    encoding_experiment,
    make_family,
    union_bound_check,
)
from qmap.qstate import (
    DensityMatrix,
    StateValidationError,
    SystemLayout,
    apply_local,
    check_psd,
    conjugate_local,
    label_groups,
    partial_trace,
    psd_violation,
    random_density,
    tensor_power,
    trace_norm,
)

TWO_BELL = {"preset": {"name": "two-bell"}}
GHZ4 = {"preset": {"name": "ghz", "params": {"parties": 4}}}
WERNER = {"preset": {"name": "werner", "params": {"p": 0.7}}}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def w_labels(spec):
    return list(spec.eavesdropper) if spec.eavesdropper else list(spec.receiver)


def reference_mix(rho, unitaries, on):
    """A uniform mixture summed one conjugation at a time, in order."""
    total = sum(conjugate_local(rho.matrix, u, on, rho.layout) for u in unitaries)
    return DensityMatrix(total / len(unitaries), rho.layout)


def reference_factor(marginal, n):
    """F^(x)n for the marginal's square-root factor F cut at RANK_CUTOFF."""
    single = _sqrt_factor(marginal.matrix, RANK_CUTOFF)
    factor = single
    for _ in range(n - 1):
        factor = np.kron(factor, single)
    return factor


def reference_target(marginal, n, on):
    """(I/d_on) (x) Tr_on(marginal^(x)n): the factor of each matrix unit |a><i|
    on `on` applied to F^(x)n, side by side, while no wider than d^n (as
    (factor, True)); else the dense target (as (matrix, False))."""
    factor, layout = reference_factor(marginal, n), marginal.layout.power(n)
    d_on = layout.dim_of(on)
    if d_on ** 2 * factor.shape[1] > layout.dim:
        return _randomization_target(tensor_power(marginal, n), on).matrix, False
    units = np.eye(d_on ** 2).reshape(-1, d_on, d_on)
    return np.hstack([apply_local(factor, e, on, layout) for e in units]) / math.sqrt(d_on), True


def reference_randomize(state, layout, unitaries, on):
    """One trial's mixture of a (matrix, is-factor) state: [U_k G] / sqrt(K) one
    block at a time while no wider than the space, else `reference_mix`."""
    x, factor = state
    if factor and len(unitaries) * x.shape[1] <= layout.dim:
        return np.hstack([apply_local(x, u, on, layout) for u in unitaries]) \
            / math.sqrt(len(unitaries)), True
    dense = x @ x.conj().T if factor else x
    return reference_mix(DensityMatrix(dense, layout), unitaries, on).matrix, False


def reference_distance(state, target):
    """One trial's ||rho - tau||_1: Gram form when both are factors whose widths
    sum to at most the space's dimension, else `trace_norm` of the dense forms."""
    (x, x_factor), (t, t_factor) = state, target
    if x_factor and t_factor and x.shape[1] + t.shape[1] <= len(t):
        r = np.linalg.qr(np.hstack([x, t]), mode="r")
        sign = np.repeat([1.0, -1.0], [x.shape[1], t.shape[1]])
        return trace_norm((r * sign) @ r.conj().T)
    return trace_norm((x @ x.conj().T if x_factor else x)
                      - (t @ t.conj().T if t_factor else t))


def reference_randomization(rho, senders, w, n, block_sizes, trials, seed, family):
    """The per-trial loop: one family per (trial, sender), one mixture and one
    distance per state, each state held as a factor while that is no wider
    than the space."""
    groups = label_groups(senders)
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]
    stages = []
    for z, (group, size) in enumerate(zip(copy_groups, block_sizes)):
        suffix = [lab for g in groups[z:] for lab in g] + w
        marginal = partial_trace(rho, suffix)
        factor, layout = reference_factor(marginal, n), marginal.layout.power(n)
        start = ((factor, True) if size * factor.shape[1] <= layout.dim
                 else (tensor_power(marginal, n).matrix, False))
        stages.append((group, layout, start, reference_target(marginal, n, group)))
        if z == 0:
            total_target = reference_target(marginal, n, sum(copy_groups, ()))
    samples = {"total_distance": [],
               **{f"stage_{z}_distance": [] for z in range(1, len(groups) + 1)}}
    for t in range(trials):
        families = [make_family(family, z, n, rho.layout.dim_of(g), l, seed, (t, z))
                    for z, (g, l) in enumerate(zip(groups, block_sizes), start=1)]
        for z, (fam, (group, layout, start, target)) in enumerate(zip(families, stages),
                                                                  start=1):
            randomized = reference_randomize(start, layout, fam.blocks, group)
            samples[f"stage_{z}_distance"].append(reference_distance(randomized, target))
            chain = (randomized if z == 1
                     else reference_randomize(chain, stages[0][1], fam.blocks, group))
        samples["total_distance"].append(reference_distance(chain, total_target))
    return samples


def reference_encoding(rho, senders, n, k_sweep, trials, seed, family):
    """The per-trial loop: one family per (size, trial, sender) and one
    `_pgm_message_success` call per trial."""
    groups = label_groups(senders)
    factor = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF)
    samples = {}
    for k in k_sweep:
        blocks = np.arange(k ** len(groups))[:, None]
        samples[f"success_K{k}"] = [
            float(np.mean(_pgm_message_success(factor, rho.layout, n, [
                make_family(family, z, n, rho.layout.dim_of(g), k, seed, (k, t, z))
                for z, g in enumerate(groups, start=1)], groups, blocks)))
            for t in range(trials)]
    return samples


def assert_same_samples(report, want):
    assert sorted(report.samples) == sorted(want)
    for name, values in want.items():
        assert same_bits(report.samples[name], values), name


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The chunk lengths of every `_trial_chunks` call (trials and trace norms)."""
    sizes = []
    inner = protocols._trial_chunks

    def recording(trials, trial_bytes):
        chunks = inner(trials, trial_bytes)
        sizes.append([len(c) for c in chunks])
        return chunks

    monkeypatch.setattr(protocols, "_trial_chunks", recording)
    return sizes


class TestRandomization:
    @pytest.mark.parametrize("spec, n, block_sizes, family", [
        (TWO_BELL, 1, [2, 2], "haar"),
        (TWO_BELL, 1, [4, 3], "haar"),
        (TWO_BELL, 1, [3, 1], "pauli"),
        (GHZ4, 1, [2, 3, 4], "haar"),
    ], ids=["two-bell-haar", "two-bell-haar-4-3", "two-bell-pauli", "ghz4-haar"])
    def test_samples_match_the_per_trial_loop(self, spec, n, block_sizes, family,
                                              chunk_sizes):
        spec = resolve_state_spec(spec)
        trials, seed = 7, 11
        report = chained_randomization_experiment(spec.state, spec.senders, w_labels(spec),
                                                  n, block_sizes, trials, seed, family)
        # small states: every trial (and every trace norm) in one chunk
        assert chunk_sizes and all(sizes == [trials] for sizes in chunk_sizes)
        assert_same_samples(report, reference_randomization(
            spec.state, spec.senders, w_labels(spec), n, block_sizes, trials, seed, family))

    @pytest.mark.parametrize("n, block_sizes, family", [
        (2, [4, 4], "haar"), (2, [16, 16], "pauli")], ids=["haar", "pauli"])
    def test_two_bell_at_n2_matches_the_per_trial_loop(self, n, block_sizes, family):
        """256-dim stage states, one trial per chunk: stage 1 in Gram form,
        stage 2 and the total densified for their distances."""
        spec = resolve_state_spec(TWO_BELL)
        args = (spec.state, spec.senders, w_labels(spec), n, block_sizes, 2, 4, family)
        assert_same_samples(chained_randomization_experiment(*args),
                            reference_randomization(*args))

    def test_a_chunk_counts_the_block_unitaries(self, chunk_sizes):
        """bell with blocks of 64: a trial's 64 block unitaries (4 KiB) outweigh
        its 4-dim state, and set the chunk."""
        spec = resolve_state_spec({"preset": {"name": "bell"}})
        chained_randomization_experiment(spec.state, spec.senders, ["B"], 1, [64], 300, 0)
        step = protocols.TRIAL_BYTES // (64 * 16 * 2 ** 2)
        assert chunk_sizes[0] == [step, 300 - step]

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_each_mixture_is_one_sum(self, count):
        layout = SystemLayout((("A", 2), ("B", 3), ("C", 2)))
        rho = random_density(layout, 12, count)
        blocks = _family_stack("haar", 1, 6, count, 3, [(t,) for t in range(4)])[:, :, 0]
        chain = _mixture(rho.matrix, layout, blocks, ["C", "B"])
        again = _mixture(chain, layout, blocks, ["B", "C"])
        for t in range(4):
            want = reference_mix(rho, blocks[t], ["C", "B"])
            assert same_bits(chain[t], want.matrix), t
            assert same_bits(again[t], reference_mix(want, blocks[t], ["B", "C"]).matrix), t

    def test_a_budget_of_three_trials_gives_the_same_samples(self, monkeypatch, chunk_sizes):
        spec = resolve_state_spec(TWO_BELL)
        args = (spec.state, spec.senders, w_labels(spec), 1, [2, 2], 7, 3)
        whole = chained_randomization_experiment(*args)
        stage_bytes = 16 * spec.state.dim ** 2  # stage 1 holds the whole two-bell state
        monkeypatch.setattr(protocols, "TRIAL_BYTES", 3 * stage_bytes)
        chunked = chained_randomization_experiment(*args)
        assert [7] in chunk_sizes and [3, 3, 1] in chunk_sizes
        assert_same_samples(chunked, whole.samples)


class TestEncoding:
    @pytest.mark.parametrize("spec, n, k_sweep, family", [
        (TWO_BELL, 1, [1, 2, 4], "haar"),
        (TWO_BELL, 2, [2], "haar"),
        (TWO_BELL, 1, [3], "pauli"),
        (WERNER, 1, [1, 2], "haar"),  # K=2: 2 tuples of rank 4 > d = 4, the dense path
    ], ids=["two-bell-n1", "two-bell-n2", "two-bell-pauli", "werner-dense"])
    def test_success_matches_the_per_trial_loop(self, spec, n, k_sweep, family):
        spec = resolve_state_spec(spec)
        trials, seed = 5, 2
        report = encoding_experiment(spec.state, spec.senders, n, k_sweep, trials, seed,
                                     family)
        assert_same_samples(report, reference_encoding(spec.state, spec.senders, n, k_sweep,
                                                       trials, seed, family))

    def test_a_budget_of_three_trials_gives_the_same_success(self, monkeypatch, chunk_sizes):
        spec = resolve_state_spec(TWO_BELL)
        args = (spec.state, spec.senders, 1, [2], 7, 4)
        whole = encoding_experiment(*args)
        walk_bytes = 16 * 4 * 16  # the 4 rank-1 tuples' columns on 16 dims
        monkeypatch.setattr(protocols, "TRIAL_BYTES", 3 * walk_bytes)
        chunked = encoding_experiment(*args)
        assert [7] in chunk_sizes and [3, 3, 1] in chunk_sizes
        assert_same_samples(chunked, whole.samples)


def _operators(rng, trials, count, d):
    g = rng.standard_normal((trials, count, d, d)) + 1j * rng.standard_normal(
        (trials, count, d, d))
    h = g @ g.conj().swapaxes(-1, -2)
    return h / (np.linalg.eigvalsh(h).max(axis=-1) * rng.uniform(1, 2, (trials, count))
                )[..., None, None]


def _violating_trial(d, count):
    """Operators diag(1, 0, ...) and rho = diag(0, y, 0, ...) with y > 4 count:
    Tr[rho] - Tr[Lhat rho] = y exceeds 2 sqrt(count y), and the chain agrees."""
    lam = np.zeros((d, d))
    lam[0, 0] = 1
    rho = np.zeros((d, d))
    rho[1, 1] = 4 * count + 1
    return np.stack([lam] * count), rho


class TestUnionBound:
    def test_each_result_is_one_call(self):
        rng = np.random.default_rng(3)
        lams = _operators(rng, 9, 3, 8)
        rhos = np.stack([random_density(SystemLayout((("S", 8),)), 8, rng).matrix
                         for _ in range(9)])
        results = union_bound_check(lams, rhos)
        assert len(results) == 9
        for t, got in enumerate(results):
            want = union_bound_check(list(lams[t]), rhos[t])
            assert same_bits([got.lhs, got.rhs, got.lambda_hat_trace, got.chain_trace],
                             [want.lhs, want.rhs, want.lambda_hat_trace, want.chain_trace])

    def test_a_failing_trial_is_its_own_assertion(self):
        rng = np.random.default_rng(4)
        lams = _operators(rng, 5, 3, 8)
        rhos = np.stack([random_density(SystemLayout((("S", 8),)), 8, rng).matrix
                         for _ in range(5)])
        lams[2], rhos[2] = _violating_trial(8, 3)
        results = union_bound_check(lams, rhos)
        with pytest.raises(AssertionError, match="union bound violated") as single:
            union_bound_check(list(lams[2]), rhos[2])
        assert isinstance(results[2], AssertionError)
        assert str(results[2]) == str(single.value)
        assert all(r.holds for t, r in enumerate(results) if t != 2)

    @pytest.mark.parametrize("bad", [(1, "operator"), (0, "I - operator")])
    def test_operators_are_checked_in_the_order_of_a_call_per_trial(self, bad):
        j, what = bad
        rng = np.random.default_rng(5)
        lams = _operators(rng, 3, 2, 4)
        # trial 1: operator j is not PSD (j = 1) or exceeds I (j = 0), and so
        # does trial 2's first operator the other way
        lams[1, j] = -lams[1, j] if what == "operator" else 2 * np.eye(4)
        lams[2, 0] = 2 * np.eye(4) if what == "operator" else -lams[2, 0]
        rhos = np.stack([random_density(SystemLayout((("S", 4),)), 4, rng).matrix] * 3)
        with pytest.raises(StateValidationError, match=f"^{what} is not PSD"):
            union_bound_check(lams, rhos)
        with pytest.raises(StateValidationError, match=f"^{what} is not PSD"):
            union_bound_check(list(lams[1]), rhos[1])

    def test_suite_failures_match_the_per_trial_loop(self, monkeypatch):
        """The suite's entries with trial 3 replaced by a violating one, against
        the per-trial loop with the same replacement."""
        inner = protocols.union_bound_check
        seen = [0]

        def injected(lams, rho):
            lams, rho = np.array(lams), np.array(rho)
            stacked = rho.ndim == 3
            if not stacked:
                lams, rho = lams[None], rho[None]
            for row in range(len(rho)):
                if seen[0] + row == 3:
                    lams[row], rho[row] = _violating_trial(8, 3)
            seen[0] += len(rho)
            if stacked:
                return inner(lams, rho)
            return inner(list(lams[0]), rho[0])

        monkeypatch.setattr(protocols, "union_bound_check", injected)
        got = protocols._lemma_union_bound_suite(6, 40)
        seen[0] = 0
        failures = []
        for trial in range(40):
            rng = derived_rng(6, 4, trial)
            lams = []
            for _ in range(3):
                g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                h = g @ g.conj().T
                lams.append(h / (np.linalg.eigvalsh(h).max() * (1 + rng.uniform(0, 1))))
            rho = random_density(SystemLayout((("S", 8),)), 8, rng)
            try:
                protocols.union_bound_check(lams, rho.matrix)
            except AssertionError as exc:
                failures.append({"trial": trial, "error": str(exc)})
        assert got == {"passed": False, "cases": 40, "failures": failures}
        assert [f["trial"] for f in failures] == [3]

    def test_a_budget_of_three_trials_gives_the_same_suite(self, monkeypatch, chunk_sizes):
        whole = protocols._lemma_union_bound_suite(8, 7)
        chain_bytes = 16 * (2 ** 3 * 8) ** 2
        monkeypatch.setattr(protocols, "TRIAL_BYTES", 3 * chain_bytes)
        assert protocols._lemma_union_bound_suite(8, 7) == whole
        assert [7] in chunk_sizes and [3, 3, 1] in chunk_sizes


def _table_values(table):
    return [table.at(m) for m in range(1 << table.z_count)]


class TestLemmaTables:
    @pytest.mark.parametrize("suite, b, e", [(1, (), ("V",)), (3, ("B",), ("E",))])
    def test_tables_match_one_state_at_a_time(self, suite, b, e, chunk_sizes):
        sizes, per_size, seed = [1, 2, 3], 4, 9
        got = list(protocols._lemma_tables(seed, suite, sizes, per_size, b, e))
        want = []
        for z in sizes:
            senders = [f"A{i}" for i in range(1, z + 1)]
            layout = SystemLayout(tuple((lab, 2) for lab in (*senders, *b, *e)))
            for trial in range(per_size):
                rho = random_density(layout, layout.dim, derived_rng(seed, suite, z, trial))
                chat, dhat, _ = regions.region_tables(rho, senders, b, e)
                want.append((z, trial, chat, dhat))
        assert [g[:2] for g in got] == [w[:2] for w in want]
        for (_, _, chat, dhat), (_, _, chat_want, dhat_want) in zip(got, want):
            assert same_bits(_table_values(chat), _table_values(chat_want))
            assert same_bits(_table_values(dhat), _table_values(dhat_want))
        assert chunk_sizes == [[per_size]] * len(sizes)  # one walk per size

    def test_region_tables_of_a_sequence_are_each_states(self):
        layout = SystemLayout((("A1", 2), ("A2", 3), ("B", 2), ("E", 2)))
        states = [random_density(layout, 5, seed) for seed in range(4)]
        stacked = regions.region_tables(states, ["A1", "A2"], ["B"], ["E"])
        for rho, (chat, dhat, region) in zip(states, stacked):
            chat_want, dhat_want, region_want = regions.region_tables(
                rho, ["A1", "A2"], ["B"], ["E"])
            assert same_bits(_table_values(chat), _table_values(chat_want))
            assert same_bits(_table_values(dhat), _table_values(dhat_want))
            assert region == region_want

    def test_a_budget_of_three_states_gives_the_same_suite(self, monkeypatch, chunk_sizes):
        whole = protocols._lemma_structure_suite(2, [3], 7)
        state_bytes = 16 * (2 ** 4) ** 2  # A1..A3 and V
        monkeypatch.setattr(protocols, "TRIAL_BYTES", 3 * state_bytes)
        assert protocols._lemma_structure_suite(2, [3], 7) == whole
        assert [7] in chunk_sizes and [3, 3, 1] in chunk_sizes


class TestStackedGates:
    def _stack(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        return g @ g.conj().swapaxes(-1, -2)

    def test_psd_violation_of_a_stack_is_each_matrix(self):
        h = self._stack()
        h[3] -= 2 * np.eye(4) * np.linalg.eigvalsh(h[3]).min()
        h[3] -= 1e-3 * np.eye(4)
        got = psd_violation(h.copy(), 1e-10)
        for i, m in enumerate(h):
            want = psd_violation(m.copy(), 1e-10)
            assert (np.isnan(got[i]) if want is None else got[i] == want), i
        assert np.isnan(got).sum() == 4

    @pytest.mark.parametrize("first, second", [
        ("psd", "hermitian"), ("hermitian", "psd"), ("psd", "psd")])
    def test_check_psd_raises_for_the_first_failing_matrix(self, first, second):
        """A stack is checked Hermitian first: the first non-Hermitian matrix
        raises, else the first that is not PSD, with the message of a check
        on it alone."""
        h = self._stack()
        for i, kind, scale in ((1, first, 10), (3, second, 20)):
            if kind == "psd":
                h[i] = h[i] - scale * np.eye(4) * np.abs(h[i]).max()
            else:
                h[i, 0, 1] += 1
        failing = 3 if second == "hermitian" else 1
        with pytest.raises(StateValidationError) as single:
            check_psd(h[failing], 1e-10, "matrix")
        with pytest.raises(StateValidationError) as stacked:
            check_psd(h, 1e-10, "matrix")
        assert str(stacked.value) == str(single.value)

    def test_a_stack_names_each_matrix(self):
        h = self._stack()
        h[4] = -h[4]
        with pytest.raises(StateValidationError, match="^fifth is not PSD"):
            check_psd(h, 1e-10, ["first", "second", "third", "fourth", "fifth"])


def test_trial_chunks_cover_every_trial_once():
    for trials in (1, 2, 7, 50):
        for trial_bytes in (1, 1 << 12, 1 << 20, 1 << 24):
            chunks = protocols._trial_chunks(trials, trial_bytes)
            assert [t for c in chunks for t in c] == list(range(trials))
            step = max(1, protocols.TRIAL_BYTES // trial_bytes)
            assert all(len(c) == min(step, trials - c[0]) for c in chunks)
    assert math.prod(len(c) for c in protocols._trial_chunks(3, 256 ** 2 * 16)) == 1
