import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap.presets import _preset, bell_pair
from qmap.protocols import (
    BudgetError,
    Povm,
    SimulationReport,
    build_qmap_code,
    chained_randomization_experiment,
    check_dim_budget,
    derived_rng,
    evaluate_code,
    haar_unitary,
    identity_family,
    make_family,
    pauli_family,
    pgm_decoder,
    povm_success,
    randomize,
    sequential_decoder,
    typical_projector,
    union_bound_check,
    weyl_unitaries,
)
from qmap.qstate import (
    DensityMatrix,
    SystemLayout,
    maximally_mixed,
    partial_trace,
    pure_state,
    random_density,
    tensor,
    tensor_power,
    trace_norm,
)


class TestRngContract:
    def test_derived_streams_independent_of_order(self):
        a = derived_rng(7, 1, 2).standard_normal(4)
        _ = derived_rng(7, 9, 9).standard_normal(100)
        b = derived_rng(7, 1, 2).standard_normal(4)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = derived_rng(7, 1).standard_normal(4)
        b = derived_rng(7, 2).standard_normal(4)
        assert not np.array_equal(a, b)


class TestUnitarySampling:
    def test_haar_is_unitary(self):
        for d in (2, 3, 5):
            u = haar_unitary(d, np.random.default_rng(0))
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10

    def test_haar_first_moment(self):
        # E[u rho u^dag] = I/d; 2000 samples at d=2 should be within 5e-2
        rng = np.random.default_rng(42)
        rho = np.diag([1.0, 0.0])
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(2000):
            u = haar_unitary(2, rng)
            acc += u @ rho @ u.conj().T
        assert np.max(np.abs(acc / 2000 - np.eye(2) / 2)) < 5e-2

    def test_weyl_count_and_unitarity(self):
        ops = weyl_unitaries(3)
        assert len(ops) == 9
        for u in ops:
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10

    def test_weyl_exact_twirl(self):
        rng = np.random.default_rng(1)
        rho = random_density(SystemLayout((("A", 3),)), 3, rng).matrix
        acc = sum(u @ rho @ u.conj().T for u in weyl_unitaries(3)) / 9
        assert np.max(np.abs(acc - np.eye(3) / 3)) < 1e-10


class TestUnitaryFamily:
    def test_haar_family_reproducible_from_master_seed(self):
        f1 = make_family("haar", 1, 2, 2, 3, 99, (1,))
        f2 = make_family("haar", 1, 2, 2, 3, 99, (1,))
        assert np.array_equal(f1.block(2), f2.block(2))

    def test_block_is_kron_of_factors(self):
        fam = make_family("haar", 1, 2, 2, 1, 5, (1,))
        expected = np.kron(fam.per_index[0][0], fam.per_index[0][1])
        assert np.array_equal(fam.block(0), expected)

    def test_pauli_family_size(self):
        fam = pauli_family(1, 2, 2)
        assert fam.size == 16
        assert pauli_family(1, 2, 2, size=4).size == 4

    def test_identity_family(self):
        fam = identity_family(1, 1, 3, size=2)
        assert np.array_equal(fam.block(0), np.eye(3))


class TestRandomize:
    def test_full_pauli_twirl_exact(self):
        rho = bell_pair()
        fam = pauli_family(1, 1, 2)
        out, dist = randomize(rho, [("A1",)], ["B"], [fam])
        assert dist < 1e-10
        assert np.max(np.abs(out.matrix - np.eye(4) / 4)) < 1e-10

    def test_identity_family_analytic_distance(self):
        rho = bell_pair()
        fam = identity_family(1, 1, 2)
        _, dist = randomize(rho, [("A1",)], ["B"], [fam])
        pi_w = np.kron(np.eye(2) / 2, np.eye(2) / 2)
        assert abs(dist - trace_norm(rho.matrix - pi_w)) < 1e-12

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            check_dim_budget(8192)


class TestPgmDecoder:
    def test_orthogonal_states_decoded_perfectly(self):
        layout = SystemLayout((("A", 2),))
        states = [pure_state([1, 0], layout), pure_state([0, 1], layout)]
        povm = pgm_decoder(states, [0.5, 0.5])
        assert abs(povm_success(povm, states) - 1.0) < 1e-10

    def test_bell_basis_projective(self):
        rho = bell_pair()
        fam = pauli_family(1, 1, 2, size=4)
        from qmap.qstate import apply_unitary
        states = [apply_unitary(rho, fam.block(k), ["A1"]) for k in range(4)]
        povm = pgm_decoder(states, [0.25] * 4)
        assert abs(povm_success(povm, states) - 1.0) < 1e-10

    def test_identical_states_chance_level(self):
        s = maximally_mixed(SystemLayout((("A", 2),)))
        povm = pgm_decoder([s, s], [0.5, 0.5])
        assert abs(povm_success(povm, [s, s]) - 0.5) < 1e-10

    def test_completion_appended_on_rank_deficient_ensemble(self):
        layout = SystemLayout((("A", 2),))
        s = pure_state([1, 0], layout)
        povm = pgm_decoder([s], [1.0])
        assert len(povm) == 2

    def test_fold_completion_keeps_count(self):
        layout = SystemLayout((("A", 2),))
        s = pure_state([1, 0], layout)
        povm = pgm_decoder([s], [1.0], fold_completion=True)
        assert len(povm) == 1

    def test_povm_completeness_enforced(self):
        with pytest.raises(Exception):
            Povm((np.eye(2) * 0.5,))


class TestSequentialDecoder:
    def test_two_senders_orthogonal_case(self):
        spec = _preset("two-bell", {})
        fams = [pauli_family(1, 1, 2, size=2), pauli_family(2, 1, 2, size=2)]
        povm, success = sequential_decoder(
            spec.state, spec.senders, spec.receiver, fams)
        assert success > 1 - 1e-9
        assert len(povm) == 4

    def test_matches_direct_success_evaluation(self):
        from qmap.qstate import apply_unitary
        spec = _preset("two-bell", {})
        fams = [make_family("haar", z, 1, 2, 2, 3, (z,)) for z in (1, 2)]
        povm, success = sequential_decoder(
            spec.state, spec.senders, spec.receiver, fams)
        states = []
        for k1 in range(2):
            for k2 in range(2):
                s = apply_unitary(spec.state, fams[0].block(k1), ["A1"])
                states.append(apply_unitary(s, fams[1].block(k2), ["A2"]))
        assert abs(povm_success(povm, states) - success) < 1e-10


class TestUnionBound:
    def _random_contraction(self, rng, d=8):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g @ g.conj().T
        return h / (np.linalg.eigvalsh(h).max() * (1 + rng.uniform(0, 1)))

    def test_identity_operators_give_zero_lhs(self):
        rho = random_density(SystemLayout((("S", 4),)), 4, 0)
        res = union_bound_check([np.eye(4)] * 3, rho)
        assert abs(res.lhs) < 1e-10
        assert res.rhs < 1e-6

    def test_random_trials(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lams = [self._random_contraction(rng) for _ in range(3)]
            rho = random_density(SystemLayout((("S", 8),)), 8, rng)
            res = union_bound_check(lams, rho)
            assert res.holds
            assert abs(res.lambda_hat_trace - res.chain_trace) < 1e-10

    def test_out_of_range_operator_rejected(self):
        rho = random_density(SystemLayout((("S", 2),)), 2, 0)
        with pytest.raises(Exception):
            union_bound_check([np.eye(2) * 1.5], rho)


class TestSimulationReport:
    def _report(self):
        return SimulationReport(2, {"m": 0.5}, {"m": (0.25, 0.75)}, 7, {"n": 1})

    def test_json_deterministic(self):
        a = json.dumps(self._report().to_json(), sort_keys=True)
        b = json.dumps(self._report().to_json(), sort_keys=True)
        assert a == b

    def test_csv_format(self):
        csv_text = self._report().to_csv()
        lines = csv_text.split("\r\n")
        assert lines[0] == "trial_index,metric_name,value"
        assert lines[1] == "0,m,0.25"


class TestCodes:
    def test_superdense_pauli_perfect(self):
        rho = bell_pair()
        code = build_qmap_code(rho, [("A1",)], ("B",), (), 1, [2.0],
                               ([2.0], [0.0]), 0, family="pauli")
        report = evaluate_code(code, rho)
        assert report.estimates["epsilon"] < 1e-10
        assert report.estimates["theta"] < 1e-10

    def test_pauli_randomization_block(self):
        rho = bell_pair()
        code = build_qmap_code(rho, [("A1",)], ("B",), (), 1, [0.0],
                               ([2.0], [2.0]), 0, family="pauli")
        report = evaluate_code(code, rho)
        assert report.estimates["randomization_distance"] < 1e-10
        assert report.estimates["theta"] < 1e-10

    def test_inconsistent_split_rejected(self):
        with pytest.raises(ValueError):
            build_qmap_code(bell_pair(), [("A1",)], ("B",), (), 1, [1.0],
                            ([2.0], [0.5]), 0)

    @pytest.mark.parametrize("decoder", ["pgm", "sequential"])
    @pytest.mark.parametrize("rates", [[1], [1, 1, 1]])
    def test_rate_list_of_the_wrong_length_rejected(self, rates, decoder):
        # a short list would leave A2 unencoded, a long one add a message count
        spec = _preset("two-bell", {})
        with pytest.raises(ValueError, match="rates must have one entry per sender"):
            build_qmap_code(spec.state, spec.senders, spec.receiver, (), 1, rates,
                            ([1, 1], [0, 0]), 0, family="pauli", decoder=decoder)

    def test_sequential_decoder_two_senders(self):
        spec = _preset("two-bell", {})
        code = build_qmap_code(spec.state, spec.senders, spec.receiver, (), 1,
                               [1.0, 1.0], ([1.0, 1.0], [0.0, 0.0]), 0,
                               family="pauli", decoder="sequential")
        report = evaluate_code(code, spec.state)
        assert report.estimates["epsilon"] < 1e-9

    def test_decoder_povm_valid(self):
        # each message's element is the index-level PGM, a valid POVM, summed
        # over its block of two encodings
        from qmap.qstate import apply_unitary
        rho = bell_pair()
        code = build_qmap_code(rho, [("A1",)], ("B",), (), 1, [1.0],
                               ([1.5], [0.5]), 11, family="haar")
        assert code.message_counts == (2,)
        assert code.block_sizes == (2,)
        encoded = [apply_unitary(rho, code.families[0].block(k), ["A1"]) for k in range(4)]
        povm = pgm_decoder(encoded, [0.25] * 4)
        assert isinstance(povm, Povm)
        for m, success in enumerate(code.success):
            element = povm.elements[2 * m] + povm.elements[2 * m + 1]
            state = (encoded[2 * m].matrix + encoded[2 * m + 1].matrix) / 2
            assert abs(success - np.real(np.trace(element @ state))) < 1e-12

    def test_coarse_graining_success_inequality(self):
        # message-level success is at least index-level success for the
        # same index decoder summed over blocks
        from qmap.qstate import apply_unitary
        rho = bell_pair()
        code = build_qmap_code(rho, [("A1",)], ("B",), (), 1, [1.0],
                               ([2.0], [1.0]), 17, family="haar")
        encoded = [apply_unitary(rho, code.families[0].block(k), ["A1"])
                   for k in range(code.families[0].size)]
        index_povm = pgm_decoder(encoded, [0.25] * 4)
        index_success = povm_success(index_povm, encoded)
        report = evaluate_code(code, rho)
        assert report.estimates["success"] >= index_success - 1e-9

    def test_leakage_bounded_by_randomization_distance(self):
        rho = bell_pair()
        code = build_qmap_code(rho, [("A1",)], ("B",), (), 1, [1.0],
                               ([2.0], [1.0]), 19, family="haar")
        report = evaluate_code(code, rho)
        mean_rand = report.estimates["randomization_distance"]
        assert report.estimates["theta"] <= 2 * mean_rand + 1e-9

    def test_randomization_preserves_w_marginal(self):
        rho = bell_pair()
        fam = make_family("haar", 1, 1, 2, 4, 23, (1,))
        out, _ = randomize(rho, [("A1",)], ["B"], [fam])
        before = partial_trace(rho, ["B"]).matrix
        after = partial_trace(out, ["B"]).matrix
        assert np.max(np.abs(after - before)) <= 1e-10

    def test_same_seed_same_report(self):
        rho = bell_pair()
        reports = []
        for _ in range(2):
            code = build_qmap_code(rho, [("A1",)], ("B",), (), 1, [1.0],
                                   ([1.5], [0.5]), 13, family="haar")
            reports.append(json.dumps(evaluate_code(code, rho).to_json(),
                                      sort_keys=True))
        assert reports[0] == reports[1]


class TestTypicalProjector:
    def test_biased_qubit_counts(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]), SystemLayout((("X", 2),)))
        tp = typical_projector(rho, 10, 0.2)
        # brute force: only sequences with exactly one low-probability symbol
        # have empirical surprisal within 0.2 of H(0.9) ~ 0.469
        assert tp.rank == 10
        assert tp.bounds_hold
        assert abs(tp.mass - 10 * 0.9 ** 9 * 0.1) < 1e-12

    def test_uniform_state_all_typical(self):
        rho = maximally_mixed(SystemLayout((("X", 2),)))
        tp = typical_projector(rho, 3, 0.1)
        assert tp.rank == 8
        assert abs(tp.mass - 1.0) < 1e-12

    def test_projector_is_projector(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]), SystemLayout((("X", 2),)))
        tp = typical_projector(rho, 4, 0.3)
        assert np.max(np.abs(tp.projector @ tp.projector - tp.projector)) < 1e-10


class TestChainedRandomization:
    def test_trend_and_triangle(self):
        rho = bell_pair()
        report = chained_randomization_experiment(
            rho, [("A1",)], ["B"], 1, [4], 3, 21)
        assert report.trials == 3
        assert len(report.samples["total_distance"]) == 3
        for total, stage in zip(report.samples["total_distance"],
                                report.samples["stage_1_distance"]):
            assert total <= stage + 1e-9

    def test_pauli_family_exact(self):
        rho = bell_pair()
        report = chained_randomization_experiment(
            rho, [("A1",)], ["B"], 1, [4], 1, 0, family="pauli")
        assert report.estimates["total_distance"] < 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pgm_is_povm_property(seed):
    rng = np.random.default_rng(seed)
    layout = SystemLayout((("A", 3),))
    states = [random_density(layout, 3, rng) for _ in range(3)]
    povm = pgm_decoder(states, [1 / 3] * 3)
    total = sum(povm.elements)
    assert np.max(np.abs(total - np.eye(3))) < 1e-8


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_haar_unitary_property(seed):
    u = haar_unitary(4, np.random.default_rng(seed))
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
