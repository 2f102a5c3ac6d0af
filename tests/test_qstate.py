import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap.qstate import (
    DensityMatrix,
    DimensionError,
    LabelError,
    StateValidationError,
    SystemLayout,
    apply_unitary,
    conditional_entropy,
    conditional_mutual_information,
    embed_operator,
    entropy,
    maximally_mixed,
    partial_trace,
    permute_factors,
    pure_state,
    random_density,
    tensor,
    tensor_power,
    trace_norm,
)

AB = SystemLayout((("A", 2), ("B", 2)))


def bell():
    return pure_state([1, 0, 0, 1], AB)


class TestSystemLayout:
    def test_basic_properties(self):
        layout = SystemLayout((("A", 2), ("B", 3)))
        assert layout.labels == ("A", "B")
        assert layout.dims == (2, 3)
        assert layout.dim == 6
        assert layout.dim_of(["B"]) == 3
        assert layout.index("B") == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelError):
            SystemLayout((("A", 2), ("A", 2)))

    def test_unknown_label_rejected(self):
        with pytest.raises(LabelError):
            AB.index("C")

    def test_power_is_copy_major(self):
        assert AB.power(2).labels == ("A_1", "B_1", "A_2", "B_2")
        assert SystemLayout.copy_labels("A", 3) == ("A_1", "A_2", "A_3")


class TestDensityMatrix:
    def test_valid_state(self):
        s = maximally_mixed(AB)
        assert s.dim == 4
        assert not s.matrix.flags.writeable

    def test_non_hermitian_rejected(self):
        m = np.eye(4) / 4
        m = m.astype(complex)
        m[0, 1] = 1e-3
        with pytest.raises(StateValidationError):
            DensityMatrix(m, AB)

    def test_non_psd_rejected(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(StateValidationError):
            DensityMatrix(m, AB)

    def test_wrong_trace_rejected(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.eye(4) / 2, AB)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.eye(3) / 3, AB)


class TestTensorAndPermute:
    def test_tensor_label_collision(self):
        with pytest.raises(LabelError):
            tensor(maximally_mixed(AB), maximally_mixed(AB))

    def test_tensor_power_labels(self):
        s = tensor_power(bell(), 2)
        assert s.layout.labels == ("A_1", "B_1", "A_2", "B_2")
        assert abs(np.trace(s.matrix) - 1) < 1e-12

    def test_permute_roundtrip(self):
        layout = SystemLayout((("A", 2), ("B", 3), ("C", 2)))
        s = random_density(layout, 12, 5)
        p = permute_factors(s, ["C", "A", "B"])
        back = permute_factors(p, ["A", "B", "C"])
        assert np.allclose(back.matrix, s.matrix)

    def test_permute_matches_kron_swap(self):
        a = random_density(SystemLayout((("A", 2),)), 2, 1)
        b = random_density(SystemLayout((("B", 3),)), 3, 2)
        ab = tensor(a, b)
        ba = permute_factors(ab, ["B", "A"])
        assert np.allclose(ba.matrix, np.kron(b.matrix, a.matrix))


class TestEmbedApply:
    def test_embed_on_first_factor(self):
        layout = SystemLayout((("A", 2), ("B", 3)))
        op = np.diag([1.0, 2.0])
        full = embed_operator(op, ["A"], layout)
        assert np.allclose(full, np.kron(op, np.eye(3)))

    def test_embed_on_second_factor(self):
        layout = SystemLayout((("A", 2), ("B", 3)))
        op = np.diag([1.0, 2.0, 3.0])
        full = embed_operator(op, ["B"], layout)
        assert np.allclose(full, np.kron(np.eye(2), op))

    def test_embed_reordered_labels(self):
        layout = SystemLayout((("A", 2), ("B", 2)))
        op = np.arange(16.0).reshape(4, 4)
        swap = embed_operator(op, ["B", "A"], layout)
        # writing the operator in (B, A) order then permuting back
        perm = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                perm[a * 2 + b, b * 2 + a] = 1
        assert np.allclose(swap, perm @ op @ perm.T)

    def test_apply_unitary_preserves_spectrum(self):
        s = random_density(AB, 4, 3)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        out = apply_unitary(s, q, ["B"])
        assert np.allclose(np.linalg.eigvalsh(out.matrix),
                           np.linalg.eigvalsh(s.matrix))


class TestPartialTrace:
    def test_product_state_factors(self):
        a = random_density(SystemLayout((("A", 2),)), 2, 1)
        b = random_density(SystemLayout((("B", 3),)), 3, 2)
        ab = tensor(a, b)
        assert np.allclose(partial_trace(ab, ["A"]).matrix, a.matrix)
        assert np.allclose(partial_trace(ab, ["B"]).matrix, b.matrix)

    def test_bell_marginal_is_mixed(self):
        m = partial_trace(bell(), ["A"]).matrix
        assert np.allclose(m, np.eye(2) / 2)

    def test_trace_all_gives_scalar_one(self):
        s = maximally_mixed(AB)
        out = partial_trace(s, [])
        assert out.matrix.shape == (1, 1)
        assert abs(out.matrix[0, 0] - 1) < 1e-12

    def test_order_preserved(self):
        layout = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
        s = random_density(layout, 8, 7)
        ac = partial_trace(s, ["C", "A"])
        assert ac.layout.labels == ("A", "C")


class TestEntropy:
    def test_pure_state_zero(self):
        assert entropy(bell()) < 1e-12

    def test_maximally_mixed(self):
        assert abs(entropy(maximally_mixed(AB)) - 2.0) < 1e-12

    def test_matches_eigenvalue_oracle(self):
        s = random_density(AB, 3, 11)
        eig = np.linalg.eigvalsh(s.matrix)
        eig = eig[eig > 1e-12]
        oracle = -float(np.sum(eig * np.log2(eig)))
        assert abs(entropy(s) - oracle) < 1e-12

    def test_bell_conditional_entropy_negative(self):
        assert abs(conditional_entropy(bell(), ["A"], ["B"]) + 1.0) < 1e-10

    def test_cmi_of_product_extension(self):
        c = maximally_mixed(SystemLayout((("C", 2),)))
        s = tensor(bell(), c)
        assert abs(conditional_mutual_information(s, ["A"], ["B"], ["C"]) - 2.0) < 1e-9

    def test_overlapping_labels_rejected(self):
        with pytest.raises(LabelError):
            conditional_entropy(bell(), ["A"], ["A"])


class TestNorms:
    def test_trace_norm_of_hermitian(self):
        m = np.diag([1.0, -2.0, 3.0])
        assert abs(trace_norm(m) - 6.0) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(qubits=st.integers(1, 6), ranks=st.tuples(st.integers(1, 64), st.integers(1, 64)),
           seed=st.integers(0, 10**6))
    def test_trace_norm_matches_singular_values(self, qubits, ranks, seed):
        layout = SystemLayout(tuple((f"Q{i}", 2) for i in range(qubits)))
        rng = np.random.default_rng(seed)
        a, b = (random_density(layout, min(r, layout.dim), rng) for r in ranks)
        diff = a.matrix - b.matrix
        reference = float(np.sum(np.linalg.svd(diff, compute_uv=False)))
        assert abs(trace_norm(diff) - reference) < 1e-12

    def test_trace_norm_refuses_a_non_hermitian_matrix(self):
        # ||X||_1 = 1, while eigvalsh on its lower triangle alone would give 0
        with pytest.raises(StateValidationError, match="not Hermitian"):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRandomDensity:
    def test_deterministic_in_seed(self):
        a = random_density(AB, 2, 42)
        b = random_density(AB, 2, 42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_control(self):
        s = random_density(AB, 1, 3)
        eig = np.linalg.eigvalsh(s.matrix)
        assert np.sum(eig > 1e-10) == 1

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            random_density(AB, 5, 0)


class TestEntropicInvariants:
    def test_unitary_invariance_100_haar(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            s = random_density(SystemLayout((("A", d),)), int(rng.integers(1, d + 1)), rng)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(g)
            rotated = DensityMatrix(q @ s.matrix @ q.conj().T, s.layout)
            assert abs(entropy(rotated) - entropy(s)) <= 1e-9

    def test_strong_subadditivity_mixed_dims(self):
        rng = np.random.default_rng(23)
        for dims in ((2, 2, 2), (2, 3, 2)):
            layout = SystemLayout((("A", dims[0]), ("B", dims[1]), ("C", dims[2])))
            for _ in range(100):
                s = random_density(layout, int(rng.integers(1, layout.dim + 1)), rng)
                assert conditional_mutual_information(s, ["A"], ["B"], ["C"]) >= -1e-9

    def test_conditional_entropy_dimension_bounds(self):
        rng = np.random.default_rng(29)
        layout = SystemLayout((("A", 3), ("B", 2)))
        bound = math.log2(3)
        for _ in range(50):
            s = random_density(layout, int(rng.integers(1, 7)), rng)
            h = conditional_entropy(s, ["A"], ["B"])
            assert -bound - 1e-9 <= h <= bound + 1e-9

    def test_partial_trace_commutes(self):
        layout = SystemLayout((("A", 2), ("B", 2), ("C", 3)))
        s = random_density(layout, 12, 31)
        stepwise = partial_trace(partial_trace(s, ["B", "C"]), ["C"])
        direct = partial_trace(s, ["C"])
        assert np.max(np.abs(stepwise.matrix - direct.matrix)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_strong_subadditivity_property(seed):
    layout = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
    s = random_density(layout, 8, seed)
    assert conditional_mutual_information(s, ["A"], ["B"], ["C"]) >= -1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_entropy_unitarily_invariant_property(seed):
    s = random_density(AB, 4, seed)
    rng = np.random.default_rng(seed + 1)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    rotated = DensityMatrix(q @ s.matrix @ q.conj().T, AB)
    assert abs(entropy(rotated) - entropy(s)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_partial_trace_preserves_trace_property(seed):
    layout = SystemLayout((("A", 2), ("B", 3)))
    s = random_density(layout, 6, seed)
    assert abs(np.trace(partial_trace(s, ["A"]).matrix) - 1) < 1e-10


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
    def test_density_matrix_rejects_non_finite_entries(self, value):
        m = np.eye(2, dtype=complex) / 2
        m[0, 0] = value
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityMatrix(m, SystemLayout((("A", 2),)))
