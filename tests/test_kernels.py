"""Differential tests: the local-axis kernels, the Cholesky-certified PSD
decision, prefix-shared encoding and the Gram-form PGM against plain
reference implementations."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap import cli, protocols
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    POVM_PSD_TOL,
    PINV_CUTOFF,
    Povm,
    _pgm,
    _psd_power,
    _sqrt_factor,
    _stacked_walk,
    derived_rng,
    encode,
    haar_unitary,
    make_family,
    pgm_decoder,
)
from qmap.qstate import (
    PSD_TOL,
    DensityMatrix,
    StateValidationError,
    SystemLayout,
    apply_local,
    apply_unitary,
    conjugate_local,
    embed_operator,
    psd_violation,
    random_density,
    tensor_power,
)


def _random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@st.composite
def local_cases(draw):
    """A layout of qubits and qutrits (at most 4 factors, dim <= 64), an
    ordered non-empty subset of its labels, and a seed."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)
                .filter(lambda ds: int(np.prod(ds)) <= 64))
    labels = [f"S{i}" for i in range(len(dims))]
    on = draw(st.permutations(labels).flatmap(
        lambda perm: st.integers(1, len(perm)).map(lambda k: list(perm[:k]))))
    seed = draw(st.integers(0, 2**32 - 1))
    return SystemLayout(tuple(zip(labels, dims))), on, seed


class TestLocalKernels:
    @settings(max_examples=60, deadline=None)
    @given(case=local_cases())
    def test_apply_unitary_matches_embedding(self, case):
        layout, on, seed = case
        rng = np.random.default_rng(seed)
        u = haar_unitary(layout.dim_of(on), rng)
        rho = random_density(layout, layout.dim, rng)
        full = embed_operator(u, on, layout)
        expected = full @ rho.matrix @ full.conj().T
        out = apply_unitary(rho, u, on)
        assert out.layout == layout
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=local_cases())
    def test_one_and_two_sided_products_match_embedding(self, case):
        layout, on, seed = case
        rng = np.random.default_rng(seed)
        op = _random_matrix(rng, layout.dim_of(on), layout.dim_of(on))
        m = _random_matrix(rng, layout.dim, layout.dim)
        cols = _random_matrix(rng, layout.dim, 3)
        full = embed_operator(op, on, layout)
        assert np.max(np.abs(apply_local(m, op, on, layout) - full @ m)) < 1e-12
        assert np.max(np.abs(apply_local(cols, op, on, layout) - full @ cols)) < 1e-12
        assert np.max(np.abs(conjugate_local(m, op, on, layout)
                             - full @ m @ full.conj().T)) < 1e-12


def _hermitian_with_min_eig(rng, d, min_eig):
    q, _ = np.linalg.qr(_random_matrix(rng, d, d))
    eig = np.concatenate([[min_eig], rng.uniform(0.01, 1.0, d - 1)])
    h = (q * eig) @ q.conj().T
    return (h + h.conj().T) / 2


class TestPsdDecision:
    @pytest.mark.parametrize("tol", [PSD_TOL, POVM_PSD_TOL])
    @pytest.mark.parametrize("factor", [-2.0, -1.001, -0.75, -0.25, 0.0, 1.0])
    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_matches_eigvalsh_predicate(self, tol, factor, d):
        rng = np.random.default_rng([d, int(factor * 1000) % 7919])
        h = _hermitian_with_min_eig(rng, d, factor * tol)
        min_eig = float(np.min(np.linalg.eigvalsh(h)))
        violation = psd_violation(h, tol)
        assert (violation is None) == (min_eig >= -tol)
        if violation is not None:
            assert violation == min_eig

    def test_density_matrix_rejection_reports_min_eigenvalue(self):
        rng = np.random.default_rng(7)
        h = _hermitian_with_min_eig(rng, 4, -2 * PSD_TOL)
        h = h / np.real(np.trace(h))
        layout = SystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(StateValidationError, match=r"min eigenvalue -[0-9.e-]+"):
            DensityMatrix(h, layout)

    def test_povm_rejection_reports_min_eigenvalue(self):
        bad = np.diag([1 + 2 * POVM_PSD_TOL, -2 * POVM_PSD_TOL])
        with pytest.raises(StateValidationError, match=r"not PSD.*min eigenvalue"):
            Povm((bad, np.eye(2) - bad))


def _naive_encode(rho_n, families, groups, k_tuples):
    out = []
    for k_tuple in k_tuples:
        state = rho_n
        for fam, group, k in zip(families, groups, k_tuple):
            state = apply_unitary(state, fam.block(k), list(group))
        out.append(state)
    return out


class TestEncode:
    @pytest.mark.parametrize("sizes", [(3,), (2, 3), (3, 1, 2)])
    def test_bitwise_equal_to_naive_loop(self, sizes):
        z = len(sizes)
        layout = SystemLayout(tuple([(f"A{i}", 2) for i in range(1, z + 1)] + [("B", 2)]))
        rho = random_density(layout, layout.dim, 11)
        groups = [(f"A{i}",) for i in range(1, z + 1)]
        families = [make_family("haar", z, 1, 2, k, 5, (z,))
                    for z, k in enumerate(sizes, start=1)]
        k_tuples = list(product(*[range(k) for k in sizes]))
        rng = np.random.default_rng(z)
        rng.shuffle(k_tuples)
        k_tuples.append(k_tuples[0])  # a repeated tuple
        got = encode(rho, families, groups, k_tuples)
        want = _naive_encode(rho, families, groups, k_tuples)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g.matrix, w.matrix)

    def test_multi_factor_groups(self):
        spec = resolve_state_spec({"preset": {"name": "two-bell"}})
        rho_n = tensor_power(spec.state, 2)
        groups = [("A1_1", "A1_2"), ("A2_1", "A2_2")]
        families = [make_family("haar", z, 2, 2, 3, 9, (z,)) for z in (1, 2)]
        k_tuples = [(2, 0), (0, 1), (2, 2), (0, 0)]
        got = encode(rho_n, families, groups, k_tuples)
        want = _naive_encode(rho_n, families, groups, k_tuples)
        for g, w in zip(got, want):
            assert np.array_equal(g.matrix, w.matrix)

    def test_rejects_wrong_tuple_length(self):
        layout = SystemLayout((("A1", 2), ("B", 2)))
        rho = random_density(layout, 4, 1)
        fam = make_family("haar", 1, 1, 2, 2, 3, (1,))
        with pytest.raises(ValueError):
            encode(rho, [fam], [("A1",)], [(0, 1)])


class TestGramPgm:
    def test_matches_plain_formula_on_well_conditioned_ensemble(self):
        layout = SystemLayout((("A", 2), ("B", 2)))
        states = [random_density(layout, 2, s) for s in range(3)]
        priors = [0.5, 0.3, 0.2]
        povm = pgm_decoder(states, priors)
        avg = sum(p * s.matrix for p, s in zip(priors, states))
        inv_sqrt = _psd_power(avg, -0.5, cutoff=PINV_CUTOFF)
        for el, p, s in zip(povm.elements, priors, states):
            assert np.max(np.abs(el - inv_sqrt @ (p * s.matrix) @ inv_sqrt)) < 1e-12

    def test_factor_path_matches_bare_state_path(self):
        spec = resolve_state_spec({"preset": {"name": "two-bell"}})
        rho = spec.state
        families = [make_family("haar", z, 1, 2, 2, 4, (z,)) for z in (1, 2)]
        groups = [("A1",), ("A2",)]
        k_tuples = list(product(range(2), range(2)))
        factors = _stacked_walk(_sqrt_factor(rho.matrix), rho.layout,
                                [f.blocks for f in families], groups)
        povm = _pgm(factors, [0.25] * 4)
        bare = pgm_decoder(encode(rho, families, groups, k_tuples), [0.25] * 4)
        assert len(povm) == len(bare)
        for a, b in zip(povm.elements, bare.elements):
            assert np.max(np.abs(a - b)) < 1e-10


class TestSeed22Regression:
    """simulate-encoding on two-bell, seed 22, K=4, trial 11: the average
    state has eigenvalues just above the pseudo-inverse cutoff, which made
    the PGM elements fail the POVM PSD check."""

    def _ensemble(self):
        spec = resolve_state_spec({"preset": {"name": "two-bell"}})
        seed, k, t = 22, 4, 11
        families = [protocols.UnitaryFamily(
            z, 1, 2, tuple((haar_unitary(2, derived_rng(seed, k, t, z, kk, 0)),)
                           for kk in range(k)), kind="haar")
            for z in (1, 2)]
        groups = [("A1_1",), ("A2_1",)]
        return tensor_power(spec.state, 1), families, groups

    def test_pgm_elements_are_psd(self):
        rho_n, families, groups = self._ensemble()
        k_tuples = list(product(range(4), range(4)))
        encoded = encode(rho_n, families, groups, k_tuples)
        avg = sum(s.matrix for s in encoded) / 16
        eig = np.linalg.eigvalsh(avg)
        assert eig[0] < 1e-9 * eig[-1]  # the ill-conditioned case
        bare = pgm_decoder(encoded, [1 / 16] * 16)
        factors = _stacked_walk(_sqrt_factor(rho_n.matrix), rho_n.layout,
                                [f.blocks for f in families], groups)
        for povm in (_pgm(factors, [1 / 16] * 16), bare):
            for el in povm.elements:
                assert np.min(np.linalg.eigvalsh(el)) > -1e-12
            assert np.max(np.abs(sum(povm.elements) - np.eye(16))) < 1e-12
        assert 0.0 <= protocols.povm_success(bare, encoded) <= 1.0 + 1e-12

    def test_cli_exits_zero(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"preset": {"name": "two-bell"}}')
        config = tmp_path / "config.json"
        config.write_text('{"n": 1, "k_sweep": [4], "trials": 12}')
        rc = cli.main(["simulate-encoding", "--spec", str(spec), "--config", str(config),
                       "--out", str(tmp_path / "out"), "--seed", "22"])
        assert rc == 0
