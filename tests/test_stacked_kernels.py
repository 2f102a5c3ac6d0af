"""Differential tests: every stacked kernel against the per-item path it
replaces, bit for bit.

Stacked `matmul`, `qr` and `eigvalsh` run the same LAPACK or BLAS call per
item as a single call does, so each stacked result must equal its per-item
reference byte for byte, not merely within a tolerance: a seeded report
that moved in its last bit would show here first.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap import protocols
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    PINV_CUTOFF,
    RANK_CUTOFF,
    UnitaryFamily,
    _message_blocks,
    _message_factors,
    _message_states,
    _mix,
    _prefix_walk,
    _psd_power,
    _sqrt_factor,
    _stacked_walk,
    _trace_norms,
    build_qmap_code,
    derived_rng,
    haar_unitary,
    make_family,
    pgm_success_table,
)
from qmap.qstate import (
    StateValidationError,
    SystemLayout,
    apply_local,
    conjugate_local,
    random_density,
    tensor_power,
    trace_norm,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_matrix(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def stacked_cases(draw):
    """A layout of qubits and qutrits (at most 4 factors, dim <= 64), an
    ordered non-empty subset of its labels, stack sizes and a seed."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)
                .filter(lambda ds: int(np.prod(ds)) <= 64))
    labels = [f"S{i}" for i in range(len(dims))]
    on = draw(st.permutations(labels).flatmap(
        lambda perm: st.integers(1, len(perm)).map(lambda k: list(perm[:k]))))
    sizes = draw(st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3)))
    seed = draw(st.integers(0, 2**32 - 1))
    return SystemLayout(tuple(zip(labels, dims))), on, sizes, seed


class TestStackedApplyLocal:
    @settings(max_examples=80, deadline=None)
    @given(case=stacked_cases())
    def test_each_item_is_one_call(self, case):
        layout, on, (prefixes, count, cols), seed = case
        rng = np.random.default_rng(seed)
        ms = _random_matrix(rng, prefixes, layout.dim, cols)
        ops = _random_matrix(rng, count, layout.dim_of(on), layout.dim_of(on))
        out = apply_local(ms[:, None], ops, on, layout)
        assert out.shape == (prefixes, count, layout.dim, cols)
        for p, k in product(range(prefixes), range(count)):
            assert same_bits(out[p, k], apply_local(ms[p], ops[k], on, layout)), (p, k)
        # one matrix, a stack of operators
        single = apply_local(ms[0], ops, on, layout)
        for k in range(count):
            assert same_bits(single[k], out[0, k])

    @settings(max_examples=60, deadline=None)
    @given(case=stacked_cases())
    def test_each_conjugation_is_one_call(self, case):
        layout, on, (trials, count, _), seed = case
        rng = np.random.default_rng(seed)
        ms = _random_matrix(rng, trials, layout.dim, layout.dim)
        ops = _random_matrix(rng, trials, count, layout.dim_of(on), layout.dim_of(on))
        out = conjugate_local(ms[:, None], ops, on, layout)
        assert out.shape == (trials, count, layout.dim, layout.dim)
        for t, k in product(range(trials), range(count)):
            assert same_bits(out[t, k], conjugate_local(ms[t], ops[t, k], on, layout)), (t, k)
        # one matrix, a stack of operators
        single = conjugate_local(ms[0], ops[0], on, layout)
        for k in range(count):
            assert same_bits(single[k], out[0, k])


class TestHaarFamily:
    @pytest.mark.parametrize("d, n, size", [(2, 1, 1), (2, 2, 8), (3, 3, 5), (4, 2, 3)])
    def test_each_factor_is_its_own_draw(self, d, n, size):
        family = make_family("haar", 2, n, d, size, 17, (5, 2))
        assert family.seed == (17, 5, 2)
        for k, i in product(range(size), range(n)):
            want = haar_unitary(d, derived_rng(17, 5, 2, k, i))
            assert same_bits(family.per_index[k][i], want), (k, i)

    @pytest.mark.parametrize("kind", ["haar", "pauli", "identity"])
    def test_blocks_are_kron_products(self, kind):
        family = make_family(kind, 1, 3, 2, 6, 3, (1,))
        for k in range(family.size):
            want = family.per_index[k][0]
            for v in family.per_index[k][1:]:
                want = np.kron(want, v)
            assert same_bits(family.block(k), np.asarray(want, dtype=complex)), k

    def test_one_bad_factor_in_the_stack_fails_the_check(self):
        family = make_family("haar", 1, 2, 2, 4, 0, (1,))
        per_index = [list(copies) for copies in family.per_index]
        per_index[2][1] = per_index[2][1] * (1 + 1e-9)
        with pytest.raises(StateValidationError, match="not unitary"):
            UnitaryFamily(1, 2, 2, tuple(map(tuple, per_index)))


class TestStackedTraceNorms:
    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_each_norm_is_one_call(self, d):
        rng = np.random.default_rng(d)
        x = _random_matrix(rng, 7, d, d)
        x = x + np.swapaxes(x.conj(), -1, -2)
        norms = trace_norm(x)
        assert norms.shape == (7,)
        for i in range(7):
            assert same_bits(norms[i], trace_norm(x[i])), i

    @pytest.mark.parametrize("stack_bytes", [1, 3 * 16 * 16 * 16, 1 << 20])
    def test_chunks_give_the_per_item_norms(self, monkeypatch, stack_bytes):
        monkeypatch.setattr(protocols, "TRIAL_BYTES", stack_bytes)
        layout = SystemLayout((("A", 4), ("B", 4)))
        states = np.stack([random_density(layout, 3, s).matrix for s in range(8)])
        ref = random_density(layout, 16, 99).matrix
        got = _trace_norms(states, ref)
        assert all(type(v) is float for v in got)
        assert got == tuple(trace_norm(s - ref) for s in states)

    def test_one_non_hermitian_item_fails_the_stack(self):
        stack = np.stack([np.eye(3), np.eye(3), np.triu(np.ones((3, 3)))])
        with pytest.raises(StateValidationError, match="not Hermitian"):
            trace_norm(stack)


def _two_bell():
    spec = resolve_state_spec({"preset": {"name": "two-bell"}})
    return spec, [("A1",), ("A2",)]


def _ghz4():
    spec = resolve_state_spec({"preset": {"name": "ghz", "params": {"parties": 4}}})
    return spec, [("A1",), ("A2",), ("A3",)]


CODES = [  # (state, n, rates, (c, d), family)
    (_two_bell, 1, [1, 1], ([1, 1], [0, 0]), "pauli"),
    (_two_bell, 2, [0.5, 0.5], ([1, 1], [0.5, 0.5]), "haar"),
    (_two_bell, 2, [1, 1], ([1.5, 1.5], [0.5, 0.5]), "pauli"),
    (_ghz4, 1, [1, 1, 1], ([1, 1, 1], [0, 0, 0]), "haar"),
]


@pytest.mark.parametrize("state, n, rates, splits, family", CODES,
                         ids=["two-bell-pauli-1", "two-bell-haar-2", "two-bell-pauli-2",
                              "ghz4-haar-1"])
def test_message_states_match_the_per_message_mix_chain(state, n, rates, splits, family):
    spec, _ = state()
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           n, rates, splits, 7, family=family)
    rho_n = tensor_power(spec.state, n)
    walked = list(_message_states(code, rho_n))
    assert len(walked) == code.message_space
    for got, m_tuple in zip(walked, product(*[range(m) for m in code.message_counts])):
        want = rho_n
        for fam, group, m, size in zip(code.families, code.sender_groups, m_tuple,
                                       code.block_sizes):
            want = _mix(want, [fam.block(m * size + l) for l in range(size)], group)
        assert same_bits(got.matrix, want.matrix), m_tuple


def _per_tuple_factors(factor, layout, ops, groups):
    """The per-tuple walk: one `apply_local` per (prefix, operator)."""
    return list(_prefix_walk(factor, ops, groups,
                             product(*[range(len(o)) for o in ops]),
                             lambda f, u, on: apply_local(f, u, on, layout)))


def _per_tuple_table(factor, layout, families, groups):
    """`pgm_success_table` on the per-tuple walk, the plain reference."""
    n = families[0].n
    count, rank = len(list(product(*[range(f.size) for f in families]))), factor.shape[1]
    gram = np.ones((count, 1, count, 1))
    for i in range(n):
        ops = [[f.per_index[k][i] for k in range(f.size)] for f in families]
        cols = np.concatenate(_per_tuple_factors(factor, layout, ops, groups), axis=1)
        copy = (cols.conj().T @ cols).reshape(count, rank, count, rank)
        width = gram.shape[1] * rank
        gram = np.einsum("xaYb,xcYd->xacYbd", gram, copy).reshape(count, width, count, width)
    size = gram.shape[1]
    root = _psd_power(gram.reshape(count * size, count * size) / count, 0.5,
                      cutoff=PINV_CUTOFF)
    return count * np.sum(np.abs(root.reshape(count, size, count, size)) ** 2, axis=(1, 3))


TABLES = [  # (state, n, sizes, family)
    (_two_bell, 2, (4, 4), "haar"),
    (_two_bell, 1, (3, 5), "haar"),
    (_two_bell, 2, (4, 2), "pauli"),
    (_ghz4, 1, (2, 3, 2), "haar"),
]


@pytest.mark.parametrize("state, n, sizes, family", TABLES,
                         ids=["two-bell-haar-2", "two-bell-haar-1", "two-bell-pauli-2",
                              "ghz4-haar-1"])
def test_success_table_matches_the_per_tuple_walk(state, n, sizes, family):
    spec, groups = state()
    rho = spec.state
    families = [make_family(family, z, n, rho.layout.dim_of(g), size, 3, (z,))
                for z, (g, size) in enumerate(zip(groups, sizes), start=1)]
    factor = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF)
    assert same_bits(pgm_success_table(factor, rho.layout, families, groups),
                     _per_tuple_table(factor, rho.layout, families, groups))


def test_stacked_blocks_walk_matches_the_per_tuple_walk():
    spec, groups = _ghz4()
    rho = random_density(spec.state.layout, 3, 5)
    families = [make_family("haar", z, 1, 2, size, 1, (z,))
                for z, size in zip((1, 2, 3), (3, 2, 4))]
    factor = _sqrt_factor(rho.matrix)
    stacked = _stacked_walk(factor, rho.layout, [f.blocks for f in families], groups)
    want = _per_tuple_factors(factor, rho.layout, [f.blocks for f in families], groups)
    assert len(stacked) == len(want) == 24
    for got, f in zip(stacked, want):
        assert same_bits(got, f)


def _werner():
    spec = resolve_state_spec({"preset": {"name": "werner", "params": {"p": 0.9}}})
    return spec, [("A1",)]


MESSAGE_FACTORS = [  # (state, n, message counts, block sizes)
    (_werner, 2, (2,), (4,)),
    (_ghz4, 1, (2, 1, 2), (2, 2, 1)),
    (_two_bell, 2, (2, 2), (2, 2)),
]


@pytest.mark.parametrize("state, n, counts, sizes", MESSAGE_FACTORS,
                         ids=["werner-2", "ghz4-1", "two-bell-2"])
def test_message_factors_match_the_per_tuple_walk(state, n, counts, sizes):
    """Message m's factor is the per-tuple factors of row m of `blocks`,
    side by side, on the n-copy layout."""
    spec, groups = state()
    rho = spec.state
    families = [make_family("haar", z, n, rho.layout.dim_of(g), m * l, 5, (z,))
                for z, (g, m, l) in enumerate(zip(groups, counts, sizes), start=1)]
    blocks = _message_blocks(counts, sizes)
    factor = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF)
    got = _message_factors(factor, rho.layout, n, families, groups, blocks)
    factor_n = factor
    for _ in range(n - 1):
        factor_n = np.kron(factor_n, factor)
    tuples = _per_tuple_factors(factor_n, rho.layout.power(n), [f.blocks for f in families],
                                [SystemLayout.copy_major(g, n) for g in groups])
    assert len(got) == len(blocks)
    for row, f in zip(blocks, got):
        assert same_bits(f, np.concatenate([tuples[k] for k in row], axis=1)), row
