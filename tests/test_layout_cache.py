"""`SystemLayout` computes what it derives from `factors` once per instance.

Labels, dims, the total dimension, label positions and one contraction plan
per `on` tuple are kept on the layout. These tests check the local kernels
against the `embed_operator` reference on layouts whose plans are already
cached, that the cached values equal the ones recomputed from `factors`,
that the caches change neither `==`, `hash` nor `repr`, and that a bad `on`
raises on every call. They also cover the layout's reading of a dimension
(an integer, never a bool or a float) and of a bare-string label (one
label, not its characters).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap.qstate import (
    DimensionError,
    LabelError,
    SystemLayout,
    apply_local,
    conditional_entropy,
    conjugate_local,
    embed_operator,
    partial_trace,
    permute_factors,
    random_density,
)


def _random_matrix(rng, rows, cols):
    """A complex Gaussian matrix scaled to spectral norm 1, so every entry of a
    product of such matrices is at most 1 and 1e-12 is an absolute tolerance."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return g / np.linalg.norm(g, 2)


@st.composite
def layouts_and_ons(draw):
    """A layout of 1-5 qubit/qutrit factors and three random ordered `on` subsets."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=5))
    layout = SystemLayout(tuple((f"F{i}", d) for i, d in enumerate(dims)))
    ons = []
    for _ in range(3):
        order = draw(st.permutations(layout.labels))
        ons.append(tuple(order[:draw(st.integers(1, len(order)))]))
    return layout, ons, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(layouts_and_ons())
def test_local_kernels_match_embedding_and_repeat_bit_for_bit(case):
    layout, ons, seed = case
    rng = np.random.default_rng(seed)
    d = layout.dim
    m = _random_matrix(rng, d, d)
    rect = _random_matrix(rng, d, 3)
    ops = [_random_matrix(rng, layout.dim_of(on), layout.dim_of(on)) for on in ons]
    first = []
    for on, op in zip(ons, ops):
        full = embed_operator(op, on, layout)
        conj, app = conjugate_local(m, op, on, layout), apply_local(rect, op, on, layout)
        assert np.max(np.abs(conj - full @ m @ full.conj().T)) <= 1e-12
        assert np.max(np.abs(app - full @ rect)) <= 1e-12
        first.append((conj, app))
    # every plan is cached now; a repeat after the other plans were stored is
    # bit-identical to the first call
    for (conj, app), on, op in zip(first, ons, ops):
        assert np.array_equal(conjugate_local(m, op, on, layout), conj)
        assert np.array_equal(apply_local(rect, op, on, layout), app)


def _filled(layout):
    """Touch every cached value of the layout and return it."""
    for lab in layout.labels:
        layout.index(lab)
    layout.dim_of(layout.labels)
    conjugate_local(np.eye(layout.dim), np.eye(layout.dims[0]), layout.labels[:1], layout)
    return layout


@pytest.mark.parametrize("factors", [
    (("A", 2),),
    (("A1", 2), ("B", 3), ("E", 2)),
    (("x", 3), ("y", 1), ("z", 4), ("w", 2)),
])
def test_cached_values_equal_values_recomputed_from_factors(factors):
    layout = _filled(SystemLayout(factors))
    assert layout.labels == tuple(lab for lab, _ in factors)
    assert layout.dims == tuple(d for _, d in factors)
    assert layout.dim == math.prod(d for _, d in factors)
    assert type(layout.dim) is int
    for i, (lab, _) in enumerate(factors):
        assert layout.index(lab) == i


def test_caches_leave_equality_hash_and_repr_unchanged():
    factors = (("A1", 2), ("A2", 3), ("B", 2))
    filled, fresh = _filled(SystemLayout(factors)), SystemLayout(factors)
    assert filled == fresh
    assert hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert {filled: 1}[fresh] == 1


def test_replace_returns_a_layout_with_empty_caches():
    layout = _filled(SystemLayout((("A", 2), ("B", 3))))
    other = dataclasses.replace(layout, factors=(("A", 3), ("B", 2)))
    assert set(vars(other)) == {"factors"}
    assert other.dims == (3, 2) and other.dim == 6
    m = random_density(other, 6, 0).matrix
    op = np.diag([1.0, 1j, -1.0])
    full = embed_operator(op, ("A",), other)
    out = conjugate_local(m, op, ("A",), other)
    assert np.max(np.abs(out - full @ m @ full.conj().T)) <= 1e-12


@pytest.mark.parametrize("bad_on", [("Z",), ("A", "Z"), ("A", "A"), ("B", "A", "B")])
def test_bad_on_raises_on_every_call_also_after_a_valid_plan(bad_on):
    layout = SystemLayout((("A", 2), ("B", 2)))
    m = np.eye(4, dtype=complex)
    for _ in range(2):
        with pytest.raises(LabelError):
            conjugate_local(m, np.eye(2 ** len(bad_on)), bad_on, layout)
    conjugate_local(m, np.eye(2), ("A",), layout)
    apply_local(m, np.eye(4), ("B", "A"), layout)
    for _ in range(2):
        with pytest.raises(LabelError):
            conjugate_local(m, np.eye(2 ** len(bad_on)), bad_on, layout)
        with pytest.raises(LabelError):
            apply_local(m, np.eye(2 ** len(bad_on)), bad_on, layout)


def test_wrong_size_operator_raises_dimension_error():
    layout = SystemLayout((("A", 2), ("B", 3)))
    m = np.eye(6, dtype=complex)
    conjugate_local(m, np.eye(3), ("B",), layout)
    for _ in range(2):
        with pytest.raises(DimensionError):
            conjugate_local(m, np.eye(2), ("B",), layout)
        with pytest.raises(DimensionError):
            apply_local(m, np.eye(6), ("A",), layout)


@pytest.mark.parametrize("dim", [2.7, 2.0, True, False, "2", None])
def test_layout_refuses_a_dimension_that_is_not_an_integer(dim):
    with pytest.raises(DimensionError):
        SystemLayout((("A", dim),))


def test_layout_takes_numpy_integer_dimensions_as_ints():
    layout = SystemLayout((("A", np.int64(2)), ("B", np.uint8(3))))
    assert layout.dims == (2, 3)
    assert all(type(d) is int for d in layout.dims)
    assert layout == SystemLayout((("A", 2), ("B", 3)))


def test_bare_string_is_one_label():
    layout = SystemLayout((("A1", 2), ("B", 3)))
    rho = random_density(layout, 6, 0)
    assert layout.dim_of("A1") == 2
    reduced = partial_trace(rho, "A1")
    assert reduced.layout == SystemLayout((("A1", 2),))
    assert np.array_equal(reduced.matrix, partial_trace(rho, ("A1",)).matrix)
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.array_equal(conjugate_local(rho.matrix, u, "A1", layout),
                          conjugate_local(rho.matrix, u, ("A1",), layout))
    assert np.array_equal(apply_local(rho.matrix, u, "A1", layout),
                          apply_local(rho.matrix, u, ["A1"], layout))
    assert np.array_equal(embed_operator(u, "A1", layout),
                          embed_operator(u, ("A1",), layout))
    assert permute_factors(reduced, "A1").layout == reduced.layout
    assert conditional_entropy(rho, "A1", "B") == conditional_entropy(rho, ("A1",), ("B",))
