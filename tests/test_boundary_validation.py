"""A `DensityMatrix` is validated where a state enters qmap or is returned,
never for an intermediate conjugation.

The differential test keeps the dropped intermediate check as a test: the
array kernel `conjugate_local` gives, bit for bit, the matrix of
`apply_unitary`, and that matrix passes `DensityMatrix` validation. The
count tests wrap `qstate.check_psd`, keep only the calls that check a
`"matrix"` (a `DensityMatrix`; POVM elements and union-bound operators go
through the same check under other names), and count the validations of
`_mix`, `encode` and `sequential_decoder`.
"""

from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap import protocols, qstate
from qmap.protocols import (
    _mix,
    encode,
    haar_unitary,
    make_family,
    sequential_decoder,
    weyl_unitaries,
)
from qmap.qstate import (
    DensityMatrix,
    SystemLayout,
    apply_unitary,
    conjugate_local,
    random_density,
)


@st.composite
def conjugations(draw):
    """A random validated state on 1-4 qubit/qutrit factors and a Haar or Pauli
    unitary on a random ordered subset of them."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4))
    layout = SystemLayout(tuple((f"F{i}", d) for i, d in enumerate(dims)))
    rho = random_density(layout, draw(st.integers(1, layout.dim)),
                         draw(st.integers(0, 2 ** 32 - 1)))
    order = draw(st.permutations(layout.labels))
    on = list(order[:draw(st.integers(1, len(order)))])
    if draw(st.sampled_from(["haar", "pauli"])) == "haar":
        u = haar_unitary(layout.dim_of(on), np.random.default_rng(draw(st.integers(0, 99))))
    else:
        paulis = [weyl_unitaries(layout.dims[layout.index(lab)]) for lab in on]
        u = reduce(np.kron, [ops[draw(st.integers(0, len(ops) - 1))] for ops in paulis])
    return rho, u, on


@settings(max_examples=150, deadline=None)
@given(conjugations())
def test_conjugate_local_is_apply_unitary_and_stays_a_state(case):
    rho, u, on = case
    out = conjugate_local(rho.matrix, u, on, rho.layout)
    assert np.array_equal(out, apply_unitary(rho, u, on).matrix)
    DensityMatrix(out, rho.layout)  # the check no intermediate runs any more


@pytest.fixture
def validations(monkeypatch):
    """Sizes of the matrices `DensityMatrix` has PSD-checked since the fixture was set up."""
    calls = []
    check = qstate.check_psd

    def counted(m, tol, what):
        if what == "matrix":
            calls.append(m.shape[0])
        return check(m, tol, what)

    monkeypatch.setattr(qstate, "check_psd", counted)
    return calls


def _state(labels, seed):
    layout = SystemLayout(tuple((lab, 2) for lab in labels))
    return random_density(layout, layout.dim, seed)


@pytest.mark.parametrize("count", [1, 2, 5])
def test_mix_validates_only_the_mixture(validations, count):
    rho = _state(["A1", "A2", "B"], 3)
    rng = np.random.default_rng(4)
    unitaries = [haar_unitary(4, rng) for _ in range(count)]
    validations.clear()
    mixed = _mix(rho, unitaries, ["A2", "A1"])
    assert validations == [rho.dim]
    expected = sum(apply_unitary(rho, u, ["A2", "A1"]).matrix for u in unitaries) / count
    assert np.array_equal(mixed.matrix, expected)


@pytest.mark.parametrize("k_tuples", [
    list(product(range(3), range(2))),
    [(2, 1), (0, 0), (2, 0), (0, 0)],
], ids=["all", "some-repeated"])
def test_encode_validates_once_per_returned_tuple(validations, k_tuples):
    rho = _state(["A1", "A2", "B"], 5)
    families = [make_family("haar", z, 1, 2, size, 6, (z,))
                for z, size in enumerate((3, 2), start=1)]
    groups = [["A1"], ["A2"]]
    validations.clear()
    states = encode(rho, families, groups, k_tuples)
    assert validations == [rho.dim] * len(k_tuples)
    for (k1, k2), state in zip(k_tuples, states):
        expected = apply_unitary(apply_unitary(rho, families[0].block(k1), ["A1"]),
                                 families[1].block(k2), ["A2"])
        assert np.array_equal(state.matrix, expected.matrix)


def test_sequential_decoder_builds_no_state_for_its_stage_ensembles(validations,
                                                                   monkeypatch):
    rho = _state(["A1", "A2", "B1", "B2"], 7)
    families = [make_family("haar", z, 1, 2, 2, 8, (z,)) for z in (1, 2)]
    ensembles = []
    decoder = protocols._pgm

    def recorded(factors, *args, **kwargs):
        ensembles.append([type(f) for f in factors])
        return decoder(factors, *args, **kwargs)

    monkeypatch.setattr(protocols, "_pgm", recorded)
    validations.clear()
    sequential_decoder(rho, [["A1"], ["A2"]], ["B1", "B2"], families)
    assert ensembles == [[np.ndarray] * 2] * 2
    # the two stage marginals (A1 B1 B2, then all four factors) are the only states
    assert validations == [8, 16]
