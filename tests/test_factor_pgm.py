"""Every library PGM is built from square-root factors U_k F of the one
encoding walk, checked against the plain references `encode`,
`pgm_decoder` and `povm_success`.

The dense message-level PGM of a code (N r^n > d^n, so no Gram table) has
no benchmark traffic, so the classical-quantum Pauli code pins its exact
answer. The
POVM and union-bound boundaries refuse non-Hermitian operators, whose
anti-Hermitian part the PSD check of the Hermitian part cannot see.
"""

from itertools import product

import numpy as np
import pytest

from qmap import protocols
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    Povm,
    build_qmap_code,
    encode,
    encoding_experiment,
    evaluate_code,
    make_family,
    pgm_decoder,
    povm_success,
    union_bound_check,
)
from qmap.qstate import (
    StateValidationError,
    SystemLayout,
    random_density,
    tensor_power,
)

# a real matrix with Hermitian part diag(1, 0) and an anti-Hermitian part of size 1
NON_HERMITIAN = np.array([[1.0, 0.5], [-0.5, 0.0]])


def test_table_less_pgm_code_decodes_cq_exactly(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the Gram table ran")

    monkeypatch.setattr(protocols, "pgm_success_table", forbidden)
    spec = resolve_state_spec({"preset": {"name": "cq", "params": {"probs": [0.5, 0.5]}}})
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           1, [1], ([2], [1]), 0, family="pauli")
    assert [f.size for f in code.families] == [4]
    report = evaluate_code(code, spec.state)
    assert report.estimates["epsilon"] <= 1e-9
    assert report.estimates["theta"] <= 1e-9


@pytest.mark.parametrize("family, n, k_sweep", [
    ("haar", 1, [2, 3]),
    ("haar", 2, [2]),
    ("pauli", 1, [3, 4]),
])
def test_encoding_success_matches_dense_reference(family, n, k_sweep):
    layout = SystemLayout((("A1", 2), ("A2", 2), ("B", 2)))
    rho = random_density(layout, 2, 19)
    groups = [("A1",), ("A2",)]
    trials, seed = 2, 5
    report = encoding_experiment(rho, groups, n, k_sweep, trials, seed, family=family)
    rho_n = tensor_power(rho, n)
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]
    for k in k_sweep:
        want = []
        for t in range(trials):
            families = [make_family(family, z, n, 2, k, seed, (k, t, z))
                        for z in (1, 2)]
            encoded = encode(rho_n, families, copy_groups, list(product(range(k), repeat=2)))
            povm = pgm_decoder(encoded, [1.0 / len(encoded)] * len(encoded))
            want.append(povm_success(povm, encoded))
        got = report.samples[f"success_K{k}"]
        assert np.max(np.abs(np.array(got) - want)) < 1e-12
        assert abs(report.estimates[f"success_K{k}"] - np.mean(want)) < 1e-12


def test_povm_rejects_a_non_hermitian_element():
    with pytest.raises(StateValidationError, match="not Hermitian"):
        Povm((NON_HERMITIAN, np.eye(2) - NON_HERMITIAN))


def test_union_bound_rejects_a_non_hermitian_operator():
    rho = random_density(SystemLayout((("S", 2),)), 2, 0)
    with pytest.raises(StateValidationError, match="not Hermitian"):
        union_bound_check([NON_HERMITIAN], rho)
