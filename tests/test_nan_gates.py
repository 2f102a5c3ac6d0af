"""A NaN fails every tolerance gate.

Each raising check goes through `qstate.require` (deviation <= tol) or
`qstate.check_psd`, whose Hermitian check `trace_norm` shares, so a NaN
deviation raises the check's own error class, not a subclass or a later numpy
error. The set-function property checks return a report instead of raising; a
NaN fails each of their tests and is reported as the worst violation. CI runs
this file with `-W error::RuntimeWarning`, so no numpy "invalid value"
warning may come before the intended error.
"""

import math

import numpy as np
import pytest

from qmap.presets import cq_state
from qmap.protocols import Povm, UnitaryFamily, pgm_decoder, union_bound_check
from qmap.qstate import (
    StateValidationError,
    SystemLayout,
    check_psd,
    random_density,
    trace_norm,
)
from qmap.regions import (
    SeparationError,
    SetFunction,
    check_set_function_properties,
    rate_split,
    separate,
)

NAN = math.nan


def _nan_povm():
    a = np.diag([NAN, 0.5])
    return Povm((a, np.eye(2) - a))


def _nan_family():
    u = np.eye(2, dtype=complex)
    u[0, 1] = NAN
    return UnitaryFamily(1, 1, 2, ((u,),))


def _nan_priors():
    layout = SystemLayout((("A", 2),))
    return pgm_decoder([random_density(layout, 2, s) for s in (0, 1)], [NAN, 0.5])


def _nan_union_bound():
    rho = random_density(SystemLayout((("S", 2),)), 2, 0)
    return union_bound_check([np.diag([NAN, 0.5])], rho)


def _one_sender(value):
    return SetFunction(1, (0.0, value))


GATES = {
    "povm-element": (_nan_povm, StateValidationError),
    "unitary-family": (_nan_family, StateValidationError),
    "pgm-priors": (_nan_priors, ValueError),
    "union-bound-operator": (_nan_union_bound, StateValidationError),
    "separate": (lambda: separate(_one_sender(NAN), _one_sender(0.0)), SeparationError),
    "separate-strict": (lambda: separate(_one_sender(1.0), _one_sender(NAN), strict=True),
                        SeparationError),
    "rate-split": (lambda: rate_split([0.1], _one_sender(NAN), _one_sender(0.0)),
                   SeparationError),
    "cq-probs": (lambda: cq_state([NAN, 0.5]), ValueError),
    "check-psd-inf": (lambda: check_psd(np.full((2, 2), np.inf), 1e-10, "matrix"),
                      StateValidationError),
    "trace-norm-nan": (lambda: trace_norm(np.diag([NAN, 0.5])), StateValidationError),
    "trace-norm-inf": (lambda: trace_norm(np.full((2, 2), np.inf)), StateValidationError),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_a_non_finite_value_raises_the_gates_own_error(gate):
    call, error = GATES[gate]
    with pytest.raises(error) as info:
        call()
    assert info.type is error
    if error is SeparationError:
        assert info.value.subset == (1,)
    if gate in ("check-psd-inf", "trace-norm-inf"):
        assert "non-finite" in str(info.value)


@pytest.mark.parametrize("kind, failing", [
    ("superadditive", ["modular_inequality"]),
    ("subadditive-monotone", ["nonnegative", "monotone", "modular_inequality"]),
])
def test_a_nan_fails_every_set_function_property_test(kind, failing):
    report = check_set_function_properties(SetFunction(2, (0.0, NAN, 1.0, 1.5)), kind)
    assert not report.passed
    assert [name for name in ("nonnegative", "monotone", "modular_inequality")
            if not getattr(report, name)] == failing


@pytest.mark.parametrize("kind", ["superadditive", "subadditive-monotone"])
def test_a_nan_gap_is_the_reported_worst_violation(kind):
    # the first pair whose gap involves f({1}) = NaN is ((), (1,))
    report = check_set_function_properties(SetFunction(2, (0.0, NAN, 1.0, 1.5)), kind)
    assert report.worst_pair == ((), (1,))
    assert math.isnan(report.worst_violation)
