"""One mixed-state path for `simulate-code` and `simulate-randomization`.

`evaluate_code` and `chained_randomization_experiment` both mix a state over
one sender's block of unitaries (`_randomized`), start from `_Power.state`,
take their target from `_Power.target` and read every distance with
`_distances`. A state is held as a square-root factor only while that factor
is strictly narrower than the space D. A target too wide for its factor is
built from the rows of F^(x)n as (I/d_on) (x) Tr_on(F F^dag), and must agree
with the validated `_randomization_target` of the dense n-copy state.
"""

import numpy as np
import pytest

from qmap import protocols
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    _Power,
    _randomization_target,
    build_qmap_code,
    chained_randomization_experiment,
    evaluate_code,
)
from qmap.qstate import SystemLayout, random_density, tensor_power

QUBITS = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
QUTRIT = SystemLayout((("A", 2), ("Q", 3), ("E", 2)))
PAIR = SystemLayout((("A", 2), ("E", 2)))
ABBE = SystemLayout((("A1", 2), ("A2", 2), ("B", 2), ("E", 2)))

# (layout, rank, n, on, d_on^2 r^n against D): "below" keeps the factor
TARGETS = {
    "front-at": (QUBITS, 2, 1, ("A_1",), "at"),
    "middle-at": (QUBITS, 2, 1, ("B_1",), "at"),
    "end-at": (QUBITS, 2, 1, ("C_1",), "at"),
    "front-middle-above": (QUBITS, 8, 1, ("B_1", "A_1"), "above"),
    "middle-below": (QUBITS, 1, 1, ("B_1",), "below"),
    "qutrit-above": (QUTRIT, 12, 1, ("Q_1",), "above"),
    "qutrit-end-above": (QUTRIT, 3, 1, ("E_1", "Q_1"), "above"),
    "qutrit-below": (QUTRIT, 1, 1, ("Q_1",), "below"),
    "copies-at": (PAIR, 2, 2, ("A_2",), "at"),
    "copies-above": (PAIR, 2, 2, ("A_1", "A_2"), "above"),
}


@pytest.mark.parametrize("case", sorted(TARGETS))
def test_row_built_target_matches_the_validated_target(case):
    layout, rank, n, on, width = TARGETS[case]
    marginal = random_density(layout, rank, sorted(TARGETS).index(case))
    power = _Power(marginal, n)
    d_on, dim = power.layout.dim_of(on), power.layout.dim
    assert {"below": d_on ** 2 * power.width < dim, "at": d_on ** 2 * power.width == dim,
            "above": d_on ** 2 * power.width > dim}[width]
    target = power.target(on)
    assert target.held == (width == "below")
    want = _randomization_target(tensor_power(marginal, n), on).matrix
    assert np.max(np.abs(target.dense - want)) <= 1e-12


# (n, rates, (c, d), whether the mean of the messages is held as a factor)
RANK_2_CODES = [
    (1, [1, 1], ([1, 1], [0, 0]), False),  # 4 messages of width 4 on 8 dims
    (2, [0.5, 0], ([0.5, 0], [0, 0]), True),  # 2 messages of width 16 on 64 dims
]


@pytest.mark.parametrize("n, rates, splits, mean_held", RANK_2_CODES)
@pytest.mark.parametrize("decoder", ["pgm", "sequential"])
def test_rank_2_messages_are_held_as_factors(decoder, n, rates, splits, mean_held,
                                             monkeypatch):
    """A rank-2 A1 A2 B E state with one block per message: the A1 A2 E
    marginal's factor (width 4^n) stays narrower than 8^n through both
    senders' mixtures, so every message is a factor and no dense mixture is
    formed; leakage reads the mean of the messages, held while narrower than
    the space. Leakage and randomization distance do not depend on the decoder."""
    rho = random_density(ABBE, 2, 3)
    codes = {kind: build_qmap_code(rho, [["A1"], ["A2"]], ["B"], ["E"], n, rates, splits,
                                   3, family="haar", decoder=kind)
             for kind in ("pgm", decoder)}
    distances = []
    inner = protocols._distances

    def recording(state, target):
        distances.append((state, target.held))
        return inner(state, target)

    def forbidden(*args):
        raise AssertionError("a message was mixed densely")

    monkeypatch.setattr(protocols, "_distances", recording)
    monkeypatch.setattr(protocols, "_mixture", forbidden)
    report = evaluate_code(codes[decoder], rho)
    assert [target_held for _, target_held in distances] == [mean_held, False]
    for state, _ in distances:
        assert state.held and state.array.shape == (codes[decoder].message_space, 8 ** n,
                                                    4 ** n)
    pgm = evaluate_code(codes["pgm"], rho)
    for name in ("leakage", "randomization_distance"):
        assert report.samples[name] == pgm.samples[name]


def test_no_held_state_is_as_wide_as_the_space(monkeypatch):
    """Two-bell at n=2 with full Pauli blocks [16, 16]: stage 2's 64-dim
    marginal has rank 4, so its mixture over 16 blocks would be a 64-wide
    factor; it is dense instead. The same holds for GHZ-4's code at n=2."""
    made = []  # (shape, held) of every `_State`
    inner = protocols._State

    def recording(array, held):
        made.append((array.shape, held))
        return inner(array, held)

    monkeypatch.setattr(protocols, "_State", recording)
    spec = resolve_state_spec({"preset": {"name": "two-bell"}})
    chained_randomization_experiment(spec.state, spec.senders, list(spec.receiver), 2,
                                     [16, 16], 1, 0, family="pauli")
    ghz = resolve_state_spec({"preset": {"name": "ghz", "params": {"parties": 4}}})
    code = build_qmap_code(ghz.state, ghz.senders, ghz.receiver, ghz.eavesdropper, 2,
                           [0.5] * 3, ([1.0] * 3, [0.5] * 3), 0, family="haar")
    evaluate_code(code, ghz.state)
    held = [shape for shape, is_held in made if is_held]
    assert held and any(not is_held for _, is_held in made)
    for shape in held:
        assert shape[-1] < shape[-2], shape
