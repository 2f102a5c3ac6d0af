"""`evaluate_code` builds its message states one at a time.

Each message state is the last sender's `_mix` on a prefix walk over the
message tuples, so beside it only the current prefix chain is kept. The
recording wrapper keeps only weak references, so a state counts as alive
only while `evaluate_code` itself still holds it.
"""

import gc
import weakref

from qmap import protocols
from qmap.presets import resolve_state_spec
from qmap.protocols import build_qmap_code, evaluate_code


def test_at_most_one_earlier_message_state_is_alive(monkeypatch):
    spec = resolve_state_spec({"preset": {"name": "two-bell"}})
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           1, [1, 1], ([1, 1], [0, 0]), 0, family="pauli")
    assert code.message_space == 4
    last = list(code.sender_groups[-1])
    messages = []  # a weak reference to each message state, in call order
    alive = []  # per call: how many earlier message states are still alive
    inner = protocols._mix

    def recording(rho, unitaries, on):
        gc.collect()
        alive.append(sum(ref() is not None for ref in messages))
        out = inner(rho, unitaries, on)
        if list(on) == last:
            messages.append(weakref.ref(out))
        return out

    monkeypatch.setattr(protocols, "_mix", recording)
    report = evaluate_code(code, spec.state)
    # two sender-1 mixtures, each shared by two messages
    assert len(messages) == code.message_space == report.trials
    assert len(alive) == 2 + code.message_space
    assert max(alive) <= 1, alive
