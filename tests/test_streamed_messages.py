"""`evaluate_code` builds its message states one at a time.

Each message state is the last `_mix` of that message. The recording
wrapper keeps only weak references, so a state counts as alive only while
`evaluate_code` itself still holds it.
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
    results = []  # a weak reference to each _mix result, in call order
    alive = []  # per call: how many earlier message states are still alive
    inner = protocols._mix

    def recording(*args):
        gc.collect()
        messages = results[code.z_count - 1::code.z_count]
        alive.append(sum(ref() is not None for ref in messages))
        out = inner(*args)
        results.append(weakref.ref(out))
        return out

    monkeypatch.setattr(protocols, "_mix", recording)
    report = evaluate_code(code, spec.state)
    assert len(alive) == code.z_count * code.message_space == 2 * report.trials
    assert max(alive) <= 1, alive
