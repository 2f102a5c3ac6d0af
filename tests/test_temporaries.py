"""Full-size temporaries of the Hermitian kernels.

Each limit is the tracemalloc peak above the memory allocated before the call,
in units of one d x d complex matrix, at d = 1024 on ten qubit factors.
tracemalloc sees numpy's arrays, not LAPACK's work buffers. A `DensityMatrix`
check holds one Hermitian part and the Cholesky factor, and the state then
keeps one copy of its input; `_mix` holds its accumulator and
`conjugate_local`'s two temporaries; `trace_norm` holds the Hermitian
deviation and its absolute value. A randomization run on a 256-dim state
stacks one trial per chunk, so its peak is that of one trial.
"""

import tracemalloc

import numpy as np
import pytest

from qmap import protocols
from qmap.presets import resolve_state_spec
from qmap.protocols import _mix, chained_randomization_experiment, haar_unitary
from qmap.qstate import DensityMatrix, SystemLayout, random_density, trace_norm

LAYOUT = SystemLayout(tuple((f"Q{i}", 2) for i in range(10)))
MATRIX_BYTES = LAYOUT.dim ** 2 * np.dtype(complex).itemsize


def _density_matrix(a, b):
    matrix = np.array(a.matrix)
    return lambda: DensityMatrix(matrix, LAYOUT)


def _mix_four_unitaries(a, b):
    rng = np.random.default_rng(0)
    unitaries = [haar_unitary(2, rng) for _ in range(4)]
    return lambda: _mix(a, unitaries, ["Q0"])


def _trace_norm(a, b):
    diff = a.matrix - b.matrix
    return lambda: trace_norm(diff)


KERNELS = {
    "density-matrix": (_density_matrix, 3.0),
    "mix-four-unitaries": (_mix_four_unitaries, 4.0),
    "trace-norm": (_trace_norm, 2.0),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_peak_temporaries_stay_within_the_limit(kernel):
    make, limit = KERNELS[kernel]
    call = make(random_density(LAYOUT, 4, 0), random_density(LAYOUT, 4, 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / MATRIX_BYTES <= limit


def test_a_256_dim_randomization_chunk_holds_one_trial(monkeypatch):
    """Two-bell at n = 2 with blocks of 4: stage 1's state is 256-dim. Every
    chunk holds one trial, no state is mixed densely (each is a square-root
    factor), and the run's peak above its start stays within 6 256-dim
    matrices: the total target (built dense from the rows of its factor),
    one trial's densified chain and its trace-norm temporaries (3.7; 5.9
    while the target was a 256-wide factor densified beside itself); a chunk
    of two trials reaches 6.3."""
    spec = resolve_state_spec({"preset": {"name": "two-bell"}})
    chunks, mixed = [], []
    inner, inner_mixture = protocols._trial_chunks, protocols._mixture

    def recording(trials, trial_bytes):
        out = inner(trials, trial_bytes)
        chunks.extend(len(c) for c in out)
        return out

    def mixture(*args):
        mixed.append(args)
        return inner_mixture(*args)

    monkeypatch.setattr(protocols, "_trial_chunks", recording)
    monkeypatch.setattr(protocols, "_mixture", mixture)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chained_randomization_experiment(spec.state, spec.senders, list(spec.receiver), 2,
                                         [4, 4], 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks and set(chunks) == {1} and not mixed
    assert (peak - before) / (256 ** 2 * np.dtype(complex).itemsize) <= 6.0
