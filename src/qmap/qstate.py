"""Dense linear algebra over labeled multipartite quantum systems.

States, unitaries, partial traces, entropic quantities and trace norms.
All values are immutable after construction and every operation is a pure
function (`psd_violation` alone writes to its argument, and restores it), so
everything here is safe to share across threads. A
`SystemLayout` caches its metadata (labels, dims, dim, label positions) and
one contraction plan per `on` tuple; each is a deterministic function of
`factors`, so two threads that fill the same entry store equal values.

Entropies are in bits throughout.

Validation contract: a `DensityMatrix` is built, and so validated, only where
a state enters qmap (spec parsing, public constructors) or a function returns
one; arithmetic inside a function stays on matrices (`conjugate_local`,
`apply_local`), and a stack of states it computes is checked as each
`DensityMatrix` is by one `check_density` call. Every raising tolerance check in qmap goes through
`require(deviation, tol, error, message, *args)`, which raises unless
deviation <= tol, so a NaN deviation fails every check. `check_psd` is the one
"Hermitian within HERMITIAN_TOL, PSD within `tol`" check, used by every
`DensityMatrix`, every POVM element and every `union_bound_check` operator in
`qmap.protocols`, on one matrix or a stack. Its PSD decision against `tol` is made by `psd_violation`.
It first tries a Cholesky factorization of h + (tol/2) I. A factorization that
runs to completion is exact for a perturbed matrix h + (tol/2) I + E with
||E||_2 <= (d+1) eps tr(h + (tol/2) I) (the componentwise backward-error
bound, summed through Cauchy-Schwarz on the columns of the factor), so min
eig(h) >= -tol/2 - ||E||_2. The certificate is accepted only when twice that
bound (the factor two covers complex arithmetic and higher-order terms) is
below tol/2, which leaves min eig(h) > -tol; for a unit-trace state this holds
for every dimension up to 2^14. When the factorization fails, or the bound
does not fit, the decision falls back to the exact `eigvalsh` comparison, so
the tolerance and the accept/reject outcome are those of an eigenvalue check.
A check holds one Hermitian part beyond its input (built in place in the array
its Hermitian deviation was computed in, and shifted on its diagonal), plus
numpy's Cholesky factor and LAPACK's buffers.

The region layer's marginals are the one exception to "validated as a
`DensityMatrix`": `marginal_entropies` traces them on matrices and makes
each `DensityMatrix` check on them in stacks of one dimension (Hermitian
and trace through `require`, PSD by the minimum of the spectrum its entropy
is read from), at the same tolerances, naming the marginal's labels in the
StateValidationError.

Local operators act by contracting only the acted-on tensor axes
(`apply_unitary`, `apply_local`, `conjugate_local`); `embed_operator` builds
the full operator and is kept as the plain reference.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
UNITARY_TOL = 1e-10
EIG_ZERO_TOL = 1e-12


class LabelError(ValueError):
    """Unknown, duplicate or overlapping subsystem labels."""


class DimensionError(ValueError):
    """Operator dimensions incompatible with the layout."""


class StateValidationError(ValueError):
    """Matrix fails the density-matrix, POVM or unitary invariants."""


def _label_tuple(labels: str | Iterable[str]) -> tuple[str, ...]:
    """The labels as a tuple; a bare string is one label, not its characters."""
    return (labels,) if isinstance(labels, str) else tuple(labels)


def _factor_dim(d) -> int:
    """A factor dimension as an int: integers (numpy's too) only, never a bool."""
    if isinstance(d, bool):
        raise DimensionError(f"factor dimension must be an integer, got {d!r}")
    try:
        return operator.index(d)
    except TypeError:
        raise DimensionError(f"factor dimension must be an integer, got {d!r}") from None


class _Plan(NamedTuple):
    """How `_contract_local` moves the `on` factors of a layout to the front:
    axis permutations for a (d, cols) matrix (`rows`) and a (d, d) one
    (`both`), each followed by its inverse."""

    d_on: int
    d_rest: int
    moved: tuple[int, ...]
    rows: tuple[int, ...]
    rows_back: tuple[int, ...]
    both: tuple[int, ...]
    both_back: tuple[int, ...]


@dataclass(frozen=True)
class SystemLayout:
    """Ordered, labeled tensor factorization of a Hilbert space.

    Everything derived from `factors` (labels, dims, dim, label positions,
    contraction plans) is computed on first use and kept on the instance;
    `==`, `hash` and `repr` see only `factors`.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(lab), _factor_dim(d)) for lab, d in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate labels in layout: {labels}")
        if any(d < 1 for _, d in factors):
            raise DimensionError("all factor dimensions must be >= 1")

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _plans(self) -> dict[tuple[str, ...], _Plan]:
        return {}

    def dim_of(self, labels: str | Iterable[str]) -> int:
        wanted = set(_label_tuple(labels))
        self._check_known(wanted)
        return math.prod(self.dims[self._positions[lab]] for lab in wanted)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise LabelError(f"unknown label {label!r}; layout has {self.labels}") from None

    def _check_known(self, labels: str | Iterable[str]) -> None:
        unknown = {lab for lab in _label_tuple(labels) if lab not in self._positions}
        if unknown:
            raise LabelError(f"unknown labels {sorted(unknown)}; layout has {self.labels}")

    def _plan(self, on: str | Iterable[str]) -> _Plan:
        """The contraction plan for an operator on the `on` factors, in that
        order. The label checks run when the plan is built, and a plan that
        fails them is never stored."""
        on = _label_tuple(on)
        plan = self._plans.get(on)
        if plan is None:
            self._check_known(on)
            if len(set(on)) != len(on):
                raise LabelError(f"repeated labels {list(on)}")
            k = len(self.factors)
            front = [self._positions[lab] for lab in on]
            perm = tuple(front + [i for i in range(k) if i not in front])
            inverse = tuple(sorted(range(k), key=perm.__getitem__))
            moved = tuple(self.dims[i] for i in perm)
            d_on = math.prod(moved[:len(on)])
            plan = self._plans[on] = _Plan(
                d_on, self.dim // d_on, moved, perm + (k,), inverse + (k,),
                perm + tuple(k + i for i in perm), inverse + tuple(k + i for i in inverse))
        return plan

    def power(self, n: int) -> "SystemLayout":
        """Layout of the n-copy space, copy-major: (A,B)^2 -> A_1 B_1 A_2 B_2."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return SystemLayout(tuple(zip(self.copy_major(self.labels, n), self.dims * n)))

    @staticmethod
    def copy_major(labels: Sequence[str], n: int) -> tuple[str, ...]:
        """Labels of n copies of the given factors in the order of `power`:
        (A, B), 2 -> A_1 B_1 A_2 B_2."""
        return tuple(f"{lab}_{i}" for i in range(1, n + 1) for lab in labels)

    @staticmethod
    def copy_labels(label: str, n: int) -> tuple[str, ...]:
        """Labels of the n copies of a single factor, matching `power`."""
        return SystemLayout.copy_major((label,), n)


def label_groups(entries: Iterable) -> list[tuple[str, ...]]:
    """One label tuple per entry; a bare string is a one-label group."""
    return [_label_tuple(e) for e in entries]


def _as_square_complex(matrix, stack: bool = False) -> np.ndarray:
    """A square complex matrix, or with `stack` a stack (..., d, d) of them."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.ndim > 2 and not stack or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def psd_violation(h: np.ndarray, tol: float) -> float | np.ndarray | None:
    """None if the Hermitian matrix `h` is PSD within `tol`, else its minimum
    eigenvalue (which is below -tol); for a stack (..., d, d), each matrix's
    value in an array, with NaN for None.

    A Cholesky factorization of h + (tol/2) I certifies min eig(h) > -tol
    when its backward-error bound fits in the other tol/2 (see the module
    docstring); otherwise, or when a stack's one factorization fails, the
    minimum eigenvalues are computed with `eigvalsh`. The shift is made on
    `h`'s own diagonal and undone exactly before it returns, so `h` must be
    writable and not shared.
    """
    d = h.shape[-1]
    diag = np.einsum("...ii->...i", h)
    saved = diag.copy()
    shifted = saved + tol / 2
    if (2 * (d + 1) * np.finfo(float).eps * np.abs(shifted).sum(axis=-1) < tol / 2).all():
        diag[...] = shifted
        try:
            np.linalg.cholesky(h)
            return None if h.ndim == 2 else np.full(h.shape[:-2], np.nan)
        except np.linalg.LinAlgError:
            pass
        finally:
            diag[...] = saved
    min_eig = np.min(np.linalg.eigvalsh(h), axis=-1)
    if h.ndim == 2:
        return float(min_eig) if min_eig < -tol else None
    return np.where(min_eig < -tol, min_eig, np.nan)


def require(deviation, tol: float, error, message: str, *args) -> None:
    """Raise `error(message.format(*args))` unless deviation <= tol, so a NaN
    deviation fails. The message is formatted only when the check fails."""
    if not deviation <= tol:
        raise error(message.format(*args))


def _first_failing(devs: np.ndarray, tol: float) -> int:
    """Index of the first of a flat array's deviations not within `tol` (a NaN
    is not), or -1."""
    within = devs <= tol
    return -1 if within.all() else int(np.flatnonzero(~within)[0])


def _check_hermitian(m: np.ndarray, what: str | Sequence[str]) -> np.ndarray:
    """Raise StateValidationError unless max |m - m^dag| <= HERMITIAN_TOL, so a
    NaN or infinite entry fails; `what` names `m` in the message. On a stack
    (..., d, d) the first failing matrix raises, and `what` may name each
    matrix in C order. Returns the array the deviation was computed in, for
    the caller to reuse."""
    scratch = np.conjugate(m.swapaxes(-1, -2), dtype=np.result_type(m, 0.5))
    # a NaN or infinite entry makes the deviation NaN or inf (inf - inf)
    with np.errstate(invalid="ignore"):
        scratch -= m
        devs = np.abs(scratch).max(axis=(-2, -1)).reshape(-1)
    i = _first_failing(devs, HERMITIAN_TOL)
    if i >= 0:
        require(devs[i], HERMITIAN_TOL, StateValidationError,
                "{} is not Hermitian within tolerance" if math.isfinite(devs[i])
                else "{} has non-finite entries", what if isinstance(what, str) else what[i])
    return scratch


def check_psd(m: np.ndarray, tol: float, what: str | Sequence[str]) -> None:
    """Raise StateValidationError unless the square matrix `m` is Hermitian
    within HERMITIAN_TOL and PSD within `tol` (`psd_violation` on its Hermitian
    part); `what` names it in the message. A stack (..., d, d) is checked as
    `_check_hermitian` checks it, then the first matrix that is not PSD raises."""
    h = _check_hermitian(m, what)
    # the Hermitian part (m + m^dag) / 2, built in place in the scratch array
    np.conjugate(m.swapaxes(-1, -2), out=h)
    h += m
    h /= 2
    if m.ndim == 2:
        i, min_eig = 0, psd_violation(h, tol)
    else:
        violations = psd_violation(h.reshape(-1, *h.shape[-2:]), tol)
        bad = np.flatnonzero(~np.isnan(violations))
        i, min_eig = (bad[0], float(violations[bad[0]])) if bad.size else (0, None)
    if min_eig is not None:
        raise StateValidationError(f"{what if isinstance(what, str) else what[i]} is not "
                                   f"PSD within tolerance: min eigenvalue {min_eig}")


def check_density(m: np.ndarray) -> None:
    """The `DensityMatrix` check of `m`, or of each matrix of a stack: `check_psd`
    within PSD_TOL, then unit trace within TRACE_TOL (the first failing raises)."""
    check_psd(m, PSD_TOL, "matrix")
    check_trace(m.trace(axis1=-2, axis2=-1).real)


def check_trace(traces: np.ndarray) -> None:
    """Raise StateValidationError unless each trace is 1 within TRACE_TOL (the
    first failing raises, with `check_density`'s message)."""
    traces = traces.reshape(-1)
    # the first trace out of tolerance, else one within it
    tr = float(traces[max(0, _first_failing(np.abs(traces - 1), TRACE_TOL))])
    require(abs(tr - 1), TRACE_TOL, StateValidationError,
            "trace {} is not 1 within tolerance", tr)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix of unit trace bound to a layout.

    Operators of other traces (gentle-measurement operators, POVM elements)
    stay plain matrices.
    """

    matrix: np.ndarray
    layout: SystemLayout

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        if m.shape[0] != self.layout.dim:
            raise DimensionError(
                f"matrix dim {m.shape[0]} != layout dim {self.layout.dim}")
        check_density(m)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.layout.dim


def maximally_mixed(layout: SystemLayout) -> DensityMatrix:
    d = layout.dim
    return DensityMatrix(np.eye(d) / d, layout)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product with concatenated layouts."""
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise LabelError(f"label collision in tensor product: {sorted(overlap)}")
    layout = SystemLayout(a.layout.factors + b.layout.factors)
    return DensityMatrix(np.kron(a.matrix, b.matrix), layout)


def tensor_power(s: DensityMatrix, n: int) -> DensityMatrix:
    """n-fold tensor product of a state, with copy-indexed labels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = s.matrix
    for _ in range(n - 1):
        m = np.kron(m, s.matrix)
    return DensityMatrix(m, s.layout.power(n))


def _basis_permutation(layout: SystemLayout, new_order: Sequence[str]) -> np.ndarray:
    """Flat index of each basis state of the reordered layout in the original one."""
    if sorted(new_order) != sorted(layout.labels):
        raise LabelError(f"{new_order} is not a permutation of {layout.labels}")
    dims = np.array(layout.dims)
    k = len(dims)
    positions = [layout.index(lab) for lab in new_order]
    grid = np.indices([int(dims[p]) for p in positions]).reshape(k, -1)
    strides = np.ones(k, dtype=np.int64)
    for i in range(k - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    orig = np.zeros(grid.shape[1], dtype=np.int64)
    for axis, p in enumerate(positions):
        orig += grid[axis] * strides[p]
    return orig


def permute_factors(s: DensityMatrix, new_order: Sequence[str]) -> DensityMatrix:
    """Same state on the layout with factors reordered as `new_order`."""
    new_order = _label_tuple(new_order)
    idx = _basis_permutation(s.layout, new_order)
    layout = SystemLayout(tuple(
        (lab, s.layout.dims[s.layout.index(lab)]) for lab in new_order))
    return DensityMatrix(s.matrix[np.ix_(idx, idx)], layout)


def embed_operator(op, op_labels: Sequence[str], layout: SystemLayout) -> np.ndarray:
    """Extend an operator on the `op_labels` factors by identity on the rest.

    `op` acts on the tensor product of the named factors in the given order;
    the result acts on the full layout in its own factor order.
    """
    op = _as_square_complex(op)
    op_labels = _label_tuple(op_labels)
    layout._check_known(op_labels)
    if len(set(op_labels)) != len(op_labels):
        raise LabelError(f"repeated labels {list(op_labels)}")
    d_sel = layout.dim_of(op_labels)
    if op.shape[0] != d_sel:
        raise DimensionError(f"operator dim {op.shape[0]} != selected dim {d_sel}")
    rest = [lab for lab in layout.labels if lab not in set(op_labels)]
    d_rest = layout.dim_of(rest)
    big = np.kron(op, np.eye(d_rest))
    idx = _basis_permutation(layout, list(op_labels) + rest)
    full = np.empty((layout.dim, layout.dim), dtype=complex)
    full[np.ix_(idx, idx)] = big
    return full


def _contract_local(m: np.ndarray, op, on: str | Sequence[str], layout: SystemLayout,
                    conjugate: bool) -> np.ndarray:
    """(O x I) m, or (O x I) m (O x I)^dag when `conjugate`, for an operator O
    on the `on` factors (in that order), contracting only the acted-on axes.

    The `on` factors are moved to the front of the rows (and of the columns
    when conjugating), O multiplies the grouped rows and conj(O) the grouped
    columns, and the factors are moved back. No layout-sized operator is built.
    m and O may be stacks (..., d, cols) and (..., d_on, d_on) whose leading
    axes broadcast as in `np.matmul`; each item is the same product a single
    call makes.
    """
    op = _as_square_complex(op, stack=True)
    plan = layout._plan(on)
    if op.shape[-1] != plan.d_on:
        raise DimensionError(f"operator dim {op.shape[-1]} != selected dim {plan.d_on}")
    dims, d, cols = layout.dims, layout.dim, m.shape[-1]
    batch = m.shape[:-2]
    if conjugate:
        t = m.reshape(batch + dims + dims).transpose(_after(len(batch), plan.both))
        t = op @ t.reshape(batch + (plan.d_on, -1))
        batch = t.shape[:-2]
        # conj(O) on the column factors of each row of each item
        right = op.conj() if op.ndim == 2 else op.conj()[..., None, :, :]
        t = np.matmul(right, t.reshape(batch + (d, plan.d_on, plan.d_rest)))
        moved, back = plan.moved * 2, plan.both_back
    else:
        t = m.reshape(batch + dims + (cols,)).transpose(_after(len(batch), plan.rows))
        t = op @ t.reshape(batch + (plan.d_on, -1))
        batch = t.shape[:-2]
        moved, back = plan.moved + (cols,), plan.rows_back
    t = t.reshape(batch + moved).transpose(_after(len(batch), back))
    return t.reshape(batch + (d, cols))


def _after(lead: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    """An axis permutation of the trailing axes, behind `lead` leading axes kept in place."""
    return perm if not lead else tuple(range(lead)) + tuple(lead + a for a in perm)


def apply_local(m, op, on: Sequence[str], layout: SystemLayout) -> np.ndarray:
    """(O x I) m for an operator O on the `on` factors and a matrix m whose
    rows are indexed by `layout` (any number of columns). m may be a stack
    (..., d, cols) and O a stack (..., d_on, d_on): their leading axes
    broadcast as in `np.matmul`, and each item has the bits of a single call."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != layout.dim:
        raise DimensionError(f"matrix shape {m.shape} does not match layout dim {layout.dim}")
    return _contract_local(m, op, on, layout, conjugate=False)


def conjugate_local(m, op, on: Sequence[str], layout: SystemLayout) -> np.ndarray:
    """(O x I) m (O x I)^dag for an operator O on the `on` factors. m may be a
    stack (..., d, d) and O a stack (..., d_on, d_on), as in `apply_local`."""
    m = _as_square_complex(m, stack=True)
    if m.shape[-1] != layout.dim:
        raise DimensionError(f"matrix dim {m.shape[-1]} != layout dim {layout.dim}")
    return _contract_local(m, op, on, layout, conjugate=True)


def apply_unitary(s: DensityMatrix, u, on: Sequence[str]) -> DensityMatrix:
    """Conjugate the state by a unitary acting on the `on` factors; `on` fixes
    the factor order the unitary is written in."""
    return DensityMatrix(conjugate_local(s.matrix, u, on, s.layout), s.layout)


def partial_trace(s: DensityMatrix, keep: str | Iterable[str]) -> DensityMatrix:
    """Reduced state on the kept factors, original factor order preserved."""
    keep = set(_label_tuple(keep))
    s.layout._check_known(keep)
    factors = s.layout.factors
    dims = s.layout.dims
    k = len(dims)
    t = s.matrix.reshape(dims + dims)
    # trace out dropped axes back-to-front so axis numbers stay valid
    remaining = list(range(k))
    for i in range(k - 1, -1, -1):
        if factors[i][0] not in keep:
            pos = remaining.index(i)
            t = np.trace(t, axis1=pos, axis2=pos + len(remaining))
            remaining.pop(pos)
    kept_factors = tuple(f for f in factors if f[0] in keep)
    d = math.prod(dim for _, dim in kept_factors)
    layout = SystemLayout(kept_factors) if kept_factors else SystemLayout(
        (("_trivial", 1),))
    return DensityMatrix(t.reshape(d, d), layout)


def _spectrum_entropy(eig: np.ndarray) -> float:
    """-sum p log2 p over a PSD spectrum; eigenvalues <= EIG_ZERO_TOL add nothing."""
    eig = eig[eig > EIG_ZERO_TOL]
    return float(-np.sum(eig * np.log2(eig)))


def entropy(s: DensityMatrix) -> float:
    """von Neumann entropy in bits."""
    # the constructor certified PSD
    return _spectrum_entropy(np.linalg.eigvalsh((s.matrix + s.matrix.conj().T) / 2))


def _stack_entropies(stack: np.ndarray, names: list[tuple[str, ...]]) -> list[float]:
    """Entropies of a (count, d, d) stack of marginals, the i-th on the labels
    `names[i]`. Each is checked as a `DensityMatrix` is: Hermitian within
    HERMITIAN_TOL, unit trace within TRACE_TOL, and PSD within PSD_TOL by the
    minimum of the spectrum its entropy is read from (the exact comparison
    `psd_violation` falls back to). A failure raises StateValidationError
    naming the marginal's labels."""
    # C order, so that only the conjugate transposes read across the rows
    h = np.empty_like(stack)
    np.conjugate(stack.transpose(0, 2, 1), out=h)
    # a NaN or infinite entry makes the deviation NaN or inf (inf - inf)
    with np.errstate(invalid="ignore"):
        h -= stack
        devs = np.abs(h).max(axis=(1, 2))
    for labels, dev in zip(names, devs):
        require(dev, HERMITIAN_TOL, StateValidationError,
                "marginal on {} is not Hermitian within tolerance" if math.isfinite(dev)
                else "marginal on {} has non-finite entries", list(labels))
    traces = np.real(np.trace(stack, axis1=1, axis2=2))
    for labels, tr in zip(names, traces):
        require(abs(tr - 1), TRACE_TOL, StateValidationError,
                "marginal on {} has trace {}, not 1 within tolerance", list(labels), tr)
    # the Hermitian parts (m + m^dag) / 2, built in place in the scratch stack
    np.conjugate(stack.transpose(0, 2, 1), out=h)
    h += stack
    h /= 2
    spectra = np.linalg.eigvalsh(h)
    for labels, eig in zip(names, spectra):
        require(-eig[0], PSD_TOL, StateValidationError,
                "marginal on {} is not PSD within tolerance: min eigenvalue {}",
                list(labels), eig[0])
    return [_spectrum_entropy(eig) for eig in spectra]


def marginal_entropies(rho: DensityMatrix | Sequence[DensityMatrix],
                       label_sets: Iterable[Iterable[str]]) -> dict[frozenset, float]:
    """S(rho restricted to each label set) in bits, keyed by the label set as
    a frozenset; the empty set has entropy 0. `rho` may be a sequence of
    states on one layout: each value is then the tuple of their entropies,
    in order (one column per state).

    One depth-first walk of a subset-enumeration tree computes every
    marginal (of every state at once) as its parent with one more factor
    traced out. Factors leave from the last to the first, as in
    `partial_trace`, so each marginal has `partial_trace`'s bits. Only the
    chain of ancestors of the current node is alive, plus the marginals
    waiting to be stacked: those of one dimension are stacked, checked and
    diagonalized (`_stack_entropies`) once they hold as many bytes as the
    states' matrices, or once every marginal of that dimension has been
    traced.
    """
    if isinstance(rho, DensityMatrix):
        layout, matrices = rho.layout, rho.matrix[None]
    else:
        layout = rho[0].layout
        if any(s.layout != layout for s in rho):
            raise DimensionError("states must share one layout")
        matrices = np.stack([s.matrix for s in rho])
    count = len(matrices)
    keys = {frozenset(_label_tuple(s)) for s in label_sets}
    for key in keys:
        layout._check_known(key)
    out = {frozenset(): [0.0] * count} if frozenset() in keys else {}
    keys.discard(frozenset())
    # a node is [wanted, {index of the next factor traced out: child node}]
    root = [False, {}]
    for key in keys:
        node = root
        for i in reversed(range(len(layout.labels))):
            if layout.labels[i] not in key:
                node = node[1].setdefault(i, [False, {}])
        node[0] = True
    pending = Counter(layout.dim_of(key) for key in keys)
    # dimension -> (marginals waiting, their labels)
    waiting: dict[int, tuple[list[np.ndarray], list[tuple[str, ...]]]] = {}

    def add(m: np.ndarray, labels: tuple[str, ...]) -> None:
        d = m.shape[-1]
        ms, names = waiting.setdefault(d, ([], []))
        ms.append(m)
        names.append(labels)
        pending[d] -= 1
        if len(ms) * m.nbytes >= matrices.nbytes or not pending[d]:
            del waiting[d]
            stack = np.stack(ms).reshape(-1, d, d)
            ms.clear()
            values = _stack_entropies(stack, [lab for lab in names for _ in range(count)])
            for i, lab in enumerate(names):
                out[frozenset(lab)] = values[i * count:(i + 1) * count]

    def visit(node, t: np.ndarray, kept: list[int]) -> None:
        wanted, children = node
        if wanted:
            d = math.prod(layout.dims[i] for i in kept)
            add(t.reshape(count, d, d), tuple(layout.labels[i] for i in kept))
        for i, child in sorted(children.items()):
            pos = kept.index(i) + 1
            # inf - inf in a non-finite state is left for the Hermitian check
            with np.errstate(invalid="ignore"):
                traced = np.trace(t, axis1=pos, axis2=pos + len(kept))
            visit(child, traced, kept[:pos - 1] + kept[pos:])

    visit(root, matrices.reshape((count,) + layout.dims * 2), list(range(len(layout.dims))))
    if isinstance(rho, DensityMatrix):
        return {key: values[0] for key, values in out.items()}
    return {key: tuple(values) for key, values in out.items()}


def conditional_entropy(s: DensityMatrix, a: Iterable[str], b: Iterable[str]) -> float:
    """S(A|B) = S(AB) - S(B) in bits."""
    a, b = set(_label_tuple(a)), set(_label_tuple(b))
    if a & b:
        raise LabelError(f"overlapping label sets: {sorted(a & b)}")
    s_ab = entropy(partial_trace(s, a | b))
    s_b = entropy(partial_trace(s, b)) if b else 0.0
    return s_ab - s_b


def conditional_mutual_information(s: DensityMatrix, a: Iterable[str],
                                   b: Iterable[str], c: Iterable[str]) -> float:
    """I(A:B|C) = S(A|C) - S(A|BC) in bits."""
    a, b, c = (set(_label_tuple(x)) for x in (a, b, c))
    for x, y in ((a, b), (a, c), (b, c)):
        if x & y:
            raise LabelError(f"overlapping label sets: {sorted(x & y)}")
    return conditional_entropy(s, a, c) - conditional_entropy(s, a, b | c)


def trace_norm(x) -> float | np.ndarray:
    """||X||_1 of a matrix that is Hermitian within HERMITIAN_TOL: the sum of
    the absolute eigenvalues. `eigvalsh` reads one triangle only, so a
    non-Hermitian (or non-finite) X raises StateValidationError. A stack
    (..., d, d) gives the array of each item's norm (each checked), with the
    bits of single calls."""
    x = _as_square_complex(x, stack=True)
    _check_hermitian(x, "trace-norm argument")
    norms = np.sum(np.abs(np.linalg.eigvalsh(x)), axis=-1)
    return float(norms) if x.ndim == 2 else norms


def random_density(layout: SystemLayout, rank: int, seed) -> DensityMatrix:
    """Random rank-`rank` state from a normalized Ginibre square; deterministic in `seed`."""
    d = layout.dim
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.real(np.trace(m)), layout)


def pure_state(vector, layout: SystemLayout) -> DensityMatrix:
    """Density matrix |v><v| of a (normalized) state vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape[0] != layout.dim:
        raise DimensionError(f"vector dim {v.shape[0]} != layout dim {layout.dim}")
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), layout)
