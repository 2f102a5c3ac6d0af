"""Desk-scale realizations of the coding constructions.

Haar and generalized-Pauli tensor-product unitary families, distributed
randomization, pretty-good-measurement and sequential decoders, the gentle
sequential-measurement bound, full codes with measured decoding error and
leakage, typical projectors, and the `verify-lemmas` suites.

RNG contract: a master seed derives one independent stream per
(sender, index, copy) via a counter construction, so reports are
bit-reproducible independent of execution order.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product
from typing import Iterable, Sequence

import numpy as np

from . import regions
from .qstate import (
    PSD_TOL,
    UNITARY_TOL,
    DensityMatrix,
    DimensionError,
    StateValidationError,
    SystemLayout,
    apply_local,
    check_density,
    check_psd,
    check_trace,
    conjugate_local,
    label_groups,
    maximally_mixed,
    partial_trace,
    permute_factors,
    random_density,
    require,
    tensor,
    tensor_power,
    trace_norm,
)

POVM_SUM_TOL = 1e-8
# matches the completeness tolerance; inverse square roots in the PGM
# amplify eigenvalue noise past the 1e-10 state-level PSD tolerance
POVM_PSD_TOL = 1e-8
PINV_CUTOFF = 1e-10
# eigenvalues of the single-copy state below this fraction of the largest are
# dropped from the Gram-space PGM's factor
RANK_CUTOFF = 1e-12
DEFAULT_BUDGET_QUBITS = 12
MAX_BUDGET_QUBITS = 14
MAX_MESSAGES = 4096  # largest message space a code may have


class BudgetError(ValueError):
    """Requested computation exceeds the dense-matrix dimension budget."""


def budget_qubits() -> int:
    """The dense-matrix budget in qubits: `QMAP_BUDGET_QUBITS`, else 12; at most 14."""
    raw = os.environ.get("QMAP_BUDGET_QUBITS", str(DEFAULT_BUDGET_QUBITS))
    try:
        return min(MAX_BUDGET_QUBITS, int(raw))
    except ValueError:
        raise ValueError(f"QMAP_BUDGET_QUBITS must be an integer, got {raw!r}") from None


def check_dim_budget(base: int, exponent: int = 1) -> None:
    """Refuse a total dimension base^exponent above 2^budget_qubits() before it
    is allocated. Past the budget's exponent (base >= 2 gives base^exponent >=
    2^exponent) or a 64-bit base, the power is neither formed nor printed."""
    qubits = budget_qubits()
    limit = 2 ** qubits
    small = exponent <= qubits and base < 2 ** 64
    if base < 2 or exponent < 1 or small and base ** exponent <= limit:
        return
    size = f" {base ** exponent}" if small else ""
    raise BudgetError(f"total dimension{size} exceeds budget {limit}")


def check_message_space(bits: Sequence[float]) -> None:
    """Refuse a code with more than MAX_MESSAGES messages, given the log2 of
    each sender's message count, so a count 2^ceil(n R) is never formed only
    to be refused. Past 64 bits the space is not printed."""
    total = math.fsum(bits)
    if total <= math.log2(MAX_MESSAGES):
        return
    size = f" {math.prod(round(2 ** b) for b in bits)}" if total <= 64 else ""
    raise BudgetError(f"message space{size} exceeds budget {MAX_MESSAGES}")


def _check_index_space(bits: float) -> None:
    """Refuse more than 2^budget_qubits() index tuples, given the log2 of
    their count, before any family is drawn: every decoder holds data per
    tuple. The count itself is never formed."""
    qubits = budget_qubits()
    if bits > qubits:
        shown = int(bits) if bits == int(bits) else f"{bits:g}"
        raise BudgetError(f"index space 2^{shown} exceeds budget {2 ** qubits}")


def derived_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent stream for a counter path under a master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(path)))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via a complex Ginibre matrix and QR with
    phase normalization of the triangular factor's diagonal."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _haar_from_normals(rng.standard_normal((2, d, d)))


def _haar_from_normals(normals: np.ndarray) -> np.ndarray:
    """`haar_unitary` of each (2, d, d) draw of standard normals (real and
    imaginary parts) in a stack (..., 2, d, d), by one stacked QR."""
    g = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def weyl_unitaries(d: int) -> list[np.ndarray]:
    """Generalized Pauli (Weyl-Heisenberg) unitaries X^a Z^b, a,b in [d]."""
    omega = np.exp(2j * np.pi / d)
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            ops.append(np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))
    return ops


def _check_factors(u: np.ndarray, n: int, d: int, ndim: int = 4) -> None:
    """A family's one check on its factors u (K, n, d, d), or (`ndim` 5) on a
    stack of families: K, n >= 1, the shape, max |U^dag U - I| <= UNITARY_TOL."""
    if n < 1 or u.size == 0:
        raise ValueError("K and n must be >= 1")
    if u.ndim != ndim or u.shape[-3:] != (n, d, d):
        raise DimensionError(f"per_index has shape {u.shape}, not (K, {n}, {d}, {d})")
    dev = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(d)))
    require(dev, UNITARY_TOL, StateValidationError, "family member is not unitary")


def _kron_blocks(u: np.ndarray) -> np.ndarray:
    """The blocks (..., K, d^n, d^n) of factors u (..., K, n, d, d): [..., k] is
    the tensor product of u[..., k, :], multiplied entry by entry as `np.kron` does."""
    out = u[..., 0, :, :]
    for i in range(1, u.shape[-3]):
        v = u[..., i, :, :]
        out = (out[..., :, None, :, None] * v[..., None, :, None, :]).reshape(
            out.shape[:-2] + (out.shape[-2] * v.shape[-2], -1))
    return out


@dataclass(frozen=True)
class UnitaryFamily:
    """Family of K tensor-product block unitaries on n copies of a d-dim system."""

    z: int
    n: int
    dim: int
    per_index: np.ndarray  # read-only (K, n, d, d): [k, i] is copy i's factor of index k
    kind: str = "haar"
    seed: tuple[int, ...] | None = None

    def __post_init__(self):
        """Store `per_index`, any nested sequence of shape (K, n, d, d), as one
        read-only complex array, after `_check_factors`."""
        u = np.array(self.per_index, dtype=complex)
        _check_factors(u, self.n, self.dim)
        u.flags.writeable = False
        object.__setattr__(self, "per_index", u)

    @property
    def size(self) -> int:
        return len(self.per_index)

    @cached_property
    def blocks(self) -> np.ndarray:
        """Every block unitary in one read-only (K, d^n, d^n) array (`_kron_blocks`)."""
        u = _kron_blocks(self.per_index)
        u.flags.writeable = False
        return u

    def block(self, k: int) -> np.ndarray:
        """Realized block unitary: tensor product of the per-copy factors."""
        return self.blocks[k]


def _haar_factors(n: int, d: int, size: int, master_seed: int,
                  prefixes: Sequence[Sequence[int]]) -> np.ndarray:
    """Unchecked (T, K, n, d, d) Haar factors: (t, k, i) from derived_rng(master_seed,
    *prefixes[t], k, i), all orthonormalized by one stacked QR, so each is
    `haar_unitary` of its own stream, bit for bit. A count below 1 draws nothing."""
    normals = np.empty((len(prefixes), max(size, 0), max(n, 0), 2, d, d))
    for t, prefix in enumerate(prefixes):
        for k, i in np.ndindex(normals.shape[1:3]):
            normals[t, k, i] = derived_rng(master_seed, *prefix, k, i).standard_normal(
                (2, d, d))
    return _haar_from_normals(normals)


def make_family(kind: str, z: int, n: int, d: int, size: int, master_seed: int,
                prefix: Sequence[int]) -> UnitaryFamily:
    """Sender z's family of `size` tensor-product unitaries on n copies of a
    d-dim system: "haar", "pauli" (`pauli_family`) or "identity".

    For "haar", factor (k, i) is drawn from derived_rng(master_seed, *prefix,
    k, i) (`_haar_factors`) and the family records seed=(master_seed,
    *prefix). Every caller passes its own prefix, which fixes its seed path;
    "pauli" and "identity" ignore it.
    """
    if kind == "pauli":
        return pauli_family(z, n, d, size=size)
    if kind == "identity":
        return identity_family(z, n, d, size=size)
    if kind != "haar":
        raise ValueError(f"unknown family kind {kind!r}")
    return UnitaryFamily(z, n, d, _haar_factors(n, d, size, master_seed, [prefix])[0],
                         kind="haar", seed=(int(master_seed), *prefix))


def _family_stack(kind: str, n: int, d: int, size: int, master_seed: int,
                  prefixes: Sequence[Sequence[int]]) -> np.ndarray:
    """The per_index of make_family(kind, z, n, d, size, master_seed, p) for each
    prefix p, as one read-only (T, K, n, d, d) array checked once; a Pauli or
    identity family does not depend on the prefix and is made once."""
    if kind != "haar":
        u = make_family(kind, 0, n, d, size, master_seed, ()).per_index
        return np.broadcast_to(u, (len(prefixes), *u.shape))
    u = _haar_factors(n, d, size, master_seed, prefixes)
    _check_factors(u, n, d, ndim=5)
    u.flags.writeable = False
    return u


def pauli_family(z: int, n: int, d: int, size: int | None = None) -> UnitaryFamily:
    """Deterministic Weyl-Heisenberg family; the full size (d^2)^n realizes
    an exact twirl to the maximally mixed state."""
    singles = np.array(weyl_unitaries(d))
    full = len(singles) ** n
    if size is None:
        size = full
    if not 1 <= size <= full:
        raise ValueError(f"size must be in [1, {full}]")
    combos = np.array(list(islice(product(range(len(singles)), repeat=n), size)), dtype=int)
    return UnitaryFamily(z, n, d, singles[combos], kind="pauli")


def identity_family(z: int, n: int, d: int, size: int = 1) -> UnitaryFamily:
    return UnitaryFamily(z, n, d, np.broadcast_to(np.eye(d), (max(size, 0), max(n, 0), d, d)),
                         kind="identity")


def _prefix_walk(root, ops, groups: Sequence[Sequence[str]], k_tuples, step):
    """For each index tuple in the given order, yield `root` after
    `step(x, ops[z][k_z], groups[z])` has applied each sender's operator in turn.

    Only the steps after the prefix shared with the previous tuple are
    recomputed, and only the current prefix chain is kept alive.
    """
    chain = [root]
    previous: Sequence[int] = ()
    for k_tuple in k_tuples:
        shared = 0
        for a, b in zip(previous, k_tuple):
            if a != b:
                break
            shared += 1
        del chain[shared + 1:]
        for z in range(shared, len(k_tuple)):
            chain.append(step(chain[-1], ops[z][k_tuple[z]], list(groups[z])))
        previous = k_tuple
        yield chain[-1]


def encode(rho_n: DensityMatrix, families: Sequence[UnitaryFamily],
           groups: Sequence[Sequence[str]],
           k_tuples: Iterable[Sequence[int]]) -> list[DensityMatrix]:
    """Encoded states (U_1,k_1 x ... x U_Z,k_Z) rho_n (...)^dag, in the order
    of `k_tuples`, where sender z's block unitary acts on `groups[z]`.

    The tuples are walked in sorted order, so sender z's unitary is applied
    once per distinct prefix (k_1..k_z).
    """
    k_tuples = [tuple(int(k) for k in t) for t in k_tuples]
    if len(groups) != len(families):
        raise ValueError("one sender group per family required")
    if any(len(t) != len(families) for t in k_tuples):
        raise ValueError(f"each index tuple needs {len(families)} entries")
    order = sorted(range(len(k_tuples)), key=k_tuples.__getitem__)
    walk = _prefix_walk(rho_n.matrix, [f.blocks for f in families], groups,
                        [k_tuples[i] for i in order],
                        lambda m, u, on: conjugate_local(m, u, on, rho_n.layout))
    by_index = {i: DensityMatrix(m, rho_n.layout) for i, m in zip(order, walk)}
    return [by_index[i] for i in range(len(k_tuples))]


def _stacked_walk(factor: np.ndarray, layout: SystemLayout, ops: Sequence[np.ndarray],
                  groups: Sequence[Sequence[str]]) -> np.ndarray:
    """The (..., N, d, r) stack of O_{Z,k_Z} ... O_{1,k_1} F for every index
    tuple k in flat order, for a d x r matrix F on `layout` and sender z's
    operators ops[z], a (..., K_z, d_z, d_z) stack acting on `groups[z]`
    whose leading (trial) axes broadcast. Level z applies all K_z operators
    to all prefixes (k_1..k_{z-1}) in one stacked `apply_local`, each product
    with the bits of its own call."""
    stack = factor[None]
    for op, on in zip(ops, groups):
        stack = apply_local(stack[..., :, None, :, :], op[..., None, :, :, :], on, layout)
        stack = stack.reshape(stack.shape[:-4] + (-1,) + factor.shape)
    return stack


def _running_sum(terms: Iterable[np.ndarray]) -> np.ndarray:
    """sum(terms) added in place: the first `+=` on 0 makes the one new array,
    as sum() does, so the bits are sum()'s; each term is freed before the next."""
    acc = 0
    for term in terms:
        acc += term
        del term
    return acc


def _mixture(m: np.ndarray, layout: SystemLayout, unitaries: np.ndarray,
             on: Sequence[str]) -> np.ndarray:
    """Unchecked uniform mixture of m (or each of a stack (T, d, d)) conjugated by
    the K unitaries (..., K, d_on, d_on) on the `on` factors: each conjugation
    is stacked over the trials, and they are summed in order by `_running_sum`."""
    count = unitaries.shape[-3]
    acc = _running_sum(conjugate_local(m, unitaries[..., k, :, :], on, layout)
                       for k in range(count))
    acc /= count
    return acc


def _mix(rho: DensityMatrix, unitaries: Sequence[np.ndarray],
         on: Sequence[str]) -> DensityMatrix:
    """Uniform mixture of rho conjugated by each unitary on the `on` factors."""
    return DensityMatrix(_mixture(rho.matrix, rho.layout, np.asarray(unitaries), on),
                         rho.layout)


def _randomization_target(rho: DensityMatrix, senders: Sequence[str]) -> DensityMatrix:
    """rho with its `senders` factors replaced by the maximally mixed state."""
    rest = [lab for lab in rho.layout.labels if lab not in senders]
    target = maximally_mixed(SystemLayout(tuple(
        f for f in rho.layout.factors if f[0] in senders)))
    if rest:
        target = tensor(target, partial_trace(rho, rest))
    return permute_factors(target, rho.layout.labels)


def randomize(rho_n: DensityMatrix, sender_groups: Sequence[Sequence[str]],
              w_labels: Sequence[str], families: Sequence[UnitaryFamily]
              ) -> tuple[DensityMatrix, float]:
    """Apply the per-sender uniform unitary mixtures and measure the full
    trace-norm distance to (maximally mixed on the senders) x (W marginal)."""
    check_dim_budget(rho_n.dim)
    if len(families) != len(sender_groups):
        raise ValueError("one family per sender group required")
    out = rho_n
    for group, fam in zip(sender_groups, families):
        if fam.dim ** fam.n != rho_n.layout.dim_of(group):
            raise DimensionError(
                f"family dim {fam.dim}^{fam.n} does not match group {tuple(group)}")
        out = _mix(out, fam.blocks, list(group))
    all_sender = [lab for g in sender_groups for lab in g]
    keep = set(all_sender) | set(w_labels)
    target = _randomization_target(partial_trace(rho_n, keep), all_sender)
    return out, trace_norm(partial_trace(out, keep).matrix - target.matrix)


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to the identity within tolerance."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        d = self.elements[0].shape[0]
        if any(el.shape != (d, d) for el in self.elements):
            raise DimensionError("POVM elements must share one dimension")
        # one stacked check per chunk of TRIAL_BYTES; the first bad element raises
        for c in _trial_chunks(len(self.elements), self.elements[0].nbytes):
            check_psd(np.stack(self.elements[c.start:c.stop]), POVM_PSD_TOL, "POVM element")
        total = np.zeros((d, d), dtype=complex)
        for el in self.elements:
            total += el
        dev = np.max(np.abs(total - np.eye(d)))
        require(dev, POVM_SUM_TOL, StateValidationError,
                "POVM completeness failure: max |sum - I| = {}", dev)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def _psd_power(m: np.ndarray, power: float, cutoff: float | None = None) -> np.ndarray:
    """m^power on the support (eigenvalues above zero, or above `cutoff` times
    the largest) of the Hermitian part of m, or of each matrix of a stack."""
    eig, vec = np.linalg.eigh((m + np.swapaxes(m.conj(), -1, -2)) / 2)
    eig = np.clip(eig, 0.0, None)
    out = np.zeros_like(eig)
    if cutoff is not None:
        support = eig > cutoff * np.max(eig, axis=-1, keepdims=True, initial=0.0)
    else:
        support = eig > 0
    out[support] = eig[support] ** power
    return (vec * out[..., None, :]) @ np.swapaxes(vec.conj(), -1, -2)


def _sqrt_factor(m: np.ndarray, cutoff: float | None = None) -> np.ndarray:
    """F with F F^dag = m, from one eigendecomposition; negative eigenvalues
    are clipped to zero. Every eigenvector is kept, or with `cutoff` only
    those whose eigenvalue exceeds cutoff times the largest one, so that F
    has m's numerical rank as its width."""
    eig, vec = np.linalg.eigh((m + m.conj().T) / 2)
    eig = np.clip(eig, 0.0, None)
    if cutoff is not None:
        keep = eig > cutoff * eig.max()
        eig, vec = eig[keep], vec[:, keep]
    return vec * np.sqrt(eig)


def _pgm(factors: Sequence[np.ndarray], priors: Sequence[float],
         fold_completion: bool = False) -> Povm:
    """Square-root measurement for the ensemble whose state k is F_k F_k^dag.

    Elements are rhobar^{-1/2} p_k rho_k rhobar^{-1/2} on rhobar's support,
    rhobar = sum_k p_k F_k F_k^dag, built as B_k B_k^dag with B_k = sqrt(p_k)
    rhobar^{-1/2} F_k, so they stay PSD to rounding however large
    rhobar^{-1/2} is. Each B_k is then replaced by T^{-1/2} B_k, T = sum_k
    B_k B_k^dag: T is the support projector in exact arithmetic, and in
    floating point this makes the elements sum to a projector to rounding
    even when rhobar is nearly singular, so the completion I - sum_k E_k is
    PSD to rounding as well. The null-space projector is appended as a
    completion element, or folded uniformly into the K elements when
    `fold_completion` (which keeps exactly K outcomes).
    """
    priors = [float(p) for p in priors]
    if len(factors) != len(priors):
        raise ValueError("need one prior per state")
    total = sum(priors)
    require(abs(total - 1), 1e-9, ValueError, "priors must sum to 1, got {}", total)
    avg = _running_sum(p * (f @ f.conj().T) for p, f in zip(priors, factors))
    if np.max(np.abs(avg)) == 0:
        raise ValueError("degenerate ensemble: average state is zero")
    inv_sqrt = _psd_power(avg, -0.5, cutoff=PINV_CUTOFF)
    bs = [inv_sqrt @ f for f in factors]
    for b, p in zip(bs, priors):
        b *= math.sqrt(p)
    refine = _psd_power(_running_sum(b @ b.conj().T for b in bs), -0.5, cutoff=PINV_CUTOFF)
    # each B_k is dropped before its element is formed in its slot, so one
    # list of factor-sized matrices is alive at a time
    elements = bs
    for i in range(len(bs)):
        c, bs[i] = refine @ bs[i], None
        elements[i] = c @ c.conj().T
    completion = np.eye(len(avg)) - _running_sum(elements)
    if fold_completion:
        elements = [el + completion / len(elements) for el in elements]
    elif np.max(np.abs(completion)) > POVM_SUM_TOL:
        elements.append(completion)
    return Povm(tuple(elements))


def pgm_decoder(states: Sequence[DensityMatrix | np.ndarray],
                priors: Sequence[float], fold_completion: bool = False) -> Povm:
    """Square-root measurement for a state ensemble: `_pgm` on each state's own
    square-root factor. The plain reference for the library's factor paths."""
    return _pgm([_sqrt_factor(s.matrix if isinstance(s, DensityMatrix)
                              else np.asarray(s, dtype=complex)) for s in states],
                priors, fold_completion)


def povm_success(povm: Povm, states: Sequence[DensityMatrix | np.ndarray]) -> float:
    """Average probability of outcome k on state k under uniform priors (extra
    POVM elements beyond the ensemble count never fire correctly)."""
    p = 1.0 / len(states)
    return float(np.real(sum(
        p * np.einsum("ij,ji->", el, s.matrix if isinstance(s, DensityMatrix) else s)
        for el, s in zip(povm.elements, states))))


def pgm_success_table(factor: np.ndarray, layout: SystemLayout,
                      families: Sequence[UnitaryFamily | np.ndarray],
                      groups: Sequence[Sequence[str]]) -> np.ndarray:
    """P[k', k] = Tr[E_k' rho_k] for the uniform-prior PGM {E_k} of the
    encoded states rho_k = U_k rho^(x)n U_k^dag, indexed by the flat index of
    the tuples product(range(size) per family), without forming anything of
    dimension d^n.

    `factor` is a d x r matrix F with F F^dag = rho on `layout`, and sender
    z's per-copy factors act on `groups[z]` of that layout. With
    A = [sqrt(p_k) F_k], F_k = U_k F^(x)n, and G = A^dag A, the square-root
    measurement gives Tr[E_k' rho_k] = ||(G^{1/2})_{k'k}||_F^2 / p_k
    (Hausladen & Wootters 1994). U_k is a tensor product over copies, so
    each (k', k) block of G is the Kronecker product over copies i of the
    single-copy blocks F^dag V_k'i^dag V_ki F. G^{1/2} drops G's eigenvalues
    below PINV_CUTOFF times the largest, as `_pgm`'s pseudo-inverse
    does for rhobar, whose nonzero spectrum G shares. Raises
    StateValidationError when an entry is negative or a column sums above
    one beyond the POVM tolerances.

    A family may be its `per_index` array with leading trial axes: the tables
    (..., N, N) then carry them, and the first out of range raises.
    """
    stacks = [getattr(f, "per_index", f) for f in families]
    lead = np.broadcast_shapes(*(u.shape[:-4] for u in stacks))
    n = stacks[0].shape[-3]
    count, rank = math.prod(u.shape[-4] for u in stacks), factor.shape[1]
    gram = np.ones(lead + (count, 1, count, 1))
    for i in range(n):
        # column (k, a) is V_ki F e_a
        cols = _stacked_walk(factor, layout, [u[..., i, :, :] for u in stacks], groups)
        cols = np.swapaxes(cols, -3, -2).reshape(lead + (len(factor), -1))
        copy = (np.swapaxes(cols.conj(), -1, -2) @ cols).reshape(
            lead + (count, rank, count, rank))
        width = gram.shape[-3] * rank
        gram = np.einsum("...xaYb,...xcYd->...xacYbd", gram, copy).reshape(
            lead + (count, width, count, width))
    size = gram.shape[-3]
    root = _psd_power(gram.reshape(lead + (count * size, count * size)) / count, 0.5,
                      cutoff=PINV_CUTOFF)
    table = count * np.sum(np.abs(root.reshape(lead + (count, size, count, size))) ** 2,
                           axis=(-3, -1))
    lows = table.min(axis=(-2, -1)).reshape(-1)
    highs = table.sum(axis=-2).max(axis=-1).reshape(-1)
    message = "PGM success table out of range: min entry {}, max column sum {}"
    for low, high in zip(lows, highs):
        require(-low, POVM_PSD_TOL, StateValidationError, message, low, high)
        require(high, 1 + POVM_SUM_TOL, StateValidationError, message, low, high)
    return table


def _kron_power(factor: np.ndarray, n: int) -> np.ndarray:
    """factor^(x)n, copy-major as `SystemLayout.power` orders the copies."""
    out = factor
    for _ in range(n - 1):
        out = np.kron(out, factor)
    return out


def _message_factors(factor: np.ndarray, layout: SystemLayout, n: int,
                     families: Sequence[UnitaryFamily | np.ndarray],
                     groups: Sequence[Sequence[str]], blocks: np.ndarray) -> list[np.ndarray]:
    """Per message m, the factors U_k F^(x)n of the L index tuples k in row m of
    `blocks` side by side, from one `_stacked_walk` over the block unitaries
    (of each family, or of its `per_index` array): F_m F_m^dag = L rho_m."""
    ops = [f.blocks if isinstance(f, UnitaryFamily) else _kron_blocks(f) for f in families]
    stack = _stacked_walk(_kron_power(factor, n), layout.power(n), ops,
                          [SystemLayout.copy_major(g, n) for g in groups])
    return [np.hstack(stack[row]) for row in blocks]


def _read_success(elements: Sequence[np.ndarray], factors: Sequence[np.ndarray],
                  size: int) -> np.ndarray:
    """Tr[E_m rho_m] = Tr[F_m^dag E_m F_m] / L for each message factor F_m, L = `size`."""
    return np.array([np.real(np.vdot(f, e @ f)) for e, f in zip(elements, factors)]) / size


def _pgm_message_success(factor: np.ndarray, layout: SystemLayout, n: int,
                         families: Sequence[UnitaryFamily | np.ndarray],
                         groups: Sequence[Sequence[str]], blocks: np.ndarray) -> np.ndarray:
    """Tr[E_m rho_m] for each message m, which mixes the index tuples in row m
    of `blocks`, under the uniform-prior PGM, from F F^dag = rho on `layout`
    cut at RANK_CUTOFF. That PGM summed over a message's tuples is the PGM of
    the message states (Hausladen, Jozsa, Schumacher, Westmoreland & Wootters
    1996). For N tuples of rank r^n, the Gram path (`pgm_success_table`,
    summed over the decoded block and averaged over the encoded one) runs
    when N r^n <= d^n; otherwise `_pgm` forms one element per message.
    Families as (T, K, n, d, d) `per_index` stacks give (T, M) successes."""
    if blocks.size * factor.shape[1] ** n <= layout.dim ** n:
        table = pgm_success_table(factor, layout, families, groups)
        return (table[..., blocks[:, :, None], blocks[:, None, :]].sum(axis=(-2, -1))
                / blocks.shape[1])
    if np.ndim(getattr(families[0], "per_index", families[0])) > 4:  # one `_pgm` per trial
        return np.array([_pgm_message_success(factor, layout, n, [u[t] for u in families],
                                              groups, blocks) for t in range(len(families[0]))])
    factors = _message_factors(factor, layout, n, families, groups, blocks)
    povm = _pgm(factors, [1.0 / len(factors)] * len(factors))
    return _read_success(povm.elements, factors, blocks.shape[1])


def _kraus_pair(root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A gentle stage's Kraus pair (L, sqrt(L) sqrt(I - L)), from sqrt(L) (or
    the pairs of a stack)."""
    square = root @ root
    return square, root @ _psd_power(np.eye(square.shape[-1]) - square, 0.5)


def _outcome_pattern_sum(stages: Sequence[tuple[Sequence[str], tuple[np.ndarray, ...]]],
                         layout: SystemLayout) -> np.ndarray:
    """sum over outcome patterns b of C_b^dag C_b, C_b = O_Z^{b_Z} ... O_1^{b_1},
    where stage z is (labels, Kraus pair) and its operators act on those
    factors of `layout`. Nested from stage Z inward, M <- sum_b (O_z^b)^dag M
    O_z^b, so Z stages cost 2Z conjugations, not 2^Z products."""
    lam = np.eye(layout.dim, dtype=complex)
    for on, pair in reversed(stages):
        lam = _running_sum(conjugate_local(lam, op.conj().swapaxes(-1, -2), on, layout)
                           for op in pair)
    return lam


def sequential_decoder(rho: DensityMatrix, sender_groups: Sequence[Sequence[str]],
                       v_labels: Sequence[str], families: Sequence[UnitaryFamily]
                       ) -> tuple[Povm, float]:
    """Gentle successive decoder for distributed encodings.

    Stage z discriminates the encodings of sender z on the marginal holding
    senders 1..z and the receiver system, via a pretty-good measurement on
    the factors U_k F of one eigendecomposition F F^dag of that marginal.
    Per index tuple, the stages' Kraus pairs on their marginals' labels go
    through `_outcome_pattern_sum` (as in `union_bound_check`), conjugated
    by the encoding unitaries into one POVM element. Returns the POVM and
    the average success probability on the encoded states.
    """
    check_dim_budget(rho.dim)
    z_count = len(sender_groups)
    if len(families) != z_count:
        raise ValueError("one family per sender required")
    layout = rho.layout
    v_labels = list(v_labels)

    # per stage: the marginal's labels and a back-rotated Kraus pair per index
    stages = []
    for z in range(z_count):
        labels = [lab for g in sender_groups[: z + 1] for lab in g] + v_labels
        marginal = partial_trace(rho, labels)
        group = list(sender_groups[z])
        fam = families[z]
        factors = _stacked_walk(_sqrt_factor(marginal.matrix), marginal.layout,
                                [fam.blocks], [group])
        povm = _pgm(factors, [1.0 / fam.size] * fam.size, fold_completion=True)
        stages.append((marginal.layout.labels, [
            _kraus_pair(conjugate_local(_psd_power(povm.elements[k], 0.5),
                                        fam.block(k).conj().T, group, marginal.layout))
            for k in range(fam.size)]))

    rho_mat = rho.matrix
    elements = []
    success_terms = []
    for k_tuple in product(*[range(fam.size) for fam in families]):
        lam = _outcome_pattern_sum([(on, pairs[k]) for (on, pairs), k in zip(stages, k_tuple)],
                                   layout)
        # Tr[U lam U^dag U rho U^dag] = Tr[lam rho] for the encoding U of k_tuple
        success_terms.append(float(np.real(np.einsum("ij,ji->", lam, rho_mat))))
        for z in range(z_count):
            lam = conjugate_local(lam, families[z].block(k_tuple[z]),
                                  list(sender_groups[z]), layout)
        elements.append(lam)
    povm = Povm(tuple(elements))
    return povm, float(np.mean(success_terms))


@dataclass(frozen=True)
class UnionBoundResult:
    lhs: float
    rhs: float
    lambda_hat_trace: float
    chain_trace: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-9


def union_bound_check(lambdas, rho):
    """Gentle sequential-measurement bound for operators 0 <= L_j <= I.

    Computes Tr[rho] - Tr[Lhat rho] with `sequential_decoder`'s kernels on
    one factor, the bound 2 sqrt(sum_j Tr[(I - L_j) rho]), and cross-validates
    against the independent ancilla-chain evaluation. Raises if they disagree
    beyond 1e-10 or the bound fails beyond 1e-9.

    For stacks `lambdas` (T, J, d, d) and `rho` (T, d, d) of T trials, every
    step is stacked and item t of the returned list is trial t's result, or
    the AssertionError a call on it alone raises. Each L_j, then I - L_j, is
    checked in one `check_psd` stack.
    """
    rho_mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    single = rho_mat.ndim == 2
    rho_mat = rho_mat.reshape(-1, *rho_mat.shape[-2:])
    trials, d = len(rho_mat), rho_mat.shape[-1]
    mats = np.asarray(lambdas, dtype=complex).reshape(trials, -1, d, d)
    complements = np.eye(d) - mats
    check_psd(np.stack([mats, complements], axis=2), PSD_TOL,
              ("operator", "I - operator") * mats.shape[1] * trials)
    squares, gentles = _kraus_pair(_psd_power(mats, 0.5))
    lam_hat = _outcome_pattern_sum([(("S",), (squares[:, j], gentles[:, j]))
                                    for j in range(mats.shape[1])],
                                   SystemLayout((("S", d),)))
    # ancilla chain: Pi_j = L_j (x) |0> + sqrt(L_j) sqrt(I - L_j) (x) |1>
    sigma = rho_mat
    for j in range(mats.shape[1]):
        # Pi maps H -> H (x) M_j with the fresh qubit least significant
        pi = np.zeros((trials, 2 * d, d), dtype=complex)
        pi[:, 0::2, :] = squares[:, j]
        pi[:, 1::2, :] = gentles[:, j]
        copies = sigma.shape[-1] // d
        # np.kron(pi, I) of each trial, entry by entry as np.kron forms it
        big = (pi[:, :, None, :, None] * np.eye(copies)[:, None, :]).reshape(
            trials, 2 * d * copies, d * copies)
        sigma = big @ sigma @ np.swapaxes(big.conj(), -1, -2)
    results = []
    # the traces are read per trial: einsum's sums depend on its operands' strides
    for lam, r, comps, s in zip(lam_hat, rho_mat, complements, sigma):
        lam_hat_trace = float(np.einsum("ij,ji->", lam, r).real)
        chain_trace = float(np.trace(s).real)
        lhs = float(np.trace(r).real) - lam_hat_trace
        rhs = 2 * math.sqrt(max(0.0, sum(float(np.einsum("ij,ji->", c, r).real)
                                         for c in comps)))
        try:
            require(abs(chain_trace - lam_hat_trace), 1e-10, AssertionError,
                    "chain evaluation {} != closed form {}", chain_trace, lam_hat_trace)
            require(lhs, rhs + 1e-9, AssertionError, "union bound violated: lhs {} > rhs {}",
                    lhs, rhs)
            results.append(UnionBoundResult(lhs, rhs, lam_hat_trace, chain_trace))
        except AssertionError as exc:
            results.append(exc)
    if single and isinstance(results[0], AssertionError):
        raise results[0]
    return results[0] if single else results


@dataclass(frozen=True)
class SimulationReport:
    """Per-trial samples with their means; bit-reproducible from the seed."""

    trials: int
    estimates: dict[str, float]
    samples: dict[str, tuple[float, ...]]
    master_seed: int | None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "master_seed": self.master_seed,
            "estimates": dict(sorted(self.estimates.items())),
            "samples": {k: list(v) for k, v in sorted(self.samples.items())},
            "extra": self.extra,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["trial_index", "metric_name", "value"])
        for name in sorted(self.samples):
            for i, v in enumerate(self.samples[name]):
                writer.writerow([i, name, repr(v)])
        return buf.getvalue()


def _check_trials(trials: int) -> None:
    """An experiment needs a trial to average: fewer would report NaN means."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _mean_estimates(samples: dict[str, tuple[float, ...]]) -> dict[str, float]:
    return {name: float(np.mean(vals)) for name, vals in samples.items()}


@dataclass(frozen=True)
class CodeSpec:
    """Full code: per-sender unitary families with block structure, and the
    success probability of each message under its decoder, in flat message
    order."""

    n: int
    z_count: int
    sender_groups: tuple[tuple[str, ...], ...]  # n-copy labels per sender
    b_labels: tuple[str, ...]
    e_labels: tuple[str, ...]
    message_counts: tuple[int, ...]
    block_sizes: tuple[int, ...]
    families: tuple[UnitaryFamily, ...]
    success: tuple[float, ...]
    family_kind: str
    decoder_kind: str
    master_seed: int | None

    def __post_init__(self):
        for fam, m, l in zip(self.families, self.message_counts, self.block_sizes):
            if fam.size != m * l:
                raise ValueError(
                    f"family size {fam.size} != L*M = {l}*{m} for sender {fam.z}")

    @property
    def message_space(self) -> int:
        return math.prod(self.message_counts)


def _rate_bits(n: int, rates: Sequence[float]) -> list[int]:
    """ceil(n R) for each rate R: the log2 of its count 2^ceil(n R)."""
    bits = []
    for r in rates:
        require(-r, 1e-12, ValueError, "negative rate {}", r)
        bits.append(max(0, math.ceil(n * r - 1e-9)))
    return bits


def _message_blocks(message_counts: Sequence[int], block_sizes: Sequence[int]
                    ) -> np.ndarray:
    """Row m (messages in flat order) holds the flat index of the index tuple
    (m_z L_z + l_z)_z for each block tuple l in flat order."""
    sizes = [m * l for m, l in zip(message_counts, block_sizes)]
    return np.array([
        [np.ravel_multi_index([m * l_z + l for m, l_z, l in zip(m_tuple, block_sizes,
                                                                 l_tuple)], sizes)
         for l_tuple in product(*[range(l) for l in block_sizes])]
        for m_tuple in product(*[range(m) for m in message_counts])])


def build_qmap_code(rho: DensityMatrix, senders: Sequence, b: Sequence[str],
                    e: Sequence[str], n: int, rates: Sequence[float],
                    splits: tuple[Sequence[float], Sequence[float]],
                    master_seed, family: str = "haar", decoder: str = "pgm") -> CodeSpec:
    """Construct a full code from a rate tuple and its (C, D) split, with the
    success of each message under its decoder.

    Message and block counts are 2^ceil(n R) and 2^ceil(n D) per sender, so
    each message mixes its block of family unitaries. Each sender needs one
    rate and one (C, D) pair with C = D + R within 1e-9. Before any family
    is drawn, the message space is bounded, and so is the index space
    (messages times blocks, which sizes every decoder) by 2^budget_qubits().
    A "pgm" code is scored by `_pgm_message_success`; a "sequential" code
    sums `sequential_decoder`'s elements over each block and reads them on
    the same message factors.
    """
    groups = label_groups(senders)
    c_rates, d_rates = splits
    rates = [float(r) for r in rates]
    if decoder not in ("pgm", "sequential"):
        raise ValueError(f"unknown decoder kind {decoder!r}")
    if len(rates) != len(groups):
        raise ValueError(f"rates must have one entry per sender, got {len(rates)}")
    if len(c_rates) != len(groups) or len(d_rates) != len(groups):
        raise ValueError("splits must have one (C, D) pair per sender")
    for cz, dz, rz in zip(c_rates, d_rates, rates):
        require(abs(cz - (dz + rz)), 1e-9, ValueError,
                "inconsistent split: C={} != D+R={}", cz, dz + rz)
    check_dim_budget(rho.dim, n)
    message_bits = _rate_bits(n, rates)
    check_message_space(message_bits)
    block_bits = _rate_bits(n, d_rates)
    _check_index_space(sum(message_bits) + sum(block_bits))
    message_counts = [2 ** b for b in message_bits]
    block_sizes = [2 ** b for b in block_bits]
    copy_groups = tuple(SystemLayout.copy_major(g, n) for g in groups)
    b_copies = SystemLayout.copy_major(b, n)
    e_copies = SystemLayout.copy_major(e, n)
    families = [make_family(family, z, n, rho.layout.dim_of(g), m * l, master_seed, (z,))
                for z, (m, l, g) in enumerate(zip(message_counts, block_sizes, groups),
                                              start=1)]

    blocks = _message_blocks(message_counts, block_sizes)
    factor = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF)
    if decoder == "pgm":
        success = _pgm_message_success(factor, rho.layout, n, families, groups, blocks)
    else:
        povm, _ = sequential_decoder(tensor_power(rho, n), copy_groups,
                                     b_copies + e_copies, families)
        success = _read_success(
            [_running_sum(povm.elements[k] for k in row) for row in blocks],
            _message_factors(factor, rho.layout, n, families, groups, blocks),
            blocks.shape[1])
    return CodeSpec(n, len(groups), copy_groups, b_copies, e_copies,
                    tuple(message_counts), tuple(block_sizes), tuple(families),
                    tuple(float(v) for v in success), family, decoder, master_seed)


def _message_states(code: CodeSpec, rho_n: DensityMatrix):
    """The message states in flat message order, built one at a time by a
    `_prefix_walk` over the message tuples whose step `_mix`es sender z's
    block of message m_z, so the messages that share (m_1..m_z) share its
    mixture."""
    ops = [f.blocks.reshape(m, l, *f.blocks.shape[1:])
           for f, m, l in zip(code.families, code.message_counts, code.block_sizes)]
    return _prefix_walk(rho_n, ops, code.sender_groups,
                        product(*[range(m) for m in code.message_counts]), _mix)


# the bytes of the largest array a chunk of stacked items holds (at least one
# item): a 256-dim state is a chunk of one, and a stacked step holds a few such
TRIAL_BYTES = 1 << 20


def _trial_chunks(trials: int, trial_bytes: int) -> list[range]:
    """range(trials) in consecutive chunks of TRIAL_BYTES // trial_bytes (at
    least one), for items whose largest stacked matrix has `trial_bytes`."""
    step = max(1, TRIAL_BYTES // max(1, trial_bytes))
    return [range(i, min(i + step, trials)) for i in range(0, trials, step)]


def _trace_norms(stack: np.ndarray, ref: np.ndarray) -> tuple[float, ...]:
    """trace_norm(x - ref) for each matrix x of a stack, one call per chunk."""
    return tuple(float(v) for c in _trial_chunks(len(stack), ref.nbytes)
                 for v in trace_norm(stack[c.start:c.stop] - ref))


def evaluate_code(code: CodeSpec, rho: DensityMatrix) -> SimulationReport:
    """Decoding error and leakage of a code, exactly over its whole message
    space (at most MAX_MESSAGES messages, else BudgetError).

    Success is the code's own `success`. Leakage and randomization distance
    read only the senders-plus-eavesdropper marginal of each message, and
    the sender unitaries commute with the trace over B, so every code mixes
    its messages on that marginal's n-th tensor power: two-bell runs at
    n = 3 on 64-dim states. Their mean is theta's average state, and the
    randomization target is that mean with its sender factors maximally
    mixed. The d^n budget is still checked up front, so n = 4 is refused.

    Reports per-message success, leakage and randomization-distance
    samples, epsilon = 1 - mean success and theta = mean leakage.
    """
    check_message_space([math.log2(m) for m in code.message_counts])
    check_dim_budget(rho.dim, code.n)
    sender_copy = [lab for g in code.sender_groups for lab in g]
    leak_labels = set(sender_copy) | set(code.e_labels)
    rho_n = tensor_power(partial_trace(rho, [
        lab for lab in rho.layout.labels
        if SystemLayout.copy_labels(lab, 1)[0] in leak_labels]), code.n)

    # each message state lives on exactly the leak labels, so its matrix is
    # its leakage marginal
    msg_leaks = np.empty((code.message_space, rho_n.dim, rho_n.dim), dtype=complex)
    for leak, state in zip(msg_leaks, _message_states(code, rho_n)):
        leak[...] = state.matrix
    bar_leak = DensityMatrix(sum(msg_leaks) / len(msg_leaks), rho_n.layout)
    target = _randomization_target(bar_leak, sender_copy)

    samples = {
        "success": code.success,
        "leakage": _trace_norms(msg_leaks, bar_leak.matrix),
        "randomization_distance": _trace_norms(msg_leaks, target.matrix),
    }
    estimates = _mean_estimates(samples)
    estimates["epsilon"] = 1.0 - estimates["success"]
    estimates["theta"] = estimates["leakage"]
    extra = {
        "exact": True,
        "family_kind": code.family_kind,
        "decoder_kind": code.decoder_kind,
        "message_counts": list(code.message_counts),
        "block_sizes": list(code.block_sizes),
    }
    return SimulationReport(len(msg_leaks), estimates, samples, code.master_seed, extra)


@dataclass(frozen=True)
class TypicalProjector:
    """Projector onto the entropy-typical eigenvalue sequences of rho^(x)n."""

    projector: np.ndarray
    rank: int
    mass: float
    epsilon: float  # 1 - mass
    rank_bound: float  # 2^{n(S + delta)}
    operator_bound: float  # 2^{-n(S - delta)}
    max_typical_prob: float
    bounds_hold: bool


def typical_projector(rho: DensityMatrix, n: int, delta: float) -> TypicalProjector:
    """Projector onto product eigenvectors whose empirical surprisal is
    within delta of the entropy, with the mass/rank/operator diagnostics."""
    d = rho.dim
    check_dim_budget(d, n)
    eig, vec = np.linalg.eigh((rho.matrix + rho.matrix.conj().T) / 2)
    eig = np.clip(eig, 0.0, None)
    s = float(-np.sum(eig[eig > 1e-12] * np.log2(eig[eig > 1e-12])))
    surprisal = np.where(eig > 1e-12, -np.log2(np.where(eig > 1e-12, eig, 1.0)), np.inf)
    typical_mask = np.zeros(d ** n, dtype=bool)
    probs = np.zeros(d ** n)
    for idx, combo in enumerate(product(range(d), repeat=n)):
        emp = sum(surprisal[c] for c in combo) / n
        if abs(emp - s) <= delta + 1e-12:
            typical_mask[idx] = True
            probs[idx] = float(np.prod([eig[c] for c in combo]))
    basis = vec
    for _ in range(n - 1):
        basis = np.kron(basis, vec)
    proj = (basis[:, typical_mask] @ basis[:, typical_mask].conj().T
            if typical_mask.any() else np.zeros((d ** n, d ** n)))
    rank = int(typical_mask.sum())
    mass = float(probs[typical_mask].sum())
    rank_bound = 2.0 ** (n * (s + delta))
    op_bound = 2.0 ** (-n * (s - delta))
    max_prob = float(probs[typical_mask].max()) if rank else 0.0
    # the mass bound holds by definition with epsilon = 1 - mass
    holds = (0.0 <= mass <= 1.0 + 1e-12
             and rank <= rank_bound + 1e-6
             and max_prob <= op_bound + 1e-12)
    return TypicalProjector(proj, rank, mass, 1 - mass, rank_bound, op_bound,
                            max_prob, holds)


@dataclass(frozen=True, eq=False)
class _State:
    """A randomization state or target (or a stack): its square-root factor G
    when `held`, else its matrix. A factor's trace ||G||_F^2 is checked here;
    G G^dag is Hermitian and PSD by construction."""

    array: np.ndarray
    held: bool

    def __post_init__(self):
        if self.held:
            check_trace(np.sum(np.abs(self.array) ** 2, axis=(-2, -1)))

    @cached_property
    def dense(self) -> np.ndarray:
        a = self.array
        return a @ np.swapaxes(a.conj(), -1, -2) if self.held else a


class _Power:
    """marginal^(x)n as the factor F^(x)n (F = `_sqrt_factor` of the marginal
    cut at RANK_CUTOFF, width r^n) or as a `DensityMatrix`, each built on first
    use. A state whose factor would be wider than the space d^n is held
    dense, as `_pgm_message_success` rules for N r^n > d^n."""

    def __init__(self, marginal: DensityMatrix, n: int):
        self.marginal, self.n, self.layout = marginal, n, marginal.layout.power(n)
        self.single = _sqrt_factor(marginal.matrix, RANK_CUTOFF)
        self.width = self.single.shape[1] ** n

    @cached_property
    def factor(self) -> np.ndarray:
        return _kron_power(self.single, self.n)

    @cached_property
    def dense(self) -> DensityMatrix:
        return tensor_power(self.marginal, self.n)

    def target(self, on: Sequence[str]) -> _State:
        """(I/d_on) (x) Tr_on(marginal^(x)n): the factor F^(x)n with its rows
        moved by the d_on^2 matrix units |a><i| on `on`, side by side, over
        sqrt(d_on) (width d_on^2 r^n), while no wider than the space; else
        `_randomization_target`."""
        d_on = self.layout.dim_of(on)
        if d_on ** 2 * self.width > self.layout.dim:
            return _State(_randomization_target(self.dense, on).matrix, False)
        units = np.eye(d_on ** 2).reshape(-1, d_on, d_on)
        t = np.moveaxis(apply_local(self.factor, units, on, self.layout), 0, -2)
        return _State(t.reshape(self.layout.dim, -1) / math.sqrt(d_on), True)


def _randomized(state: _State, layout: SystemLayout, unitaries: np.ndarray,
                on: Sequence[str]) -> _State:
    """The uniform mixture of `state` over the unitaries (..., K, d_on, d_on) on
    `on`: the factor [U_k G]_k / sqrt(K) from one stacked `apply_local` while
    that is no wider than the space, else `_mixture` of the dense state,
    checked by `check_density`."""
    count, g = unitaries.shape[-3], state.array
    if state.held and count * g.shape[-1] <= layout.dim:
        g = apply_local(g[..., None, :, :], unitaries, on, layout)
        g = np.moveaxis(g, -3, -2).reshape(g.shape[:-3] + (layout.dim, -1))
        return _State(g / math.sqrt(count), True)
    mixed = _mixture(state.dense, layout, unitaries, on)
    check_density(mixed)
    return _State(mixed, False)


def _distances(state: _State, target: _State) -> tuple[float, ...]:
    """||rho - tau||_1 for each state rho of a stack and the target tau. For
    factors with w_G + w_T <= D, G G^dag - T T^dag = Q R J R^dag Q^dag with
    [G T] = QR and J = +1 on G's columns, -1 on T's, so the norm is the sum
    of |eig(R J R^dag)|; otherwise `_trace_norms` of the dense forms."""
    g, t = state.array, target.array
    if not (state.held and target.held and g.shape[-1] + t.shape[-1] <= len(t)):
        return _trace_norms(state.dense, target.dense)
    r = np.linalg.qr(np.concatenate(
        [g, np.broadcast_to(t, g.shape[:-1] + t.shape[-1:])], axis=-1), mode="r")
    r_j = r * np.repeat([1.0, -1.0], [g.shape[-1], t.shape[-1]])
    return tuple(float(v) for v in trace_norm(r_j @ np.swapaxes(r.conj(), -1, -2)))


def chained_randomization_experiment(rho: DensityMatrix, senders: Sequence,
                                     w_labels: Sequence[str], n: int,
                                     block_sizes: Sequence[int], trials: int,
                                     master_seed: int, family: str = "haar"
                                     ) -> SimulationReport:
    """Randomize each sender in sequence over `trials` independent family
    draws; reports per-stage and total distances and asserts the triangle
    chain total <= sum of stages. Stage z mixes sender z on the n-copy
    marginal of senders z..Z and W, and the total mixes senders 2..Z onto
    stage 1's state, so the budget bounds (senders + W)^(x)n, not rho^(x)n.
    Each state and target is held as a square-root factor while that is no
    wider than the space (`_Power`, `_randomized`, `_distances`), else dense.
    Before any marginal or family is built, the largest block size is bounded
    by 2^budget_qubits(), as a code's index space is. The trials run as
    stacks (Haar prefix (t, z)) in `_trial_chunks`."""
    _check_trials(trials)
    groups = label_groups(senders)
    z_count = len(groups)
    if len(block_sizes) != z_count:
        raise ValueError("one block size per sender required")
    # a size below 1 is left for its family to refuse
    _check_index_space(math.log2(max([1, *block_sizes])))
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]

    stages = []
    for z, (group, size) in enumerate(zip(copy_groups, block_sizes)):
        suffix = [lab for g in groups[z:] for lab in g] + list(w_labels)
        marginal = partial_trace(rho, suffix)
        check_dim_budget(marginal.dim, n)
        power = _Power(marginal, n)
        state = (_State(power.factor, True) if size * power.width <= power.layout.dim
                 else _State(power.dense.matrix, False))
        stages.append((group, power.layout, state, power.target(group)))
        if z == 0:
            total_target = power.target(sum(copy_groups, ()))

    samples: dict[str, list[float]] = {
        "total_distance": [], **{f"stage_{z}_distance": [] for z in range(1, z_count + 1)}}
    chain_layout = stages[0][1]
    # a trial's largest arrays: stage 1's dense state and a sender's block unitaries
    trial_bytes = max([16 * chain_layout.dim ** 2] + [
        16 * l * rho.layout.dim_of(g) ** (2 * n) for g, l in zip(groups, block_sizes)])
    for chunk in _trial_chunks(trials, trial_bytes):
        blocks = [_kron_blocks(_family_stack(family, n, rho.layout.dim_of(g), l, master_seed,
                                             [(t, z) for t in chunk]))
                  for z, (g, l) in enumerate(zip(groups, block_sizes), start=1)]
        stage_total = np.zeros(len(chunk))
        for z, (u, (group, layout, state, target)) in enumerate(zip(blocks, stages), start=1):
            randomized = _randomized(state, layout, u, group)
            dists = _distances(randomized, target)
            samples[f"stage_{z}_distance"] += dists
            stage_total += dists
            chain = randomized if z == 1 else _randomized(chain, chain_layout, u, group)
        totals = _distances(chain, total_target)
        for total, bound in zip(totals, stage_total.tolist()):
            require(total, bound + 1e-9, AssertionError,
                    "triangle chain violated: total {} > stage sum {}", total, bound)
        samples["total_distance"] += totals
    samples_t = {k: tuple(v) for k, v in samples.items()}
    return SimulationReport(trials, _mean_estimates(samples_t), samples_t,
                            master_seed, {"family_kind": family,
                                          "block_sizes": list(block_sizes),
                                          "n": n})


def encoding_experiment(rho: DensityMatrix, senders: Sequence, n: int,
                        k_sweep: Sequence[int], trials: int, master_seed: int,
                        family: str = "haar") -> SimulationReport:
    """Sweep family sizes: for each size K and trial t, every sender draws a
    family of K unitaries (Haar prefix (K, t, z)), and the report holds the
    average PGM success on the K^Z encoded index states as `success_K<K>`,
    scored by `_pgm_message_success` with one tuple per message. Before any
    family is drawn, the largest K^Z is bounded by 2^budget_qubits(), as a
    code's index space is, and d^n by the dimension budget. Per size, the
    trials run as stacks in `_trial_chunks`."""
    _check_trials(trials)
    if len(set(k_sweep)) != len(k_sweep):
        # a repeated size would redraw its seed prefixes and count each trial twice
        raise ValueError(f"k_sweep sizes must be distinct, got {list(k_sweep)}")
    groups = label_groups(senders)
    # a size below 1 is left for its family to refuse
    _check_index_space(len(groups) * math.log2(max([1, *k_sweep])))
    check_dim_budget(rho.dim, n)
    factor = _sqrt_factor(rho.matrix, cutoff=RANK_CUTOFF)
    samples: dict[str, list[float]] = {f"success_K{k}": [] for k in k_sweep}
    for k in k_sweep:
        count, rank = k ** len(groups), factor.shape[1]
        blocks = np.arange(count)[:, None]  # one index tuple per message
        # a trial's largest arrays: its Gram matrix, a copy's walk and a family
        trial_bytes = 16 * max((count * rank ** n) ** 2, count * rho.dim * rank,
                               k * n * max(rho.layout.dim_of(g) for g in groups) ** 2)
        for chunk in _trial_chunks(trials, trial_bytes):
            stacks = [_family_stack(family, n, rho.layout.dim_of(g), k, master_seed,
                                    [(k, t, z) for t in chunk])
                      for z, g in enumerate(groups, start=1)]
            success = _pgm_message_success(factor, rho.layout, n, stacks, groups, blocks)
            samples[f"success_K{k}"] += [float(np.mean(row)) for row in success]
    samples_t = {name: tuple(vals) for name, vals in samples.items()}
    return SimulationReport(trials, _mean_estimates(samples_t), samples_t, master_seed,
                            {"k_sweep": list(k_sweep), "n": n, "family_kind": family})


def _lemma_tables(seed: int, suite: int, sizes: Sequence[int], per_size: int,
                  b: tuple[str, ...], e: tuple[str, ...]):
    """(z, trial, chat, dhat) for z in `sizes`, trial < `per_size`: a random full-rank
    qubit state on A1..Az, b and e from the stream (seed, suite, z, trial), one
    `region_tables` call per `_trial_chunks` of a size's states."""
    for z in sizes:
        senders = [f"A{i}" for i in range(1, z + 1)]
        layout = SystemLayout(tuple((lab, 2) for lab in (*senders, *b, *e)))
        for chunk in _trial_chunks(per_size, 16 * layout.dim ** 2):
            states = [random_density(layout, layout.dim, derived_rng(seed, suite, z, trial))
                      for trial in chunk]
            for trial, (chat, dhat, _) in zip(chunk, regions.region_tables(states, senders,
                                                                            b, e)):
                yield z, trial, chat, dhat


def _tally(cases: int, failures: list[dict]) -> dict:
    """A lemma suite's result: it passed when none of its cases failed."""
    return {"passed": not failures, "cases": cases, "failures": failures}


def _lemma_structure_suite(seed: int, sizes: Sequence[int], states_per_size: int) -> dict:
    """Zero/nonnegative/monotone/strongly-subadditive checks for the encoding
    table and its randomization complements on random states."""
    cases, failures = 0, []
    # with B empty, chat's V = B E and dhat's W = E are both V: one table
    for z, trial, chat, dhat in _lemma_tables(seed, 1, sizes, states_per_size, (), ("V",)):
        dcheck = regions.dcheck_from_dhat(dhat, [1.0] * z)
        for name, table, kind in (
                ("chat", chat, "subadditive-monotone"),
                ("dcheck", dcheck, "subadditive-monotone"),
                ("dhat", dhat, "superadditive")):
            report = regions.check_set_function_properties(table, kind)
            cases += 1
            if not report.passed:
                failures.append({"z": z, "trial": trial, "table": name,
                                 "worst": report.worst_violation})
    return _tally(cases, failures)


def _lemma_vertices_suite(seed: int, sizes: Sequence[int], states_per_size: int) -> dict:
    cases, failures = 0, []
    for z, trial, chat, dhat in _lemma_tables(seed, 2, sizes, states_per_size, (), ("V",)):
        cases += 1
        try:
            regions.polymatroid_vertices(chat)
            regions.contrapolymatroid_vertices(dhat, [1.0] * z)
        except ValueError as exc:
            failures.append({"z": z, "trial": trial, "error": str(exc)})
    return _tally(cases, failures)


def _lemma_separation_suite(seed: int, sizes: Sequence[int], trials: int) -> dict:
    cases, failures = 0, []
    for z, trial, chat, dhat in _lemma_tables(seed, 3, sizes, trials, ("B",), ("E",)):
        gaps = [chat.at(m) - dhat.at(m) for m in range(1, 1 << z)]
        if min(gaps) <= 1e-6:
            continue  # no strict interior to split in
        rates = [0.25 * min(gaps) / z] * z
        cases += 1
        try:
            c, d = regions.rate_split(rates, chat, dhat)
            for m in range(1, 1 << z):
                idx = [i for i in range(z) if m >> i & 1]
                if not (math.fsum(c[i] for i in idx) < chat.at(m)
                        and math.fsum(d[i] for i in idx) > dhat.at(m)):
                    raise AssertionError(f"sandwich fails at mask {m}")
                if any(c[i] != d[i] + rates[i] for i in idx):
                    raise AssertionError("c != d + r")
        except (ValueError, AssertionError) as exc:
            failures.append({"z": z, "trial": trial, "error": str(exc)})
    return _tally(cases, failures)


def _lemma_union_bound_suite(seed: int, trials: int) -> dict:
    """Three operators 0 <= L = G G^dag / (max eig (1 + u)) <= I and a state per
    trial from the stream (seed, 4, trial), in stacked `_trial_chunks` (by the
    2^3 d-dim state of the ancilla chain)."""
    dim, count = 8, 3
    layout = SystemLayout((("S", dim),))
    failures = []
    for chunk in _trial_chunks(trials, 16 * (2 ** count * dim) ** 2):
        # each stream draws, in order: per operator the real and imaginary
        # parts of G and a scale 1 + u, then the state
        normals = np.empty((len(chunk), count, 2, dim, dim))
        scales = np.empty((len(chunk), count))
        rhos = np.empty((len(chunk), dim, dim), dtype=complex)
        for row, trial in enumerate(chunk):
            rng = derived_rng(seed, 4, trial)
            for j in range(count):
                normals[row, j] = rng.standard_normal((2, dim, dim))
                scales[row, j] = 1 + rng.uniform(0, 1)
            rhos[row] = random_density(layout, dim, rng).matrix
        g = normals[:, :, 0] + 1j * normals[:, :, 1]
        h = g @ g.conj().swapaxes(-1, -2)
        lams = h / (np.linalg.eigvalsh(h).max(axis=-1) * scales)[..., None, None]
        for trial, result in zip(chunk, union_bound_check(lams, rhos)):
            if isinstance(result, AssertionError):
                failures.append({"trial": trial, "error": str(result)})
    return _tally(trials, failures)


def lemma_suites(seed: int, sizes: Sequence[int], states_per_size: int,
                 union_trials: int) -> dict[str, dict]:
    """The four `verify-lemmas` suites by report name; their spawn keys are
    (seed, suite, z, trial) for suites 1-3 and (seed, 4, trial) for suite 4.
    Before any state is drawn, the largest (z + 2 qubits for rate splitting, 3
    for the union bound) is checked against the budget."""
    check_dim_budget(2, max([z + 2 for z in sizes] + [3]))
    return {
        "set_function_structure": _lemma_structure_suite(seed, sizes, states_per_size),
        "greedy_vertices": _lemma_vertices_suite(seed, sizes, states_per_size),
        "rate_splitting": _lemma_separation_suite(seed, sizes, states_per_size),
        "union_bound": _lemma_union_bound_suite(seed, union_trials),
    }
