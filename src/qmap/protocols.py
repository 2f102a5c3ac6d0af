"""Desk-scale realizations of the coding constructions.

Haar and generalized-Pauli tensor-product unitary families, distributed
randomization, pretty-good-measurement and sequential decoders, the gentle
sequential-measurement bound, full codes with measured decoding error and
leakage, and typical projectors.

RNG contract: a master seed derives one independent stream per
(sender, index, copy) via a counter construction, so reports are
bit-reproducible independent of execution order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .qstate import (
    DensityMatrix,
    DimensionError,
    StateValidationError,
    SystemLayout,
    apply_local,
    apply_unitary,
    conjugate_local,
    label_groups,
    maximally_mixed,
    partial_trace,
    permute_factors,
    psd_violation,
    tensor,
    tensor_power,
    trace_norm,
)

POVM_SUM_TOL = 1e-8
# matches the completeness tolerance; inverse square roots in the PGM
# amplify eigenvalue noise past the 1e-10 state-level PSD tolerance
POVM_PSD_TOL = 1e-8
PINV_CUTOFF = 1e-10
DIM_BUDGET = 4096
MAX_MESSAGES = 4096  # largest message space evaluate_code enumerates


class BudgetError(ValueError):
    """Requested computation exceeds the dense-matrix dimension budget."""


def check_dim_budget(dim: int, max_dim: int = DIM_BUDGET) -> None:
    if dim > max_dim:
        raise BudgetError(f"total dimension {dim} exceeds budget {max_dim}")


def derived_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent stream for a counter path under a master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(path)))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via a complex Ginibre matrix and QR with
    phase normalization of the triangular factor's diagonal."""
    if d < 1:
        raise ValueError("d must be >= 1")
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


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


@dataclass(frozen=True)
class UnitaryFamily:
    """Family of K tensor-product block unitaries on n copies of a d-dim system."""

    z: int
    n: int
    dim: int
    per_index: tuple[tuple[np.ndarray, ...], ...]  # K entries of n per-copy unitaries
    kind: str = "haar"
    seed: tuple[int, ...] | None = None

    def __post_init__(self):
        eye = np.eye(self.dim)
        for copies in self.per_index:
            if len(copies) != self.n:
                raise ValueError(f"each index needs {self.n} per-copy unitaries")
            for u in copies:
                if u.shape != (self.dim, self.dim):
                    raise DimensionError(f"per-copy unitary has shape {u.shape}")
                if np.max(np.abs(u.conj().T @ u - eye)) > 1e-10:
                    raise StateValidationError("family member is not unitary")

    @property
    def size(self) -> int:
        return len(self.per_index)

    def block(self, k: int) -> np.ndarray:
        """Realized block unitary: tensor product of the per-copy factors."""
        u = self.per_index[k][0]
        for v in self.per_index[k][1:]:
            u = np.kron(u, v)
        return u


def make_family(kind: str, z: int, n: int, d: int, size: int, master_seed,
                prefix: Sequence[int] = ()) -> UnitaryFamily:
    """Sender z's family of `size` tensor-product unitaries on n copies of a
    d-dim system: "haar", "pauli" (`pauli_family`) or "identity".

    For "haar" with an integer `master_seed`, factor (k, i) is drawn from
    derived_rng(master_seed, *prefix, k, i) and the family records
    seed=(master_seed, *prefix), so each caller's prefix fixes its seed path.
    A Generator `master_seed` supplies the factors sequentially instead.
    """
    if kind == "pauli":
        return pauli_family(z, n, d, size=size)
    if kind == "identity":
        return identity_family(z, n, d, size=size)
    if kind != "haar":
        raise ValueError(f"unknown family kind {kind!r}")
    if size < 1 or n < 1:
        raise ValueError("K and n must be >= 1")
    seed = None
    if isinstance(master_seed, (int, np.integer)):
        seed = (int(master_seed), *prefix)
        streams = [[derived_rng(*seed, k, i) for i in range(n)] for k in range(size)]
    else:
        streams = [[master_seed] * n] * size
    per_index = tuple(tuple(haar_unitary(d, rng) for rng in copies) for copies in streams)
    return UnitaryFamily(z, n, d, per_index, kind="haar", seed=seed)


def sample_family(z: int, n: int, K: int, d: int, rng) -> UnitaryFamily:
    """K independent Haar tensor-product unitaries.

    `rng` may be a Generator (factors drawn sequentially) or an integer
    master seed, in which case each (z, k, i) factor gets its own counter
    stream and the result is order-independent.
    """
    return make_family("haar", z, n, d, K, rng, (z,))


def pauli_family(z: int, n: int, d: int, size: int | None = None) -> UnitaryFamily:
    """Deterministic Weyl-Heisenberg family; the full size (d^2)^n realizes
    an exact twirl to the maximally mixed state."""
    singles = weyl_unitaries(d)
    full = len(singles) ** n
    if size is None:
        size = full
    if not 1 <= size <= full:
        raise ValueError(f"size must be in [1, {full}]")
    per_index = []
    for combo in product(range(len(singles)), repeat=n):
        if len(per_index) == size:
            break
        per_index.append(tuple(singles[c] for c in combo))
    return UnitaryFamily(z, n, d, tuple(per_index), kind="pauli")


def identity_family(z: int, n: int, d: int, size: int = 1) -> UnitaryFamily:
    eye = np.eye(d)
    return UnitaryFamily(z, n, d, tuple(tuple(eye for _ in range(n))
                                        for _ in range(size)), kind="identity")


def _prefix_walk(root, families: Sequence[UnitaryFamily],
                 groups: Sequence[Sequence[str]], k_tuples, step):
    """For each index tuple in the given order, yield `root` after
    `step(x, block, group)` has applied each sender's block unitary in turn.

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
            chain.append(step(chain[-1], families[z].block(k_tuple[z]), list(groups[z])))
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
    walk = _prefix_walk(rho_n, families, groups, [k_tuples[i] for i in order],
                        apply_unitary)
    by_index = dict(zip(order, walk))
    return [by_index[i] for i in range(len(k_tuples))]


def _mix(rho: DensityMatrix, unitaries: Sequence[np.ndarray],
         on: Sequence[str]) -> DensityMatrix:
    """Uniform mixture of rho conjugated by each unitary on the `on` factors."""
    acc = np.zeros_like(rho.matrix)
    for u in unitaries:
        acc = acc + apply_unitary(rho, u, on).matrix
    return DensityMatrix(acc / len(unitaries), rho.layout, subnormalized=rho.subnormalized)


def _randomization_target(rho: DensityMatrix, senders: Sequence[str],
                          w: Sequence[str]) -> DensityMatrix:
    """(maximally mixed on the `senders` factors) x (rho's marginal on `w`),
    with its factors in rho's layout order."""
    layout = rho.layout
    target = maximally_mixed(SystemLayout(tuple(
        (lab, layout.dims[layout.index(lab)]) for lab in senders)))
    if w:
        target = tensor(target, partial_trace(rho, w))
    keep = set(senders) | set(w)
    return permute_factors(target, [lab for lab in layout.labels if lab in keep])


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
        out = _mix(out, [fam.block(k) for k in range(fam.size)], list(group))
    all_sender = [lab for g in sender_groups for lab in g]
    target = _randomization_target(rho_n, all_sender, w_labels)
    reduced = partial_trace(out, set(all_sender) | set(w_labels))
    distance = trace_norm(reduced.matrix - target.matrix)
    return out, float(distance)


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to the identity within tolerance."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        d = self.elements[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for el in self.elements:
            if el.shape != (d, d):
                raise DimensionError("POVM elements must share one dimension")
            min_eig = psd_violation((el + el.conj().T) / 2, POVM_PSD_TOL)
            if min_eig is not None:
                raise StateValidationError(
                    f"POVM element is not PSD within tolerance: min eigenvalue {min_eig}")
            total = total + el
        dev = np.max(np.abs(total - np.eye(d)))
        if dev > POVM_SUM_TOL:
            raise StateValidationError(
                f"POVM completeness failure: max |sum - I| = {dev}")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def _psd_power(m: np.ndarray, power: float, cutoff: float | None = None) -> np.ndarray:
    eig, vec = np.linalg.eigh((m + m.conj().T) / 2)
    eig = np.clip(eig, 0.0, None)
    out = np.zeros_like(eig)
    if cutoff is not None:
        support = eig > cutoff * (eig.max() if eig.size else 1.0)
    else:
        support = eig > 0
    out[support] = eig[support] ** power
    return (vec * out) @ vec.conj().T


def _sqrt_factor(m: np.ndarray) -> np.ndarray:
    """F with F F^dag = m, from one eigendecomposition; negative eigenvalues
    are clipped to zero and every eigenvector is kept."""
    eig, vec = np.linalg.eigh((m + m.conj().T) / 2)
    return vec * np.sqrt(np.clip(eig, 0.0, None))


def pgm_decoder(states: Sequence[DensityMatrix | np.ndarray],
                priors: Sequence[float], fold_completion: bool = False,
                factors: Iterable[np.ndarray] | None = None) -> Povm:
    """Square-root measurement for a state ensemble.

    Elements are rhobar^{-1/2} p_k rho_k rhobar^{-1/2} with the inverse
    square root taken on rhobar's support, built as Gram matrices B_k B_k^dag
    with B_k = sqrt(p_k) rhobar^{-1/2} F_k and F_k F_k^dag = rho_k, so they
    stay PSD to rounding however large rhobar^{-1/2} is. `factors` supplies
    the F_k (an iterable consumed once, in state order); by default each is
    taken from its state's eigendecomposition. Each B_k is then replaced by
    T^{-1/2} B_k, T = sum_k B_k B_k^dag: T is the support projector
    in exact arithmetic, and in floating point this makes the elements sum
    to a projector to rounding even when rhobar is nearly singular, so the
    completion I - sum_k E_k is PSD to rounding as well. The null-space
    projector is appended as a completion element, or folded uniformly into
    the K elements when `fold_completion` (which keeps exactly K outcomes).
    """
    mats = [s.matrix if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex)
            for s in states]
    priors = [float(p) for p in priors]
    if len(mats) != len(priors):
        raise ValueError("need one prior per state")
    if abs(sum(priors) - 1) > 1e-9:
        raise ValueError(f"priors must sum to 1, got {sum(priors)}")
    d = mats[0].shape[0]
    avg = sum(p * m for p, m in zip(priors, mats))
    if np.max(np.abs(avg)) == 0:
        raise ValueError("degenerate ensemble: average state is zero")
    inv_sqrt = _psd_power(avg, -0.5, cutoff=PINV_CUTOFF)
    if factors is None:
        factors = (_sqrt_factor(m) for m in mats)
    bs = [math.sqrt(p) * (inv_sqrt @ f) for p, f in zip(priors, factors, strict=True)]
    refine = _psd_power(sum(b @ b.conj().T for b in bs), -0.5, cutoff=PINV_CUTOFF)
    # each B_k is overwritten by its element, so one list of d x d matrices
    # is alive at a time
    elements = bs
    for i, b in enumerate(bs):
        c = refine @ b
        elements[i] = c @ c.conj().T
    completion = np.eye(d) - sum(elements)
    if fold_completion:
        elements = [el + completion / len(elements) for el in elements]
        return Povm(tuple(elements))
    if np.max(np.abs(completion)) > POVM_SUM_TOL:
        elements.append(completion)
    return Povm(tuple(elements))


def povm_success(povm: Povm, states: Sequence[DensityMatrix | np.ndarray],
                 priors: Sequence[float] | None = None) -> float:
    """Average probability of outcome k on state k (extra POVM elements
    beyond the ensemble count never fire correctly)."""
    mats = [s.matrix if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex)
            for s in states]
    if priors is None:
        priors = [1.0 / len(mats)] * len(mats)
    return float(np.real(sum(
        p * np.einsum("ij,ji->", povm.elements[k], m)
        for k, (p, m) in enumerate(zip(priors, mats)))))


def encoded_pgm(rho_n: DensityMatrix, families: Sequence[UnitaryFamily],
                groups: Sequence[Sequence[str]], k_tuples: Sequence[Sequence[int]]
                ) -> tuple[list[DensityMatrix], Povm]:
    """Encoded states of `encode` and their uniform-prior PGM.

    The PGM's square-root factors are U_k F, with F F^dag = rho_n from a
    single eigendecomposition, produced one at a time along the same
    prefix walk as the states.
    """
    encoded = encode(rho_n, families, groups, k_tuples)
    layout = rho_n.layout
    factors = _prefix_walk(_sqrt_factor(rho_n.matrix), families, groups, k_tuples,
                           lambda f, u, on: apply_local(f, u, on, layout))
    povm = pgm_decoder(encoded, [1.0 / len(encoded)] * len(encoded), factors=factors)
    return encoded, povm


def sequential_decoder(rho: DensityMatrix, sender_groups: Sequence[Sequence[str]],
                       v_labels: Sequence[str], families: Sequence[UnitaryFamily]
                       ) -> tuple[Povm, float]:
    """Gentle successive decoder for distributed encodings.

    Stage z discriminates the encodings of sender z on the marginal holding
    senders 1..z and the receiver system, via a pretty-good measurement.
    The stage operators are chained with their gentle complements over all
    outcome patterns, conjugated by the encoding unitaries, and summed into
    one POVM element per index tuple. Returns the POVM and the average
    success probability on the encoded states.
    """
    check_dim_budget(rho.dim)
    z_count = len(sender_groups)
    if len(families) != z_count:
        raise ValueError("one family per sender required")
    layout = rho.layout
    v_labels = list(v_labels)

    # per-stage: squared/gentle operators on the stage marginal, back-rotated
    stage_ops: list[list[tuple[np.ndarray, np.ndarray]]] = []
    stage_labels: list[list[str]] = []
    for z in range(z_count):
        labels = [lab for g in sender_groups[: z + 1] for lab in g] + v_labels
        marginal = partial_trace(rho, labels)
        order = list(marginal.layout.labels)
        group = list(sender_groups[z])
        fam = families[z]
        encoded = [apply_unitary(marginal, fam.block(k), group)
                   for k in range(fam.size)]
        povm = pgm_decoder(encoded, [1.0 / fam.size] * fam.size, fold_completion=True)
        ops = []
        for k in range(fam.size):
            upsilon = conjugate_local(_psd_power(povm.elements[k], 0.5),
                                      fam.block(k).conj().T, group, marginal.layout)
            sq = upsilon @ upsilon
            eye = np.eye(sq.shape[0])
            gentle = upsilon @ _psd_power(eye - sq, 0.5)
            ops.append((sq, gentle))
        stage_ops.append(ops)
        stage_labels.append(order)

    rho_mat = rho.matrix
    sizes = [fam.size for fam in families]
    elements = []
    success_terms = []
    for k_tuple in product(*[range(s) for s in sizes]):
        # sum over outcome patterns b of C^dag C, C = O_Z^{b_Z} ... O_1^{b_1},
        # nested from stage Z inward: M <- sum_b (O_z^b)^dag M O_z^b
        lam = np.eye(rho.dim, dtype=complex)
        for z in reversed(range(z_count)):
            lam = sum(conjugate_local(lam, op.conj().T, stage_labels[z], layout)
                      for op in stage_ops[z][k_tuple[z]])
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


def union_bound_check(lambdas: Sequence[np.ndarray], rho) -> UnionBoundResult:
    """Gentle sequential-measurement bound for operators 0 <= L_j <= I.

    Computes Tr[rho] - Tr[Lhat rho] via the outcome-pattern sum,
    the bound 2 sqrt(sum_j Tr[(I - L_j) rho]), and cross-validates against
    the ancilla-chain evaluation. Raises if they disagree beyond 1e-10 or
    the bound fails beyond 1e-9.
    """
    rho_mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    d = rho_mat.shape[0]
    mats = [np.asarray(l, dtype=complex) for l in lambdas]
    for l in mats:
        eig = np.linalg.eigvalsh((l + l.conj().T) / 2)
        if eig.min() < -1e-10 or eig.max() > 1 + 1e-10:
            raise StateValidationError("operator outside [0, I]")
    # outcome-pattern sum of C^dag C, C = P_Z^{b_Z} ... P_1^{b_1}, nested
    # from the last operator inward: M <- sum_b (P_j^b)^dag M P_j^b
    pieces = []
    for l in mats:
        sq = _psd_power(l, 0.5)
        pieces.append((l, sq @ _psd_power(np.eye(d) - l, 0.5)))
    lam_hat = np.eye(d, dtype=complex)
    for pair in reversed(pieces):
        lam_hat = sum(p.conj().T @ lam_hat @ p for p in pair)
    lam_hat_trace = float(np.real(np.einsum("ij,ji->", lam_hat, rho_mat)))
    # ancilla chain: Pi_j = L_j (x) |0> + sqrt(L_j) sqrt(I - L_j) (x) |1>
    sigma = rho_mat
    for l, gentle in pieces:
        # Pi maps H -> H (x) M_j with the fresh qubit least significant
        pi = np.zeros((2 * d, d), dtype=complex)
        pi[0::2, :] = l
        pi[1::2, :] = gentle
        big = np.kron(pi, np.eye(sigma.shape[0] // d))
        sigma = big @ sigma @ big.conj().T
    chain_trace = float(np.real(np.trace(sigma)))
    if abs(chain_trace - lam_hat_trace) > 1e-10:
        raise AssertionError(
            f"chain evaluation {chain_trace} != closed form {lam_hat_trace}")
    tr_rho = float(np.real(np.trace(rho_mat)))
    lhs = tr_rho - lam_hat_trace
    rhs = 2 * math.sqrt(max(0.0, sum(
        float(np.real(np.einsum("ij,ji->", np.eye(d) - l, rho_mat))) for l in mats)))
    result = UnionBoundResult(lhs, rhs, lam_hat_trace, chain_trace)
    if not result.holds:
        raise AssertionError(f"union bound violated: lhs {lhs} > rhs {rhs}")
    return result


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


def _mean_estimates(samples: dict[str, tuple[float, ...]]) -> dict[str, float]:
    return {name: float(np.mean(vals)) for name, vals in samples.items()}


@dataclass(frozen=True)
class CodeSpec:
    """Full code: per-sender unitary families with block structure and a
    coarse-grained decoder, one POVM element per message tuple (a trailing
    completion element may follow them)."""

    n: int
    z_count: int
    sender_groups: tuple[tuple[str, ...], ...]  # n-copy labels per sender
    b_labels: tuple[str, ...]
    e_labels: tuple[str, ...]
    message_counts: tuple[int, ...]
    block_sizes: tuple[int, ...]
    families: tuple[UnitaryFamily, ...]
    decoder: Povm
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
        return int(np.prod(self.message_counts, dtype=object))


def _counts_from_rates(n: int, rates: Sequence[float]) -> list[int]:
    counts = []
    for r in rates:
        if r < -1e-12:
            raise ValueError(f"negative rate {r}")
        counts.append(max(1, 2 ** math.ceil(n * r - 1e-9)))
    return counts


def _flat_index(k_tuple: Sequence[int], sizes: Sequence[int]) -> int:
    idx = 0
    for k, s in zip(k_tuple, sizes):
        idx = idx * s + k
    return idx


def build_qmap_code(rho: DensityMatrix, senders: Sequence, b: Sequence[str],
                    e: Sequence[str], n: int, rates: Sequence[float],
                    splits: tuple[Sequence[float], Sequence[float]],
                    rng, family: str = "haar", decoder: str = "pgm",
                    max_dim: int = DIM_BUDGET) -> CodeSpec:
    """Construct a full code from a rate tuple and its (C, D) split.

    Message and block counts are 2^ceil(n R_z) and 2^ceil(n D_z); each
    message's encoding is the uniform mixture of its block of family
    unitaries, and the decoder coarse-grains the index-level decoder over
    blocks. The split must satisfy C_z = D_z + R_z within 1e-9.
    """
    groups = label_groups(senders)
    c_rates, d_rates = splits
    rates = [float(r) for r in rates]
    if len(c_rates) != len(groups) or len(d_rates) != len(groups):
        raise ValueError("splits must have one (C, D) pair per sender")
    for cz, dz, rz in zip(c_rates, d_rates, rates):
        if abs(cz - (dz + rz)) > 1e-9:
            raise ValueError(f"inconsistent split: C={cz} != D+R={dz + rz}")
    check_dim_budget(rho.dim ** n, max_dim)
    rho_n = tensor_power(rho, n)
    message_counts = _counts_from_rates(n, rates)
    block_sizes = _counts_from_rates(n, d_rates)
    copy_groups = tuple(SystemLayout.copy_major(g, n) for g in groups)
    b_copies = SystemLayout.copy_major(b, n)
    e_copies = SystemLayout.copy_major(e, n)
    master_seed = rng if isinstance(rng, (int, np.integer)) else None
    families = [make_family(family, z, n, rho.layout.dim_of(g), m * l, rng, (z,))
                for z, (m, l, g) in enumerate(zip(message_counts, block_sizes, groups),
                                              start=1)]

    sizes = [fam.size for fam in families]
    if decoder == "pgm":
        k_tuples = list(product(*[range(s) for s in sizes]))
        _, index_povm = encoded_pgm(rho_n, families, copy_groups, k_tuples)
        index_elements = list(index_povm.elements[: len(k_tuples)])
        completion = list(index_povm.elements[len(k_tuples):])
    elif decoder == "sequential":
        index_povm, _ = sequential_decoder(
            rho_n, copy_groups, list(b_copies) + list(e_copies), families)
        index_elements = list(index_povm.elements)
        completion = []
    else:
        raise ValueError(f"unknown decoder kind {decoder!r}")

    coarse = []
    for m_tuple in product(*[range(m) for m in message_counts]):
        lam = np.zeros((rho_n.dim, rho_n.dim), dtype=complex)
        for l_tuple in product(*[range(l) for l in block_sizes]):
            k_tuple = [m * l_z + l for m, l_z, l in zip(m_tuple, block_sizes, l_tuple)]
            lam = lam + index_elements[_flat_index(k_tuple, sizes)]
        coarse.append(lam)
    decoder_povm = Povm(tuple(coarse + completion))
    return CodeSpec(n, len(groups), copy_groups, b_copies, e_copies,
                    tuple(message_counts), tuple(block_sizes), tuple(families),
                    decoder_povm, family, decoder, master_seed)


def evaluate_code(code: CodeSpec, rho: DensityMatrix) -> SimulationReport:
    """Decoding error and leakage of a code, exactly over its whole message
    space (at most MAX_MESSAGES messages, else BudgetError).

    Each message's state mixes each sender's block of family unitaries in
    turn. Reports per-message success and leakage samples, the decoding error
    epsilon = 1 - mean success, the leakage theta (mean full trace norm to
    the average encoded state on the senders-plus-eavesdropper marginal),
    and the randomization distance of the average state.
    """
    if code.message_space > MAX_MESSAGES:
        raise BudgetError(
            f"message space {code.message_space} exceeds budget {MAX_MESSAGES}")
    check_dim_budget(rho.dim ** code.n)
    rho_n = tensor_power(rho, code.n)
    sender_copy = [lab for g in code.sender_groups for lab in g]
    leak_labels = set(sender_copy) | set(code.e_labels)

    states = []  # in flat message-index order
    for m_tuple in product(*[range(m) for m in code.message_counts]):
        state = rho_n
        for fam, group, m, l_z in zip(code.families, code.sender_groups, m_tuple,
                                      code.block_sizes):
            state = _mix(state, [fam.block(m * l_z + l) for l in range(l_z)], group)
        states.append(state)
    bar_state = DensityMatrix(sum(s.matrix for s in states) / len(states), rho_n.layout)
    bar_leak = partial_trace(bar_state, leak_labels)
    target = _randomization_target(bar_state, sender_copy, code.e_labels)

    success_samples, leak_samples, rand_samples = [], [], []
    for element, state in zip(code.decoder.elements, states):
        success_samples.append(float(np.real(np.einsum("ij,ji->", element, state.matrix))))
        msg_leak = partial_trace(state, leak_labels)
        leak_samples.append(trace_norm(msg_leak.matrix - bar_leak.matrix))
        rand_samples.append(trace_norm(msg_leak.matrix - target.matrix))

    samples = {
        "success": tuple(success_samples),
        "leakage": tuple(leak_samples),
        "randomization_distance": tuple(rand_samples),
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
    return SimulationReport(len(states), estimates, samples, code.master_seed, extra)


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
    check_dim_budget(d ** n)
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


def chained_randomization_experiment(rho: DensityMatrix, senders: Sequence,
                                     w_labels: Sequence[str], n: int,
                                     block_sizes: Sequence[int], trials: int,
                                     master_seed: int, family: str = "haar",
                                     max_dim: int = DIM_BUDGET) -> SimulationReport:
    """Randomize each sender in sequence over `trials` independent family
    draws; reports per-stage and total distances and asserts the triangle
    chain total <= sum of stages."""
    groups = label_groups(senders)
    z_count = len(groups)
    if len(block_sizes) != z_count:
        raise ValueError("one block size per sender required")
    check_dim_budget(rho.dim ** n, max_dim)
    rho_n = tensor_power(rho, n)
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]
    w_copies = list(SystemLayout.copy_major(w_labels, n))

    # stage z randomizes sender z on the n-copy marginal of senders z..Z and W
    stages = []
    for z, group in enumerate(copy_groups):
        suffix = [lab for g in groups[z:] for lab in g] + list(w_labels)
        marg_n = tensor_power(partial_trace(rho, suffix), n)
        rest = [lab for lab in marg_n.layout.labels if lab not in group]
        stages.append((group, marg_n, _randomization_target(marg_n, group, rest)))

    samples: dict[str, list[float]] = {"total_distance": []}
    for z in range(1, z_count + 1):
        samples[f"stage_{z}_distance"] = []
    for t in range(trials):
        families = [make_family(family, z, n, rho.layout.dim_of(g), l, master_seed, (t, z))
                    for z, (g, l) in enumerate(zip(groups, block_sizes), start=1)]
        stage_total = 0.0
        for z, (fam, (group, marg_n, target)) in enumerate(zip(families, stages), start=1):
            randomized = _mix(marg_n, [fam.block(k) for k in range(fam.size)], group)
            dist = trace_norm(randomized.matrix - target.matrix)
            samples[f"stage_{z}_distance"].append(dist)
            stage_total += dist
        _, total = randomize(rho_n, copy_groups, w_copies, families)
        if total > stage_total + 1e-9:
            raise AssertionError(
                f"triangle chain violated: total {total} > stage sum {stage_total}")
        samples["total_distance"].append(total)
    samples_t = {k: tuple(v) for k, v in samples.items()}
    return SimulationReport(trials, _mean_estimates(samples_t), samples_t,
                            master_seed, {"family_kind": family,
                                          "block_sizes": list(block_sizes),
                                          "n": n})


def encoding_experiment(rho: DensityMatrix, senders: Sequence, n: int,
                        k_sweep: Sequence[int], trials: int, master_seed: int,
                        family: str = "haar", max_dim: int = DIM_BUDGET
                        ) -> SimulationReport:
    """Sweep family sizes: for each size K and trial t, every sender draws a
    family of K unitaries (Haar prefix (K, t, z)), and the report holds the
    average PGM success on the K^Z encoded index states as `success_K<K>`."""
    groups = label_groups(senders)
    check_dim_budget(rho.dim ** n, max_dim)
    rho_n = tensor_power(rho, n)
    copy_groups = [SystemLayout.copy_major(g, n) for g in groups]
    samples: dict[str, list[float]] = {f"success_K{k}": [] for k in k_sweep}
    for k in k_sweep:
        for t in range(trials):
            families = [make_family(family, z, n, rho.layout.dim_of(g), k, master_seed,
                                    (k, t, z))
                        for z, g in enumerate(groups, start=1)]
            k_tuples = list(product(*[range(f.size) for f in families]))
            encoded, povm = encoded_pgm(rho_n, families, copy_groups, k_tuples)
            samples[f"success_K{k}"].append(povm_success(povm, encoded))
    samples_t = {name: tuple(vals) for name, vals in samples.items()}
    return SimulationReport(trials, _mean_estimates(samples_t), samples_t, master_seed,
                            {"k_sweep": list(k_sweep), "n": n, "family_kind": family})
