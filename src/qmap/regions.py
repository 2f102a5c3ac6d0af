"""Set functions over sender subsets, rate regions and their polytope structure.

Subsets of the sender index set {1..Z} are represented as bitmasks (bit z-1
for sender z) internally and as sorted 1-based index lists at the JSON
boundary. All tables are total over the 2^Z subsets with value 0 at the
empty set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linprog

from .qstate import DensityMatrix, LabelError, label_groups, marginal_entropies, require

ENTROPIC_TOL = 1e-9


class InvariantError(ValueError):
    """An internal consistency check failed: a defect in qmap, not in its input."""


class SeparationError(ValueError):
    """Sandwich condition between the sub- and supermodular table is violated."""

    def __init__(self, message: str, subset: tuple[int, ...]):
        super().__init__(message)
        self.subset = subset


def subsets_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based sender indices of a bitmask."""
    return tuple(z + 1 for z in range(mask.bit_length()) if mask >> z & 1)


def mask_of(subset: Iterable[int]) -> int:
    mask = 0
    for z in subset:
        mask |= 1 << (int(z) - 1)
    return mask


def _entries_to_json(z: int, values: Sequence[float]) -> list[dict]:
    """One {"subset", "value"} entry per nonempty subset, in bitmask order."""
    return [{"subset": list(subsets_of(m)), "value": values[m]} for m in range(1, 1 << z)]


@dataclass(frozen=True)
class SetFunction:
    """Total real-valued table over subsets of {1..Z}, zero at the empty set."""

    z_count: int
    values: tuple[float, ...]  # indexed by bitmask

    def __post_init__(self):
        if self.z_count < 1:
            raise ValueError("z_count must be >= 1")
        if len(self.values) != 1 << self.z_count:
            raise ValueError(
                f"table must have {1 << self.z_count} entries, got {len(self.values)}")
        if self.values[0] != 0.0:
            raise ValueError(f"value at the empty set must be 0, got {self.values[0]}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def value(self, subset: Iterable[int]) -> float:
        return self.values[mask_of(subset)]

    def at(self, mask: int) -> float:
        return self.values[mask]

    def to_json(self) -> dict:
        return {"z": self.z_count, "entries": _entries_to_json(self.z_count, self.values)}


@dataclass(frozen=True)
class RateRegion:
    """One linear constraint on the rate tuple per nonempty sender subset."""

    z_count: int
    bounds: tuple[float, ...]  # indexed by bitmask, entry 0 unused
    direction: str  # "<=" or ">="

    def __post_init__(self):
        if self.direction not in ("<=", ">="):
            raise ValueError(f"direction must be '<=' or '>=', got {self.direction!r}")
        if len(self.bounds) != 1 << self.z_count:
            raise ValueError(
                f"need {1 << self.z_count} bounds, got {len(self.bounds)}")
        if any(not math.isfinite(b) for b in self.bounds[1:]):
            raise ValueError("all bounds must be finite")
        object.__setattr__(self, "bounds", tuple(float(b) for b in self.bounds))

    def bound(self, subset: Iterable[int]) -> float:
        return self.bounds[mask_of(subset)]

    def to_json(self) -> dict:
        return {"z": self.z_count, "direction": self.direction,
                "entries": _entries_to_json(self.z_count, self.bounds)}


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    worst_subset: tuple[int, ...]
    worst_margin: float  # slack of the tightest constraint; negative if violated


def _sender_log_dims(rho: DensityMatrix, groups: list[tuple[str, ...]]) -> list[float]:
    return [math.log2(rho.layout.dim_of(g)) for g in groups]


def _mask_labels(groups: list[tuple[str, ...]], mask: int) -> set[str]:
    labels: set[str] = set()
    for z in range(len(groups)):
        if mask >> z & 1:
            labels |= set(groups[z])
    return labels


def _check_roles(rho: DensityMatrix, groups: list[tuple[str, ...]], *extra) -> None:
    seen: set[str] = set()
    for g in list(groups) + [tuple(e) for e in extra]:
        g = set(g)
        rho.layout._check_known(g)
        if seen & g:
            raise LabelError(f"role label sets overlap on {sorted(seen & g)}")
        seen |= g


def _entropy_table(rho: DensityMatrix | Sequence[DensityMatrix],
                   groups: list[tuple[str, ...]], *extras: tuple[str, ...]
                   ) -> dict[frozenset, float]:
    """S(A_Gamma X) in bits for every sender subset Gamma and each label tuple
    X in `extras`, from one `marginal_entropies` call, keyed by label set (for
    a sequence of states, each value is their column of entropies).
    S(empty set) = 0 is added without a call. The table lives for one call of
    a public table builder.
    """
    sets = {frozenset(_mask_labels(groups, mask)).union(x)
            for x in extras for mask in range(1 << len(groups))}
    sets.discard(frozenset())
    table = marginal_entropies(rho, sets)
    table[frozenset()] = 0.0 if isinstance(rho, DensityMatrix) else (0.0,) * len(rho)
    return table


def _conditional(s: dict[frozenset, float], a: set[str], b: set[str]) -> float:
    """S(a|b) = S(ab) - S(b), in the order of `qstate.conditional_entropy`."""
    return s[frozenset(a | b)] - s[frozenset(b)]


def _chat(s: dict[frozenset, float], groups: list[tuple[str, ...]], log_dims: list[float],
          v: tuple[str, ...]) -> SetFunction:
    z = len(groups)
    values = [0.0] * (1 << z)
    all_mask = (1 << z) - 1
    for mask in range(1, 1 << z):
        a_g = _mask_labels(groups, mask)
        cond = _mask_labels(groups, all_mask & ~mask) | set(v)
        values[mask] = (sum(log_dims[i] for i in range(z) if mask >> i & 1)
                        - _conditional(s, a_g, cond))
    return SetFunction(z, tuple(values))


def _dhat(s: dict[frozenset, float], groups: list[tuple[str, ...]], log_dims: list[float],
          w: tuple[str, ...]) -> SetFunction:
    z = len(groups)
    values = [0.0] * (1 << z)
    for mask in range(1, 1 << z):
        a_g = _mask_labels(groups, mask)
        values[mask] = (sum(log_dims[i] for i in range(z) if mask >> i & 1)
                        - _conditional(s, a_g, set(w)))
    return SetFunction(z, tuple(values))


def chat_from_state(rho: DensityMatrix, senders: Sequence, v: Iterable[str]) -> SetFunction:
    """Encoding-capacity table: sum_Gamma log d_z - S(A_Gamma | A_Gamma_c V)."""
    groups = label_groups(senders)
    v = tuple(v)
    _check_roles(rho, groups, v)
    return _chat(_entropy_table(rho, groups, v), groups, _sender_log_dims(rho, groups), v)


def dhat_from_state(rho: DensityMatrix, senders: Sequence, w: Iterable[str]) -> SetFunction:
    """Randomization-cost table: sum_Gamma log d_z - S(A_Gamma | W)."""
    groups = label_groups(senders)
    w = tuple(w)
    _check_roles(rho, groups, w)
    return _dhat(_entropy_table(rho, groups, w), groups, _sender_log_dims(rho, groups), w)


def dcheck_from_dhat(dhat: SetFunction, log_dims: Sequence[float]) -> SetFunction:
    """Complementary table 2*sum_Gamma log d_z - dhat(Gamma)."""
    if len(log_dims) != dhat.z_count:
        raise ValueError("need one log-dimension per sender")
    values = [0.0] * (1 << dhat.z_count)
    for mask in range(1, 1 << dhat.z_count):
        total = 2 * sum(log_dims[i] for i in range(dhat.z_count) if mask >> i & 1)
        values[mask] = total - dhat.at(mask)
    return SetFunction(dhat.z_count, tuple(values))


_Tables = tuple[SetFunction, SetFunction, RateRegion]


def region_tables(rho: DensityMatrix | Sequence[DensityMatrix], senders: Sequence,
                  b: Iterable[str], e: Iterable[str]) -> _Tables | list[_Tables]:
    """chat (V = B E), dhat (W = E) and the main region, from one entropy table.

    The region holds sum_Gamma R_z <= I(A_Gamma : A_Gamma_c B | E) per nonempty
    Gamma. Each bound is cross-checked against chat - dhat within
    ENTROPIC_TOL; a mismatch raises InvariantError. With a nonempty B and E
    the three cost 2^(Z+1) marginal entropies. `rho` may be a sequence of
    states on one layout: the result is then the list of each state's three,
    each from its own column of one table.
    """
    first = rho if isinstance(rho, DensityMatrix) else rho[0]
    groups = label_groups(senders)
    b, e = tuple(b), tuple(e)
    _check_roles(first, groups, b, e)
    covered = {lab for g in groups for lab in g} | set(b) | set(e)
    missing = set(first.layout.labels) - covered
    if missing:
        raise LabelError(f"roles must cover the layout; missing {sorted(missing)}")
    s = _entropy_table(rho, groups, b + e, e)
    log_dims = _sender_log_dims(first, groups)
    if isinstance(rho, DensityMatrix):
        return _tables_from_entropies(s, groups, log_dims, b, e)
    return [_tables_from_entropies({key: column[i] for key, column in s.items()},
                                   groups, log_dims, b, e) for i in range(len(rho))]


def _tables_from_entropies(s: dict[frozenset, float], groups: list[tuple[str, ...]],
                           log_dims: list[float], b: tuple[str, ...], e: tuple[str, ...]
                           ) -> _Tables:
    """`region_tables` of one state from its entropy table `s`."""
    chat = _chat(s, groups, log_dims, b + e)
    dhat = _dhat(s, groups, log_dims, e)
    z = len(groups)
    all_mask = (1 << z) - 1
    bounds = [0.0] * (1 << z)
    for mask in range(1, 1 << z):
        a_g = _mask_labels(groups, mask)
        rest = _mask_labels(groups, all_mask & ~mask) | set(b)
        # I(A:R|E) = S(A|E) - S(A|RE), as qstate.conditional_mutual_information
        cmi = _conditional(s, a_g, set(e)) - _conditional(s, a_g, rest | set(e))
        diff = chat.at(mask) - dhat.at(mask)
        require(abs(cmi - diff), ENTROPIC_TOL, InvariantError,
                "region identity violated at {}: I = {}, chat - dhat = {}",
                subsets_of(mask), cmi, diff)
        bounds[mask] = cmi
    return chat, dhat, RateRegion(z, tuple(bounds), "<=")


def main_region(rho: DensityMatrix, senders: Sequence, b: Iterable[str],
                e: Iterable[str]) -> RateRegion:
    """Achievable-rate constraints: sum_Gamma R_z <= I(A_Gamma : A_Gamma_c B | E).

    The third item of `region_tables`, with its chat - dhat cross-check.
    """
    return region_tables(rho, senders, b, e)[2]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the structural checks on a set-function table."""

    kind: str
    zero_at_empty: bool
    nonnegative: bool
    monotone: bool
    modular_inequality: bool  # strong sub-/superadditivity per `kind`
    worst_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    worst_violation: float

    @property
    def passed(self) -> bool:
        return (self.zero_at_empty and self.nonnegative and self.monotone
                and self.modular_inequality)


def check_set_function_properties(f: SetFunction, kind: str,
                                  tol: float = ENTROPIC_TOL) -> PropertyReport:
    """Check zero/nonnegative/monotone/strong-subadditivity of the table.

    `kind` is "subadditive-monotone" for polymatroid-style tables or
    "superadditive" for the randomization-cost table, where only the empty-set
    and (flipped) modular inequality checks apply.
    """
    if kind not in ("subadditive-monotone", "superadditive"):
        raise ValueError(f"unknown kind {kind!r}")
    n = 1 << f.z_count
    zero_ok = f.values[0] == 0.0
    nonneg_ok, mono_ok = True, True
    # each test is written so that a NaN value fails it
    if kind == "subadditive-monotone":
        nonneg_ok = all(v >= -tol for v in f.values)
        for mask in range(n):
            for z in range(f.z_count):
                if not mask >> z & 1:
                    if not f.at(mask) <= f.at(mask | 1 << z) + tol:
                        mono_ok = False
    mod_ok = True
    worst_pair = None
    worst = 0.0
    for m1 in range(n):
        for m2 in range(n):
            gap = (f.at(m1) + f.at(m2)) - (f.at(m1 | m2) + f.at(m1 & m2))
            if kind == "superadditive":
                gap = -gap
            if not gap >= -tol:
                mod_ok = False
            # the first NaN gap is the worst, and no later gap replaces it
            if gap < worst or math.isnan(gap) and not math.isnan(worst):
                worst = gap
                worst_pair = (subsets_of(m1), subsets_of(m2))
    return PropertyReport(kind, zero_ok, nonneg_ok, mono_ok, mod_ok,
                          worst_pair, float(worst))


def _greedy_vertex(f: SetFunction, order: Sequence[int]) -> tuple[float, ...]:
    comps = [0.0] * f.z_count
    prev = 0
    for z in order:
        cur = prev | 1 << (z - 1)
        comps[z - 1] = f.at(cur) - f.at(prev)
        prev = cur
    return tuple(comps)


def _greedy_vertices(f: SetFunction, direction: str) -> list[tuple[float, ...]]:
    """The greedy vertex of every sender order, each checked to lie in the
    `direction`-region of f, de-duplicated in first-seen order.

    Edmonds' greedy theorem puts each vertex in the region once the table
    passed its precondition, so a miss is an InvariantError.
    """
    region = RateRegion(f.z_count, f.values, direction)
    seen: dict[tuple[float, ...], None] = {}
    for order in permutations(range(1, f.z_count + 1)):
        vertex = _greedy_vertex(f, order)
        res = membership(region, vertex, ENTROPIC_TOL)
        if not res.member:
            raise InvariantError(
                f"greedy vertex {vertex} violates {res.worst_subset} by {-res.worst_margin}")
        seen.setdefault(vertex)
    return list(seen)


def polymatroid_vertices(f: SetFunction) -> list[tuple[float, ...]]:
    """Greedy extremal points of the <=-region of a normalized monotone
    strongly subadditive table, one per permutation, de-duplicated."""
    report = check_set_function_properties(f, "subadditive-monotone")
    if not report.passed:
        raise ValueError(f"table is not subadditive-monotone: {report}")
    return _greedy_vertices(f, "<=")


def contrapolymatroid_vertices(d: SetFunction, log_dims: Sequence[float]
                               ) -> list[tuple[float, ...]]:
    """Greedy extremal points of the >=-region of a strongly superadditive table.

    The precondition is checked on the complementary table 2*sum log d - d
    (`dcheck_from_dhat`), built from the senders' log-dimensions.
    """
    report = check_set_function_properties(dcheck_from_dhat(d, log_dims),
                                           "subadditive-monotone")
    if not report.passed:
        raise ValueError(f"precondition failed: {report}")
    return _greedy_vertices(d, ">=")


def membership(region: RateRegion, r: Sequence[float], slack: float) -> MembershipResult:
    """Whether the rate tuple satisfies every constraint within `slack`."""
    r = [float(x) for x in r]
    if len(r) != region.z_count:
        raise ValueError(f"rate tuple has {len(r)} entries, region has {region.z_count}")
    if not all(map(math.isfinite, [*r, slack])):
        raise ValueError(f"rates {r} and slack {slack} must be finite")
    worst_margin = math.inf
    worst_subset: tuple[int, ...] = ()
    for mask in range(1, 1 << region.z_count):
        total = math.fsum(r[z] for z in range(region.z_count) if mask >> z & 1)
        if region.direction == "<=":
            margin = region.bounds[mask] - total
        else:
            margin = total - region.bounds[mask]
        if margin < worst_margin:
            worst_margin = margin
            worst_subset = subsets_of(mask)
    return MembershipResult(worst_margin >= -slack, worst_subset, float(worst_margin))


def _below(x: float) -> float:
    """The largest float below x, so that y <= _below(x) is y < x."""
    return math.nextafter(x, -math.inf)


def separate(f: SetFunction, g: SetFunction, strict: bool = False) -> tuple[float, ...]:
    """Vector R with g(A) <= sum_A R_z <= f(A) for every nonempty A.

    Requires f submodular, g supermodular, both zero at the empty set and
    g <= f (strictly when `strict`). Strict mode shrinks the sandwich by
    Delta = min (f(A)-g(A))/(2|A|) per element before solving, so the
    returned point satisfies both families of inequalities strictly.
    Solved as a dense linear feasibility problem over the 2(2^Z - 1)
    constraints.
    """
    if f.z_count != g.z_count:
        raise ValueError("tables must have the same sender count")
    z = f.z_count
    n = 1 << z
    for mask in range(1, n):
        subset = subsets_of(mask)
        require(g.at(mask), _below(f.at(mask)) if strict else f.at(mask),
                partial(SeparationError, subset=subset),
                "sandwich condition fails at {}: g = {}, f = {}",
                subset, g.at(mask), f.at(mask))
    if strict:
        delta = min((f.at(m) - g.at(m)) / (2 * bin(m).count("1"))
                    for m in range(1, n))
        fv = [f.at(m) - bin(m).count("1") * delta for m in range(n)]
        gv = [g.at(m) + bin(m).count("1") * delta for m in range(n)]
    else:
        fv = list(f.values)
        gv = list(g.values)
    rows, rhs = [], []
    for mask in range(1, n):
        indicator = [1.0 if mask >> i & 1 else 0.0 for i in range(z)]
        rows.append(indicator)
        rhs.append(fv[mask])
        rows.append([-x for x in indicator])
        rhs.append(-gv[mask])
    res = linprog(c=np.zeros(z), A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(None, None)] * z, method="highs")
    if not res.success:
        raise SeparationError(f"linear feasibility failed: {res.message}", ())
    return tuple(float(x) for x in res.x)


def rate_split(r: Sequence[float], chat: SetFunction, dhat: SetFunction
               ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Split rates into encoding and randomization tuples with c_z = d_z + r_z.

    Requires sum_Gamma r_z < chat(Gamma) - dhat(Gamma) strictly for every
    nonempty Gamma; raises SeparationError naming the violating subset
    otherwise. The returned c is constructed by adding r to d entrywise.
    """
    r = [float(x) for x in r]
    if len(r) != chat.z_count or chat.z_count != dhat.z_count:
        raise ValueError("rate tuple and tables must agree on the sender count")
    z = chat.z_count
    shifted = [0.0] * (1 << z)
    for mask in range(1, 1 << z):
        total_r = math.fsum(r[i] for i in range(z) if mask >> i & 1)
        bound, subset = chat.at(mask) - dhat.at(mask), subsets_of(mask)
        require(total_r, _below(bound), partial(SeparationError, subset=subset),
                "rates not strictly inside the region at {}: sum r = {}, bound = {}",
                subset, total_r, bound)
        shifted[mask] = chat.at(mask) - total_r
    d = separate(SetFunction(z, tuple(shifted)), dhat, strict=True)
    c = tuple(d[i] + r[i] for i in range(z))
    return c, d
