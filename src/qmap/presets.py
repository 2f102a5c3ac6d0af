"""State specifications: named presets and explicit layout-plus-matrix specs.

Matrix entry convention for explicit specs: row-major, [re, im] pairs,
basis ordered by layout factor order with the leftmost factor most
significant (plain Kronecker order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Sequence

import numpy as np

from .protocols import check_dim_budget
from .qstate import (
    DensityMatrix, SystemLayout, label_groups, maximally_mixed, pure_state, require, tensor)


class SpecError(ValueError):
    """Invalid state specification; `path` is the JSON path of the bad field."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


# the JSON values a field of each basic kind accepts; a JSON boolean is no number
_JSON_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a finite number"), str: ((str,), "a string")}


def _typed(value, kind):
    """`value` as `kind`: a basic kind takes only its own JSON values, and a float
    must be finite; any other kind is a parser called on the value."""
    if kind not in _JSON_KINDS:
        return kind(value)
    types, expected = _JSON_KINDS[kind]
    if ((isinstance(value, bool) and kind is not bool) or not isinstance(value, types)
            or (kind is float and not math.isfinite(value))):
        raise TypeError(f"expected {expected}")
    return kind(value)


def _field(obj: dict, key: str, kind, default=None, path: str = "$"):
    """obj[key] (`default` when absent) as `kind` (see `_typed`), or, for
    `kind = [type]`, a list as a list of `kind[0]`; a value of the wrong kind is a
    SpecError at `path.key`."""
    value = obj.get(key, default)
    try:
        if not isinstance(kind, list):
            return _typed(value, kind)
        if not isinstance(value, (list, tuple)):
            raise TypeError("expected a list")
        return [_typed(x, kind[0]) for x in value]
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"invalid value {value!r}: {exc}", f"{path}.{key}") from exc


def _labels(value) -> list[str]:
    """A label or a list of labels as a list of strings; a `_field` kind."""
    labels = [value] if isinstance(value, str) else value
    if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
        raise TypeError("expected a label or a list of labels")
    return list(labels)


@dataclass(frozen=True)
class ResolvedSpec:
    state: DensityMatrix
    senders: tuple[tuple[str, ...], ...]
    receiver: tuple[str, ...]
    eavesdropper: tuple[str, ...]


def bell_pair(label_a: str = "A1", label_b: str = "B") -> DensityMatrix:
    layout = SystemLayout(((label_a, 2), (label_b, 2)))
    return pure_state([1, 0, 0, 1], layout)


def ghz_state(labels: Sequence[str]) -> DensityMatrix:
    k = len(labels)
    if k < 2:
        raise ValueError("GHZ needs at least 2 parties")
    layout = SystemLayout(tuple((lab, 2) for lab in labels))
    v = np.zeros(2 ** k)
    v[0] = v[-1] = 1
    return pure_state(v, layout)


def werner_state(p: float, label_a: str = "A1", label_b: str = "B") -> DensityMatrix:
    if not 0 <= p <= 1:
        raise ValueError(f"Werner parameter must be in [0, 1], got {p}")
    bell = bell_pair(label_a, label_b)
    return DensityMatrix(p * bell.matrix + (1 - p) * np.eye(4) / 4, bell.layout)


def cq_state(probs: Sequence[float], label_a: str = "A1",
             label_b: str = "B") -> DensityMatrix:
    probs = [float(p) for p in probs]
    require(abs(sum(probs) - 1) if probs and min(probs) >= 0 else math.inf, 1e-12,
            ValueError, "probs must be a nonnegative distribution summing to 1")
    d = len(probs)
    layout = SystemLayout(((label_a, d), (label_b, d)))
    m = np.zeros((d * d, d * d), dtype=complex)
    for x, p in enumerate(probs):
        m[x * d + x, x * d + x] = p
    return DensityMatrix(m, layout)


def _preset(name: str, params) -> ResolvedSpec:
    """The named preset; a state above the dimension budget is refused unbuilt."""
    if not isinstance(params, dict):
        raise SpecError(f"must be an object, got {params!r}", "$.preset.params")
    field = partial(_field, params, path="$.preset.params")
    if name == "bell":
        return ResolvedSpec(bell_pair(), (("A1",),), ("B",), ())
    if name == "two-bell":
        s = tensor(bell_pair("A1", "B1"), bell_pair("A2", "B2"))
        return ResolvedSpec(s, (("A1",), ("A2",)), ("B1", "B2"), ())
    if name == "ghz":
        k = field("parties", int, 3)
        check_dim_budget(2, k)
        labels = [f"A{i}" for i in range(1, k)] + ["B"]
        s = ghz_state(labels)
        return ResolvedSpec(s, tuple((lab,) for lab in labels[:-1]), ("B",), ())
    if name == "werner":
        return ResolvedSpec(werner_state(field("p", float, 0.5)), (("A1",),), ("B",), ())
    if name == "product":
        da = field("dim_a", int, 2)
        db = field("dim_b", int, 2)
        check_dim_budget(da * db)
        s = tensor(maximally_mixed(SystemLayout((("A1", da),))),
                   maximally_mixed(SystemLayout((("B", db),))))
        return ResolvedSpec(s, (("A1",),), ("B",), ())
    if name == "cq":
        probs = field("probs", [float], [0.5, 0.5])
        check_dim_budget(len(probs) ** 2)
        return ResolvedSpec(cq_state(probs), (("A1",),), ("B",), ())
    raise SpecError(f"unknown preset {name!r}", "$.preset.name")


def _parse_matrix(entries, dim: int) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim:
        raise SpecError(f"matrix must be a list of {dim} rows", "$.matrix")
    # dim rows of dim [re, im] pairs whose parts are JSON numbers, not
    # booleans, strings or null (a length-2 object or string iterates over
    # strings), checked in C-level passes
    flat = chain.from_iterable
    try:
        regular = (all(type(row) is list and len(row) == dim for row in entries)
                   and set(map(len, flat(entries))) == {2})
    except TypeError:  # a number or null in place of a pair
        regular = False
    values = list(flat(flat(entries))) if regular else [None]
    try:
        if set(map(type, values)) <= {int, float}:
            pairs = np.fromiter(values, dtype=float, count=len(values))
            if not np.isnan(pairs).any():
                # each float64 [re, im] pair is one complex128 entry, bit for bit
                return pairs.view(complex).reshape(dim, dim)
    except OverflowError:  # an integer beyond a double's range
        pass
    # malformed, NaN or too large: the per-entry checks below name the offending path
    m = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise SpecError(f"row {i} must be a list of {dim} entries", f"$.matrix[{i}]")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpecError("entries must be [re, im] pairs", f"$.matrix[{i}][{j}]")
            if any(isinstance(x, (bool, str)) for x in pair):
                raise SpecError(f"entries must be JSON numbers, got {pair!r}",
                                f"$.matrix[{i}][{j}]")
            try:
                m[i, j] = complex(float(pair[0]), float(pair[1]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SpecError(f"entries must be numbers: {exc}",
                                f"$.matrix[{i}][{j}]") from exc
    return m


def _with_roles(obj: dict, base: ResolvedSpec) -> ResolvedSpec:
    """`base` with the roles that `obj` gives; they must partition the layout."""
    spec = ResolvedSpec(
        base.state, tuple(label_groups(_field(obj, "senders", [_labels], base.senders))),
        tuple(_field(obj, "receiver", _labels, base.receiver)),
        tuple(_field(obj, "eavesdropper", _labels, base.eavesdropper)))
    flat = [lab for g in spec.senders for lab in g] + [*spec.receiver, *spec.eavesdropper]
    labels = spec.state.layout.labels
    if sorted(flat) != sorted(labels):
        raise SpecError(f"roles {sorted(flat)} must partition the layout {sorted(labels)}",
                        "$.senders")
    return spec


def resolve_state_spec(obj: dict) -> ResolvedSpec:
    """Resolve a state-spec JSON object into a validated state with roles."""
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    if "preset" in obj:
        preset = obj["preset"]
        if not isinstance(preset, dict) or "name" not in preset:
            raise SpecError("preset must be {'name': ..., 'params': {...}}", "$.preset")
        return _with_roles(obj, _preset(preset["name"], preset.get("params", {})))
    if "layout" not in obj or "matrix" not in obj:
        raise SpecError("spec needs either 'preset' or 'layout' + 'matrix'")
    try:
        layout = SystemLayout(tuple((_typed(lab, str), _typed(d, int))
                                    for lab, d in obj["layout"]))
    except (TypeError, ValueError) as exc:
        raise SpecError(str(exc), "$.layout") from exc
    matrix = _parse_matrix(obj["matrix"], layout.dim)
    try:
        state = DensityMatrix(matrix, layout)
    except ValueError as exc:
        raise SpecError(str(exc), "$.matrix") from exc
    return _with_roles(obj, ResolvedSpec(state, None, (), ()))  # senders has no default
