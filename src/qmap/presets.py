"""State specifications: named presets and explicit layout-plus-matrix specs.

Matrix entry convention for explicit specs: row-major, [re, im] pairs,
basis ordered by layout factor order with the leftmost factor most
significant (plain Kronecker order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import DensityMatrix, SystemLayout, maximally_mixed, pure_state, tensor


class SpecError(ValueError):
    """Invalid state specification; `path` is the JSON path of the bad field."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


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
    if not probs or any(p < 0 for p in probs) or abs(sum(probs) - 1) > 1e-12:
        raise ValueError("probs must be a nonnegative distribution summing to 1")
    d = len(probs)
    layout = SystemLayout(((label_a, d), (label_b, d)))
    m = np.zeros((d * d, d * d), dtype=complex)
    for x, p in enumerate(probs):
        m[x * d + x, x * d + x] = p
    return DensityMatrix(m, layout)


def _preset(name: str, params: dict) -> ResolvedSpec:
    if name == "bell":
        return ResolvedSpec(bell_pair(), (("A1",),), ("B",), ())
    if name == "two-bell":
        s = tensor(bell_pair("A1", "B1"), bell_pair("A2", "B2"))
        return ResolvedSpec(s, (("A1",), ("A2",)), ("B1", "B2"), ())
    if name == "ghz":
        k = int(params.get("parties", 3))
        labels = [f"A{i}" for i in range(1, k)] + ["B"]
        s = ghz_state(labels)
        return ResolvedSpec(s, tuple((lab,) for lab in labels[:-1]), ("B",), ())
    if name == "werner":
        return ResolvedSpec(werner_state(float(params.get("p", 0.5))),
                            (("A1",),), ("B",), ())
    if name == "product":
        da = int(params.get("dim_a", 2))
        db = int(params.get("dim_b", 2))
        s = tensor(maximally_mixed(SystemLayout((("A1", da),))),
                   maximally_mixed(SystemLayout((("B", db),))))
        return ResolvedSpec(s, (("A1",),), ("B",), ())
    if name == "cq":
        probs = params.get("probs", [0.5, 0.5])
        return ResolvedSpec(cq_state(probs), (("A1",),), ("B",), ())
    raise SpecError(f"unknown preset {name!r}", "$.preset.name")


def _parse_matrix(entries, dim: int) -> np.ndarray:
    try:
        pairs = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        pairs = None
    # numpy reads None as NaN; NaN goes through the per-entry path
    if (pairs is not None and pairs.shape == (dim, dim, 2)
            and not np.isnan(pairs).any()):
        # set both parts, never re + 1j*im, so each entry is bit-exact
        m = np.empty((dim, dim), dtype=complex)
        m.real = pairs[..., 0]
        m.imag = pairs[..., 1]
        return m
    # malformed: the per-entry checks below name the offending path
    m = np.zeros((dim, dim), dtype=complex)
    if len(entries) != dim:
        raise SpecError(f"matrix must have {dim} rows, got {len(entries)}", "$.matrix")
    for i, row in enumerate(entries):
        if len(row) != dim:
            raise SpecError(f"row {i} must have {dim} entries", f"$.matrix[{i}]")
        for j, pair in enumerate(row):
            if len(pair) != 2:
                raise SpecError("entries must be [re, im] pairs", f"$.matrix[{i}][{j}]")
            try:
                m[i, j] = complex(float(pair[0]), float(pair[1]))
            except (TypeError, ValueError) as exc:
                raise SpecError(f"entries must be numbers: {exc}",
                                f"$.matrix[{i}][{j}]") from exc
    return m


def _parse_roles(obj: dict, layout_labels: Sequence[str],
                 default: ResolvedSpec | None) -> tuple:
    def groupify(entry, path):
        if not isinstance(entry, list):
            raise SpecError("must be a list of labels or label groups", path)
        groups = []
        for g in entry:
            groups.append((g,) if isinstance(g, str) else tuple(g))
        return tuple(groups)

    if "senders" in obj:
        senders = groupify(obj["senders"], "$.senders")
    elif default is not None:
        senders = default.senders
    else:
        raise SpecError("missing required field", "$.senders")
    receiver = tuple(obj.get("receiver", default.receiver if default else ()))
    eaves = tuple(obj.get("eavesdropper", default.eavesdropper if default else ()))
    flat = [lab for g in senders for lab in g] + list(receiver) + list(eaves)
    if sorted(flat) != sorted(layout_labels):
        raise SpecError(
            f"roles {sorted(flat)} must partition the layout {sorted(layout_labels)}",
            "$.senders")
    return senders, receiver, eaves


def resolve_state_spec(obj: dict) -> ResolvedSpec:
    """Resolve a state-spec JSON object into a validated state with roles."""
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    if "preset" in obj:
        preset = obj["preset"]
        if not isinstance(preset, dict) or "name" not in preset:
            raise SpecError("preset must be {'name': ..., 'params': {...}}", "$.preset")
        base = _preset(preset["name"], preset.get("params", {}))
        senders, receiver, eaves = _parse_roles(obj, base.state.layout.labels, base)
        return ResolvedSpec(base.state, senders, receiver, eaves)
    if "layout" not in obj or "matrix" not in obj:
        raise SpecError("spec needs either 'preset' or 'layout' + 'matrix'")
    try:
        layout = SystemLayout(tuple((lab, int(d)) for lab, d in obj["layout"]))
    except (TypeError, ValueError) as exc:
        raise SpecError(str(exc), "$.layout") from exc
    matrix = _parse_matrix(obj["matrix"], layout.dim)
    try:
        state = DensityMatrix(matrix, layout)
    except ValueError as exc:
        raise SpecError(str(exc), "$.matrix") from exc
    senders, receiver, eaves = _parse_roles(obj, layout.labels, None)
    return ResolvedSpec(state, senders, receiver, eaves)


def state_spec_to_json(spec: ResolvedSpec) -> dict:
    """Explicit (layout + matrix) JSON form; round-trips entrywise exactly."""
    m = spec.state.matrix
    return {
        "layout": [[lab, d] for lab, d in spec.state.layout.factors],
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in m],
        "senders": [list(g) for g in spec.senders],
        "receiver": list(spec.receiver),
        "eavesdropper": list(spec.eavesdropper),
    }
