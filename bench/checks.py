"""Correctness checks on qmap reports.

`check_report` tests the invariants that hold for every seed. On the
default seed, `compare_reference` also compares every value of a report
with the one recorded in reference.json, within REFERENCE_TOL.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

IDENTITY_TOL = 1e-9     # |bound - (chat - dhat)|, as main_region enforces
EXACT_CODE_TOL = 1e-9   # epsilon and theta of a code with orthogonal messages
RANGE_TOL = 1e-9        # slack on probability and trace-norm ranges
REFERENCE_TOL = 1e-6    # absolute, or relative to the recorded value
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _entries(table: dict) -> dict[tuple, float]:
    return {tuple(e["subset"]): e["value"] for e in table["entries"]}


def _in_range(values, lo: float, hi: float) -> bool:
    return all(lo - RANGE_TOL <= v <= hi + RANGE_TOL for v in values)


def _check_region(r: dict) -> list[str]:
    bounds, chat, dhat = (_entries(r[k]) for k in ("constraints", "chat", "dhat"))
    errors = []
    if not bounds or bounds.keys() != chat.keys() or bounds.keys() != dhat.keys():
        errors.append("region tables cover different subsets")
        return errors
    for s, b in bounds.items():
        if not abs(b - (chat[s] - dhat[s])) <= IDENTITY_TOL:
            errors.append(f"bound {s} != chat - dhat")
        if not b >= -IDENTITY_TOL:
            errors.append(f"negative bound at {s}")
    if not all(abs(e["residual"]) <= IDENTITY_TOL for e in r["identity_residuals"]):
        errors.append("identity residual above tolerance")
    return errors


def _check_split(r: dict) -> list[str]:
    errors = []
    if not r["margins"] or not all(m["c_margin"] > 0 and m["d_margin"] > 0
                                   for m in r["margins"].values()):
        errors.append("split margins not strictly positive")
    if not all(abs(c - (d + x)) <= RANGE_TOL
               for c, d, x in zip(r["c"], r["d"], r["rates"], strict=True)):
        errors.append("c != d + r")
    return errors


def _check_simulation(r: dict, lo: float, hi: float) -> list[str]:
    values = list(r["estimates"].values())
    values += [v for vs in r["samples"].values() for v in vs]
    if not values or not _in_range(values, lo, hi):
        return [f"estimate outside [{lo}, {hi}]"]
    return []


def _check_code(r: dict, exact_code: bool) -> list[str]:
    est = r["estimates"]
    errors = []
    if not (_in_range([est["epsilon"], *r["samples"]["success"]], 0, 1)
            and _in_range([est["theta"], *r["samples"]["leakage"],
                           *r["samples"]["randomization_distance"]], 0, 2)):
        errors.append("code estimate outside its range")
    if exact_code and not (est["epsilon"] <= EXACT_CODE_TOL
                           and est["theta"] <= EXACT_CODE_TOL):
        errors.append("exact code has nonzero epsilon or theta")
    return errors


def check_report(kind: str, report: dict, exact_code: bool = False) -> list[str]:
    """Invariant violations of one report; empty when it passes."""
    try:
        if kind == "region":
            return _check_region(report)
        if kind == "check":
            return [] if report["member"] is True else ["interior rates not a member"]
        if kind == "split":
            return _check_split(report)
        if kind == "verify-lemmas":
            return [] if report["passed"] is True else ["lemma suite failed"]
        if kind == "simulate-randomization":
            return _check_simulation(report, 0, 2)
        if kind == "simulate-encoding":
            return _check_simulation(report, 0, 1)
        if kind == "simulate-code":
            return _check_code(report, exact_code)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {kind} report: {exc!r}"]
    return [f"no checks for report kind {kind!r}"]


def flatten(value, prefix: str = "") -> dict[str, object]:
    """Scalar leaves of a JSON value, keyed by their path."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out.update(flatten(v, f"{prefix}.{k}" if prefix else str(k)))
        return out
    if isinstance(value, list):
        out = {}
        for i, v in enumerate(value):
            out.update(flatten(v, f"{prefix}[{i}]"))
        return out
    return {prefix: value}


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        return a == b
    if not isinstance(b, (int, float)):
        return False
    return math.isclose(a, b, rel_tol=REFERENCE_TOL, abs_tol=REFERENCE_TOL)


def compare_reference(report: dict, recorded: dict) -> list[str]:
    """Differences between a report and its recorded flattened values."""
    got = flatten(report)
    if got.keys() != recorded.keys():
        return [f"report fields differ from reference: "
                f"{sorted(got.keys() ^ recorded.keys())[:5]}"]
    return [f"{k}: {got[k]!r} != reference {recorded[k]!r}"
            for k in sorted(got) if not _close(got[k], recorded[k])]


def load_reference() -> dict:
    """{workload: {command id: flattened report}} recorded at the default seed."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
