"""Batch front end: resolve state specs, dispatch to the region and protocol
machinery, and emit JSON/CSV artifacts.

Exit codes: 0 success, 2 validation error, 3 invariant violation,
4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import protocols, regions
from .presets import ResolvedSpec, SpecError, resolve_state_spec
from .protocols import BudgetError
from .qstate import StateValidationError, SystemLayout, random_density

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4

DEFAULT_BUDGET_QUBITS = 12
MAX_BUDGET_QUBITS = 14


def budget_qubits() -> int:
    raw = os.environ.get("QMAP_BUDGET_QUBITS")
    if raw is None:
        return DEFAULT_BUDGET_QUBITS
    try:
        return min(MAX_BUDGET_QUBITS, int(raw))
    except ValueError:
        raise SpecError(f"QMAP_BUDGET_QUBITS must be an integer, got {raw!r}")


def check_budget(n: int, state_dim: int) -> int:
    budget = budget_qubits()
    needed = n * math.log2(state_dim)
    if needed > budget + 1e-9:
        raise BudgetError(
            f"n * log2(dim) = {needed:.2f} qubits exceeds budget {budget}")
    return 2 ** budget


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SpecError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{what} is not valid JSON: {exc}") from exc


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_report(out_dir: Path, name: str, report: protocols.SimulationReport) -> None:
    """`<name>.json` and `<name>.csv` of a simulation report."""
    _write_json(out_dir, name, report.to_json())
    with open(out_dir / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(report.to_csv())


def _region_tables(spec: ResolvedSpec):
    return regions.region_tables(spec.state, spec.senders, spec.receiver,
                                 spec.eavesdropper)


def cmd_region(spec: ResolvedSpec, config: dict, out_dir: Path, seed: None) -> int:
    chat, dhat, region = _region_tables(spec)
    residuals = [
        {"subset": list(regions.subsets_of(m)),
         "residual": region.bounds[m] - (chat.at(m) - dhat.at(m))}
        for m in range(1, 1 << region.z_count)]
    payload = {
        "constraints": region.to_json(),
        "chat": chat.to_json(),
        "dhat": dhat.to_json(),
        "identity_residuals": residuals,
    }
    _write_json(out_dir, "region", payload)
    return EXIT_OK


def _rates_from_config(config: dict, z: int) -> list[float]:
    rates = config.get("rates")
    if rates is None or len(rates) != z:
        raise SpecError(f"config needs a 'rates' list of length {z}", "$.rates")
    return [float(r) for r in rates]


def cmd_check(spec: ResolvedSpec, config: dict, out_dir: Path, seed: None) -> int:
    _, _, region = _region_tables(spec)
    rates = _rates_from_config(config, region.z_count)
    slack = float(config.get("slack", 1e-9))
    res = regions.membership(region, rates, slack)
    payload = {
        "rates": rates,
        "slack": slack,
        "member": res.member,
        "worst_subset": list(res.worst_subset),
        "worst_margin": res.worst_margin,
    }
    _write_json(out_dir, "check", payload)
    return EXIT_OK


def cmd_split(spec: ResolvedSpec, config: dict, out_dir: Path, seed: None) -> int:
    chat, dhat, region = _region_tables(spec)
    rates = _rates_from_config(config, region.z_count)
    try:
        c, d = regions.rate_split(rates, chat, dhat)
    except regions.SeparationError as exc:
        raise SpecError(f"rates rejected: {exc}", "$.rates") from exc
    margins = {}
    for m in range(1, 1 << region.z_count):
        idx = [i for i in range(region.z_count) if m >> i & 1]
        margins[",".join(str(i + 1) for i in idx)] = {
            "c_margin": chat.at(m) - math.fsum(c[i] for i in idx),
            "d_margin": math.fsum(d[i] for i in idx) - dhat.at(m),
        }
    payload = {"rates": rates, "c": list(c), "d": list(d), "margins": margins}
    _write_json(out_dir, "split", payload)
    return EXIT_OK


def _resolve_seed(args, config: dict, default: int | None = None) -> int:
    """--seed, else the config's master_seed, else `default` (if given)."""
    for seed in (args.seed, config.get("master_seed"), default):
        if seed is not None:
            return int(seed)
    raise SpecError("stochastic commands require --seed or config master_seed",
                    "$.master_seed")


def cmd_simulate_randomization(spec: ResolvedSpec, config: dict, out_dir: Path,
                               seed: int) -> int:
    n = int(config.get("n", 1))
    z = len(spec.senders)
    block_sizes = config.get("block_sizes")
    if block_sizes is None or len(block_sizes) != z:
        raise SpecError(f"config needs 'block_sizes' of length {z}", "$.block_sizes")
    trials = int(config.get("trials", 1))
    family = config.get("family", "haar")
    max_dim = check_budget(n, spec.state.dim)
    w_labels = list(spec.eavesdropper) if spec.eavesdropper else list(spec.receiver)
    report = protocols.chained_randomization_experiment(
        spec.state, spec.senders, w_labels, n, [int(x) for x in block_sizes],
        trials, seed, family=family, max_dim=max_dim)
    _write_report(out_dir, "simulate-randomization", report)
    return EXIT_OK


def cmd_simulate_encoding(spec: ResolvedSpec, config: dict, out_dir: Path,
                          seed: int) -> int:
    n = int(config.get("n", 1))
    k_sweep = [int(k) for k in config.get("k_sweep", [1, 2, 4])]
    if len(set(k_sweep)) != len(k_sweep):
        raise SpecError(f"k_sweep sizes must be distinct, got {k_sweep}", "$.k_sweep")
    trials = int(config.get("trials", 1))
    family = config.get("family", "haar")
    max_dim = check_budget(n, spec.state.dim)
    report = protocols.encoding_experiment(spec.state, spec.senders, n, k_sweep, trials,
                                           seed, family=family, max_dim=max_dim)
    _write_report(out_dir, "simulate-encoding", report)
    return EXIT_OK


def cmd_simulate_code(spec: ResolvedSpec, config: dict, out_dir: Path,
                      seed: int) -> int:
    n = int(config.get("n", 1))
    z = len(spec.senders)
    rates = _rates_from_config(config, z)
    family = config.get("family", "haar")
    decoder = config.get("decoder", "pgm")
    max_dim = check_budget(n, spec.state.dim)
    splits_cfg = config.get("splits")
    if splits_cfg is not None:
        splits = ([float(x) for x in splits_cfg["c"]],
                  [float(x) for x in splits_cfg["d"]])
    else:
        chat, dhat, _ = _region_tables(spec)
        c, d = regions.rate_split(rates, chat, dhat)
        splits = (list(c), list(d))
    code = protocols.build_qmap_code(
        spec.state, spec.senders, spec.receiver, spec.eavesdropper, n, rates,
        splits, seed, family=family, decoder=decoder, max_dim=max_dim)
    _write_report(out_dir, "simulate-code", protocols.evaluate_code(code, spec.state))
    return EXIT_OK


def _lemma_state(seed: int, suite: int, z: int, trial: int, rest: tuple[str, ...]):
    """Random full-rank qubit state on A1..Az plus the `rest` factors, from the
    stream (seed, suite, z, trial), and its sender labels."""
    senders = [f"A{i}" for i in range(1, z + 1)]
    layout = SystemLayout(tuple((lab, 2) for lab in senders + list(rest)))
    rho = random_density(layout, layout.dim, protocols.derived_rng(seed, suite, z, trial))
    return rho, senders


def _lemma_structure_suite(seed: int, sizes: list[int], states_per_size: int) -> dict:
    """Zero/nonnegative/monotone/strongly-subadditive checks for the encoding
    table and its randomization complements on random states."""
    results = {"passed": True, "cases": 0, "failures": []}
    for z in sizes:
        for trial in range(states_per_size):
            rho, senders = _lemma_state(seed, 1, z, trial, ("V",))
            # with B empty, chat's V = B E and dhat's W = E are both V: one table
            chat, dhat, _ = regions.region_tables(rho, senders, (), ("V",))
            dcheck = regions.dcheck_from_dhat(dhat, [1.0] * z)
            for name, table, kind in (
                    ("chat", chat, "subadditive-monotone"),
                    ("dcheck", dcheck, "subadditive-monotone"),
                    ("dhat", dhat, "superadditive")):
                report = regions.check_set_function_properties(table, kind)
                results["cases"] += 1
                if not report.passed:
                    results["passed"] = False
                    results["failures"].append(
                        {"z": z, "trial": trial, "table": name,
                         "worst": report.worst_violation})
    return results


def _lemma_vertices_suite(seed: int, sizes: list[int], states_per_size: int) -> dict:
    results = {"passed": True, "cases": 0, "failures": []}
    for z in sizes:
        for trial in range(states_per_size):
            rho, senders = _lemma_state(seed, 2, z, trial, ("V",))
            chat, dhat, _ = regions.region_tables(rho, senders, (), ("V",))
            results["cases"] += 1
            try:
                regions.polymatroid_vertices(chat)
                regions.contrapolymatroid_vertices(dhat, [1.0] * z)
            except ValueError as exc:
                results["passed"] = False
                results["failures"].append({"z": z, "trial": trial, "error": str(exc)})
    return results


def _lemma_separation_suite(seed: int, sizes: list[int], trials: int) -> dict:
    results = {"passed": True, "cases": 0, "failures": []}
    for z in sizes:
        for trial in range(trials):
            rho, senders = _lemma_state(seed, 3, z, trial, ("B", "E"))
            chat, dhat, _ = regions.region_tables(rho, senders, ["B"], ["E"])
            gaps = [chat.at(m) - dhat.at(m) for m in range(1, 1 << z)]
            if min(gaps) <= 1e-6:
                continue  # no strict interior to split in
            rates = [0.25 * min(gaps) / z] * z
            results["cases"] += 1
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
                results["passed"] = False
                results["failures"].append({"z": z, "trial": trial, "error": str(exc)})
    return results


def _lemma_union_bound_suite(seed: int, trials: int, dim: int = 8) -> dict:
    results = {"passed": True, "cases": trials, "failures": []}
    for trial in range(trials):
        rng = protocols.derived_rng(seed, 4, trial)
        lams = []
        for _ in range(3):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = g @ g.conj().T
            lams.append(h / (np.linalg.eigvalsh(h).max() * (1 + rng.uniform(0, 1))))
        layout = SystemLayout((("S", dim),))
        rho = random_density(layout, dim, rng)
        try:
            protocols.union_bound_check(lams, rho)
        except AssertionError as exc:
            results["passed"] = False
            results["failures"].append({"trial": trial, "error": str(exc)})
    return results


def cmd_verify_lemmas(spec: None, config: dict, out_dir: Path, seed: int) -> int:
    sizes = [int(z) for z in config.get("sizes", [2, 3])]
    states_per_size = int(config.get("states_per_size", 10))
    union_trials = int(config.get("union_trials", 100))
    suites = {
        "set_function_structure": _lemma_structure_suite(seed, sizes, states_per_size),
        "greedy_vertices": _lemma_vertices_suite(seed, sizes, states_per_size),
        "rate_splitting": _lemma_separation_suite(seed, sizes, states_per_size),
        "union_bound": _lemma_union_bound_suite(seed, union_trials),
    }
    if config.get("counterexample"):
        # negative control: a table violating strong subadditivity must fail
        bad = regions.SetFunction(2, (0.0, 1.0, 1.0, 3.0))
        report = regions.check_set_function_properties(bad, "subadditive-monotone")
        suites["set_function_structure"]["passed"] = report.passed
        suites["set_function_structure"]["failures"].append(
            {"injected": True, "worst": report.worst_violation,
             "worst_pair": [list(p) for p in (report.worst_pair or ())]})
    payload = {"seed": seed, "suites": suites,
               "passed": all(s["passed"] for s in suites.values())}
    _write_json(out_dir, "verify-lemmas", payload)
    return EXIT_OK if payload["passed"] else EXIT_INVARIANT


# command -> (handler, takes --spec, resolves the master seed from args and config)
COMMANDS = {
    "region": (cmd_region, True, None),
    "check": (cmd_check, True, None),
    "split": (cmd_split, True, None),
    "simulate-randomization": (cmd_simulate_randomization, True, _resolve_seed),
    "simulate-encoding": (cmd_simulate_encoding, True, _resolve_seed),
    "simulate-code": (cmd_simulate_code, True, _resolve_seed),
    "verify-lemmas": (cmd_verify_lemmas, False, partial(_resolve_seed, default=0)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmap",
        description="Rate regions and coding simulations for the "
                    "quantum multiple-access one-time pad")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_spec, _) in COMMANDS.items():
        p = sub.add_parser(name)
        if takes_spec:
            p.add_argument("--spec", required=True, help="state spec JSON file")
        p.add_argument("--config", help="experiment config JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="master seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, takes_spec, resolve_seed = COMMANDS[args.command]
    try:
        config = _load_json(args.config, "config") if args.config else {}
        spec = resolve_state_spec(_load_json(args.spec, "spec")) if takes_spec else None
        seed = resolve_seed(args, config) if resolve_seed else None
        return handler(spec, config, Path(args.out), seed)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (StateValidationError, regions.InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:  # SpecError, LabelError and other input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
