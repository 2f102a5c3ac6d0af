"""Batch front end: resolve state specs, dispatch to the region and protocol
machinery, and emit JSON/CSV artifacts.

Exit codes: 0 success, 2 validation error, 3 invariant violation,
4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from itertools import chain
from pathlib import Path

import orjson

from . import protocols, regions
from .presets import ResolvedSpec, SpecError, _field, resolve_state_spec
from .protocols import BudgetError
from .qstate import StateValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4


# orjson reads an integer beyond 64 bits as a float, where json keeps the int
_WIDE = 2.0 ** 63


def _holds_wide_number(value) -> bool:
    """Whether a number of magnitude >= 2^63 is anywhere in a decoded value."""
    todo = [value]
    while todo:
        x = todo.pop()
        if isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, list):
            if all(type(row) is list for row in x):
                try:  # rows of number lists (a spec matrix) in one C-level pass
                    flat = chain.from_iterable(chain.from_iterable(x))
                    if max(map(abs, flat), default=0) >= _WIDE:
                        return True
                    continue
                except TypeError:  # a row holds more than number lists
                    pass
            todo.extend(x)
        elif isinstance(x, (int, float)) and abs(x) >= _WIDE:
            return True
    return False


def _read_json(path: str):
    """The file's JSON value, as `json.load` reads it.

    orjson decodes it. Where orjson may differ from json (it refuses NaN,
    +-Infinity, numbers that overflow a double, a BOM and invalid UTF-8, and
    reads an integer beyond 64 bits as a float), the file is read again with
    json, so every document gives json's value or json's error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        value = orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    else:
        if not _holds_wide_number(value):
            return value
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_json(path: str, what: str) -> dict:
    try:
        return _read_json(path)
    except FileNotFoundError as exc:
        raise SpecError(f"{what} file not found: {path}") from exc
    except OSError as exc:  # a directory, no permission, a read error
        raise SpecError(f"{what} file cannot be read: {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{what} is not valid JSON: {exc}") from exc


def _write_json(out_dir: Path, name: str, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    rates = _field(config, "rates", [float])
    if len(rates) != z:
        raise SpecError(f"config needs a 'rates' list of length {z}", "$.rates")
    return rates


def cmd_check(spec: ResolvedSpec, config: dict, out_dir: Path, seed: None) -> int:
    _, _, region = _region_tables(spec)
    rates = _rates_from_config(config, region.z_count)
    slack = _field(config, "slack", float, 1e-9)
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


def _count(config: dict, key: str, default: int) -> int:
    """config[key] (`default` when absent): an integer of at least 1."""
    value = _field(config, key, int, default)
    if value < 1:
        raise SpecError(f"{key} must be >= 1, got {value}", f"$.{key}")
    return value


def _resolve_seed(args, config: dict, default: int | None = None) -> int:
    """--seed, else the config's master_seed, else `default` (if given)."""
    if args.seed is not None:
        return args.seed
    if config.get("master_seed") is not None:
        return _field(config, "master_seed", int)
    if default is not None:
        return default
    raise SpecError("stochastic commands require --seed or config master_seed",
                    "$.master_seed")


def cmd_simulate_randomization(spec: ResolvedSpec, config: dict, out_dir: Path,
                               seed: int) -> int:
    n = _count(config, "n", 1)
    z = len(spec.senders)
    block_sizes = _field(config, "block_sizes", [int])
    if len(block_sizes) != z:
        raise SpecError(f"config needs 'block_sizes' of length {z}", "$.block_sizes")
    trials = _count(config, "trials", 1)
    family = _field(config, "family", str, "haar")
    w_labels = list(spec.eavesdropper) if spec.eavesdropper else list(spec.receiver)
    report = protocols.chained_randomization_experiment(
        spec.state, spec.senders, w_labels, n, block_sizes, trials, seed, family=family)
    _write_report(out_dir, "simulate-randomization", report)
    return EXIT_OK


def cmd_simulate_encoding(spec: ResolvedSpec, config: dict, out_dir: Path,
                          seed: int) -> int:
    n = _count(config, "n", 1)
    k_sweep = _field(config, "k_sweep", [int], [1, 2, 4])
    if len(set(k_sweep)) != len(k_sweep):
        raise SpecError(f"k_sweep sizes must be distinct, got {k_sweep}", "$.k_sweep")
    trials = _count(config, "trials", 1)
    family = _field(config, "family", str, "haar")
    report = protocols.encoding_experiment(spec.state, spec.senders, n, k_sweep, trials,
                                           seed, family=family)
    _write_report(out_dir, "simulate-encoding", report)
    return EXIT_OK


def cmd_simulate_code(spec: ResolvedSpec, config: dict, out_dir: Path,
                      seed: int) -> int:
    n = _count(config, "n", 1)
    z = len(spec.senders)
    rates = _rates_from_config(config, z)
    family = _field(config, "family", str, "haar")
    decoder = _field(config, "decoder", str, "pgm")
    splits_cfg = config.get("splits")
    if splits_cfg is not None:
        if not isinstance(splits_cfg, dict):
            raise SpecError("splits must be an object with 'c' and 'd' lists", "$.splits")
        splits = tuple(_field(splits_cfg, key, [float], path="$.splits")
                       for key in ("c", "d"))
    else:
        chat, dhat, _ = _region_tables(spec)
        splits = regions.rate_split(rates, chat, dhat)
    code = protocols.build_qmap_code(
        spec.state, spec.senders, spec.receiver, spec.eavesdropper, n, rates,
        splits, seed, family=family, decoder=decoder)
    _write_report(out_dir, "simulate-code", protocols.evaluate_code(code, spec.state))
    return EXIT_OK


def cmd_verify_lemmas(spec: None, config: dict, out_dir: Path, seed: int) -> int:
    counterexample = _field(config, "counterexample", bool, False)
    sizes = _field(config, "sizes", [int], [2, 3])
    if min(sizes, default=1) < 1 or len(set(sizes)) != len(sizes):
        # a repeated size would redraw its streams and count each case twice
        raise SpecError(f"sizes must be distinct and >= 1, got {sizes}", "$.sizes")
    suites = protocols.lemma_suites(seed, sizes, _count(config, "states_per_size", 10),
                                    _count(config, "union_trials", 100))
    if counterexample:
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
        if not isinstance(config, dict):
            raise SpecError("config must be a JSON object")
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
