#!/usr/bin/env python3
"""qmap benchmark: seeded CLI workloads, end-to-end metrics and a traced run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Run from anywhere; the qmap sources are taken from `src/` next to this
directory. The load is a closed loop: one command at a time, each in a
fresh interpreter (see child.py) with BLAS pinned to one thread. A pass
runs every command of the workload once; passes repeat while another one
fits in `--seconds`. Each command's report is checked (checks.py).

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate
and it holds the per-layer metrics. The exit code is 0 only when every
command exited 0 and passed its checks.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
CHILD = BENCH_DIR / "child.py"
CMD_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH_DIR))
from child import CONSTRUCTED, THREAD_VARS, layer_names  # noqa: E402

# the parent imports numpy to generate inputs; pin its threads as in the children
os.environ.update({v: "1" for v in THREAD_VARS})

import numpy  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "max_cmd_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "1"}


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)  # holds the pinned BLAS thread variables
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    return env


def run_command(cmd, work: Path, env: dict, traced: bool, reference: dict | None) -> dict:
    """Run one CLI command in a fresh interpreter and check its report."""
    out_dir = work / f"out-{cmd.cid}"
    result_path = work / f"{cmd.cid}.result.json"
    argv = [sys.executable, str(CHILD), str(result_path), "1" if traced else "0",
            cmd.cid, "--", *cmd.argv, "--out", out_dir.name]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True,
                              text=True, timeout=CMD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"cid": cmd.cid, "errors": [f"timed out after {CMD_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"cid": cmd.cid, "errors": [f"exit {proc.returncode}: {tail[0]}"]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    try:
        report = json.loads((out_dir / f"{cmd.report}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {"cid": cmd.cid, "errors": [f"no readable report: {exc}"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    errors = checks.check_report(cmd.report, report, cmd.exact_code)
    if reference is not None:
        errors += (checks.compare_reference(report, reference[cmd.cid])
                   if cmd.cid in reference else ["no reference recorded"])
    return {
        "cid": cmd.cid,
        "errors": errors,
        "report": report,
        "setup_s": result["entered_monotonic"] - spawned,
        "main_s": result["main_s"],
        "rss_mb": result["maxrss_kb"] / 1024,
        "layers": result.get("layers"),
        "spans": result.get("spans"),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 reference: dict | None) -> dict:
    """Passes of one workload until another would overrun `seconds`; raw results.

    `reference` maps command ids to recorded report values, or is None to
    skip that comparison.
    """
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        commands = WORKLOADS[name](work, seed)
        env = child_env(work)
        modes = (False, True) if trace else (False,)
        passes = []
        deadline = time.monotonic() + seconds
        while True:
            started = time.monotonic()
            for traced in modes:
                results = [run_command(c, work, env, traced, reference) for c in commands]
                passes.append({"traced": traced, "results": results})
            if time.monotonic() + (time.monotonic() - started) > deadline:
                return {"workload": name, "seed": seed, "passes": passes}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def command_medians(passes: list[list[dict]], key: str) -> list[float]:
    """Median of `key` for each command across passes, in command order.

    Summing per-command medians gives a typical pass that one slow command
    in one pass cannot move.
    """
    return [statistics.median(rs[i][key] for rs in passes)
            for i in range(len(passes[0]))]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    timed = [p["results"] for p in passes if not p["traced"]]
    main_s = command_medians(timed, "main_s")
    return {
        "setup_s": statistics.median(r["setup_s"] for rs in timed for r in rs),
        "wall_s": sum(main_s),
        "max_cmd_s": max(main_s),
        "peak_rss_mb": max(command_medians(timed, "rss_mb")),
    }


def per_layer(passes: list[dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer calls and self time of the traced passes, and trace overhead."""
    traced = [p["results"] for p in passes if p["traced"]]
    untraced = [p["results"] for p in passes if not p["traced"]]

    def pass_calls(rs):
        return {n: sum(r["layers"][n]["calls"] for r in rs)
                for n in layer_names() + [CONSTRUCTED]}

    calls = pass_calls(traced[0])
    errors = [] if all(pass_calls(rs) == calls for rs in traced) else [
        "traced passes made different numbers of calls"]
    metrics = {}
    for n in layer_names():
        metrics[f"{n}.calls"] = (calls[n], "count")
        metrics[f"{n}.self_s"] = (statistics.median(
            sum(r["layers"][n]["self_s"] for r in rs) for rs in traced), "s")
    metrics[CONSTRUCTED] = (calls[CONSTRUCTED], "count")
    overhead = (sum(command_medians(traced, "main_s"))
                - sum(command_medians(untraced, "main_s")))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, errors


def write_spans(run: dict) -> Path:
    """All spans of the traced passes: [name, start, end, parent] per command."""
    path = WORK_ROOT / f"spans-{run['workload']}-seed{run['seed']}.json"
    commands = [{"pass": i, "cmd": r["cid"], "spans": r["spans"]}
                for i, p in enumerate(run["passes"]) if p["traced"]
                for r in p["results"] if r.get("spans") is not None]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": run["workload"], "seed": run["seed"],
                   "span_fields": ["name", "start_s", "end_s", "parent"],
                   "commands": commands}, fh)
    return path


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    return loose.read_text(encoding="utf-8").strip() if loose.is_file() else ref


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: "1" for v in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the results JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qmap" / "cli.py").is_file():
        print(f"error: no qmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)

    env = environment(args.seed)
    print("environment:", json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, errors = {}, 0, 0, []
    for name in names:
        reference = (checks.load_reference()[name]
                     if args.seed == checks.DEFAULT_SEED else None)
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
        results = [r for p in run["passes"] for r in p["results"]]
        bad = [r for r in results if r["errors"]]
        attempted += len(results)
        failed += len(bad)
        errors += [f"{name}/{r['cid']}: {e}" for r in bad for e in r["errors"]]
        n_passes = sum(not p["traced"] for p in run["passes"])
        print(f"workload {name}: {len(results)} commands in {n_passes} untraced "
              f"passes, fail_frac {len(bad) / len(results):.4g}")
        found = {}
        if args.trace and not bad:
            found, trace_errors = per_layer(run["passes"])
            errors += [f"{name}: {e}" for e in trace_errors]
            print(f"  spans written to {write_spans(run)}")
        elif not args.trace:
            if not bad:  # timings of a pass with a failed command are not comparable
                found = {k: (v, END_TO_END_UNITS[k])
                         for k, v in end_to_end(run["passes"]).items()}
            found["ok_frac"] = (1 - len(bad) / len(results), "1")
        for key, (value, unit) in found.items():
            print(f"  {key:<48} {value:>14.6g} {unit}")
            metrics[f"{name}.{key}" if len(names) > 1 else key] = {
                "value": value, "unit": unit}
    for e in errors:
        print(f"FAILED {e}")
    summary = {"correct": not errors, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps({"environment": env, **summary}, indent=2,
                                       sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
