"""Record reference.json: every value of every workload report at the default seed.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are known good; `run.py` then
compares each default-seed report with these values (checks.REFERENCE_TOL).
"""

from __future__ import annotations

import json

import checks
import run
from workloads import WORKLOADS


def main() -> None:
    reference = {}
    for name in WORKLOADS:
        results = run.run_workload(name, checks.DEFAULT_SEED, 1, False, None)
        results = results["passes"][0]["results"]
        bad = [r for r in results if r["errors"]]
        if bad:
            raise SystemExit(f"{name}: not recording failed commands {bad}")
        reference[name] = {r["cid"]: checks.flatten(r["report"]) for r in results}
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
