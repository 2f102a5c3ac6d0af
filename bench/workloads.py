"""Seeded workload generators for the qmap benchmark.

Each generator writes the spec and config files of one workload into a
directory and returns the qmap CLI commands that use them. The same seed
gives byte-identical files and identical commands; the program under test
receives only these files and the `--seed` flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Command:
    """One qmap CLI call: `qmap <argv> --out <dir>`, writing `<report>.json`."""

    cid: str
    argv: tuple[str, ...]
    report: str
    exact_code: bool = False  # a code whose decoding error and leakage are 0


def _write(directory: Path, name: str, payload: dict) -> str:
    (directory / name).write_text(json.dumps(payload, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return name


# --- region-large ---------------------------------------------------------

def _qubit_layout(z: int) -> list[tuple[str, int]]:
    return [(f"A{i}", 2) for i in range(1, z + 1)] + [("B", 2), ("E", 2)]


REGION_STATES = (
    ("z4a", _qubit_layout(4)),
    ("z4b", _qubit_layout(4)),
    ("z5a", _qubit_layout(5)),
    ("z5b", _qubit_layout(5)),
    ("mixed", [("A1", 3), ("A2", 3), ("A3", 2), ("B", 2), ("E", 2)]),
)


def _marginal_entropy(rho: np.ndarray, dims: list[int], keep: set[int]) -> float:
    """Entropy in bits of the marginal on the factors in `keep`."""
    t = rho.reshape(dims + dims)
    for i in reversed(range(len(dims))):
        if i not in keep:
            t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = int(np.prod([dims[i] for i in sorted(keep)]))
    ev = np.linalg.eigvalsh(t.reshape(d, d))
    ev = ev[ev > 1e-12]
    return float(-(ev * np.log2(ev)).sum())


def interior_rates(rho: np.ndarray, dims: list[int], z: int) -> list[float]:
    """A rate tuple at half of the tightest per-sender region bound.

    The bound of a sender subset G is I(A_G : A_Gc B | E); the senders are
    the first z factors, then B, then E. Half of min_G bound(G)/|G| per
    sender keeps every subset sum strictly below its bound.
    """
    b, e = z, z + 1
    s_e = _marginal_entropy(rho, dims, {e})
    s_all = _marginal_entropy(rho, dims, set(range(len(dims))))
    per_sender = []
    for mask in range(1, 1 << z):
        gamma = {i for i in range(z) if mask >> i & 1}
        rest = set(range(z)) - gamma
        cmi = (_marginal_entropy(rho, dims, gamma | {e})
               + _marginal_entropy(rho, dims, rest | {b, e}) - s_e - s_all)
        per_sender.append(cmi / len(gamma))
    rate = 0.5 * min(per_sender)
    if not rate > 0:
        raise ValueError("generated state has an empty rate region")
    return [float(f"{rate:.4g}")] * z


def region_large(directory: Path, seed: int) -> list[Command]:
    rng = np.random.default_rng([seed, 1])
    commands = []
    for name, layout in REGION_STATES:
        dims = [d for _, d in layout]
        dim = int(np.prod(dims))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        m = (m + m.conj().T) / 2
        m = m / np.real(np.trace(m))
        z = len(layout) - 2
        spec = _write(directory, f"{name}.spec.json", {
            "layout": [[lab, d] for lab, d in layout],
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in m],
            "senders": [lab for lab, _ in layout[:z]],
            "receiver": ["B"],
            "eavesdropper": ["E"],
        })
        rates = interior_rates(m, dims, z)
        config = _write(directory, f"{name}.rates.json", {"rates": rates})
        commands += [
            Command(f"{name}.region", ("region", "--spec", spec), "region"),
            Command(f"{name}.check", ("check", "--spec", spec, "--config", config),
                    "check"),
            Command(f"{name}.split", ("split", "--spec", spec, "--config", config),
                    "split"),
        ]
    return commands


# --- code-n2 --------------------------------------------------------------

def code_n2(directory: Path, seed: int) -> list[Command]:
    spec = _write(directory, "two-bell.spec.json", {"preset": {"name": "two-bell"}})
    commands = []
    for family, rates in (("haar", [0.5, 0.5]), ("pauli", [1, 1])):
        config = _write(directory, f"code-{family}.json", {
            "n": 2, "rates": rates, "family": family, "decoder": "pgm"})
        commands.append(Command(
            f"code-{family}",
            ("simulate-code", "--spec", spec, "--config", config, "--seed", str(seed)),
            "simulate-code", exact_code=family == "pauli"))
    return commands


# --- small-many -----------------------------------------------------------

def small_many(directory: Path, seed: int) -> list[Command]:
    two_bell = _write(directory, "two-bell.spec.json", {"preset": {"name": "two-bell"}})
    ghz = _write(directory, "ghz4.spec.json",
                 {"preset": {"name": "ghz", "params": {"parties": 4}}})
    s = str(seed)
    configs = {
        "lemmas": {"sizes": [2, 3, 4], "states_per_size": 5, "union_trials": 50},
        "rand-n1": {"n": 1, "block_sizes": [2, 2], "trials": 50},
        "rand-n2": {"n": 2, "block_sizes": [4, 4], "trials": 3},
        "enc-n1": {"n": 1, "k_sweep": [1, 2, 4], "trials": 20},
        "seq-ghz": {"n": 1, "rates": [0.3, 0.3, 0.3], "decoder": "sequential"},
        "seq-two-bell": {"n": 1, "rates": [1, 1], "decoder": "sequential"},
    }
    path = {name: _write(directory, f"{name}.json", cfg) for name, cfg in configs.items()}
    return [
        Command("lemmas", ("verify-lemmas", "--config", path["lemmas"], "--seed", s),
                "verify-lemmas"),
        Command("rand-n1", ("simulate-randomization", "--spec", two_bell,
                            "--config", path["rand-n1"], "--seed", s),
                "simulate-randomization"),
        Command("rand-n2", ("simulate-randomization", "--spec", two_bell,
                            "--config", path["rand-n2"], "--seed", s),
                "simulate-randomization"),
        Command("enc-n1", ("simulate-encoding", "--spec", two_bell,
                           "--config", path["enc-n1"], "--seed", s),
                "simulate-encoding"),
        Command("seq-ghz", ("simulate-code", "--spec", ghz,
                            "--config", path["seq-ghz"], "--seed", s),
                "simulate-code"),
        Command("seq-two-bell", ("simulate-code", "--spec", two_bell,
                                 "--config", path["seq-two-bell"], "--seed", s),
                "simulate-code"),
    ]


WORKLOADS = {
    "region-large": region_large,
    "code-n2": code_n2,
    "small-many": small_many,
}
