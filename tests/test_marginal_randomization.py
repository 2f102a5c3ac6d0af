"""Randomization read from the senders+W marginal, checked against full-state references.

Every randomization distance depends only on the marginal of the senders
and W (the eavesdropper, or the receiver when there is none).
`chained_randomization_experiment` builds nothing larger than
(senders + W)^(x)n, and `evaluate_code` keeps only each message's
senders+E marginal. The references here form the full rho^(x)n instead:
`randomize` for the chained total, and the block means of `encode` for a
code's leakage and randomization distance. Also covered: the index space
of a code is refused before any family is drawn, and GHZ-5 with a
two-factor senders+W marginal runs at n=3.
"""

import json
import time
from itertools import product

import pytest

from qmap import protocols, qstate
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import (
    build_qmap_code,
    chained_randomization_experiment,
    encode,
    evaluate_code,
    make_family,
    randomize,
)
from qmap.qstate import (
    DensityMatrix,
    SystemLayout,
    maximally_mixed,
    partial_trace,
    permute_factors,
    random_density,
    tensor,
    tensor_power,
    trace_norm,
)

GHZ5_ROLES = {"preset": {"name": "ghz", "params": {"parties": 5}},
              "senders": [["A1"]], "receiver": ["A2", "A3", "A4"], "eavesdropper": ["B"]}


def rank3_state(z, seed):
    """A random rank-3 state on qubits A1..Az, B, E."""
    senders = [f"A{i}" for i in range(1, z + 1)]
    layout = SystemLayout(tuple((lab, 2) for lab in (*senders, "B", "E")))
    return random_density(layout, 3, seed), [[lab] for lab in senders]


@pytest.mark.parametrize("family", ["haar", "pauli"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("z", [1, 2, 3])
def test_chained_total_matches_randomize_on_the_full_state(z, n, family):
    rho, senders = rank3_state(z, 10 * z + n)
    block_sizes, trials, seed = [2, 3, 4][:z], 2, 5
    report = chained_randomization_experiment(rho, senders, ["E"], n, block_sizes,
                                              trials, seed, family=family)
    rho_n = tensor_power(rho, n)
    copy_groups = [SystemLayout.copy_major(g, n) for g in senders]
    w_copies = list(SystemLayout.copy_major(["E"], n))
    assert len(report.samples["total_distance"]) == trials
    for t, total in enumerate(report.samples["total_distance"]):
        families = [make_family(family, k, n, 2, size, seed, (t, k))
                    for k, size in enumerate(block_sizes, start=1)]
        _, want = randomize(rho_n, copy_groups, w_copies, families)
        assert abs(total - want) < 1e-12


def record_dims(monkeypatch, names):
    """The dimension of the state passed first to each protocols.<name> call."""
    dims = []
    for name in names:
        inner = getattr(protocols, name)

        def recording(state, *args, inner=inner, **kwargs):
            dims.append(state.dim)
            return inner(state, *args, **kwargs)

        monkeypatch.setattr(protocols, name, recording)
    return dims


def run(tmp_path, command, spec, config, seed=0):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "config.json").write_text(json.dumps(config))
    return main([command, "--spec", str(tmp_path / "spec.json"),
                 "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out"), "--seed", str(seed)])


def test_simulate_randomization_builds_only_the_senders_w_marginal(tmp_path,
                                                                   monkeypatch):
    """The n-copy dimension of each marginal the run builds, whether it is held
    as a factor or dense, and the state passed to each `tensor_power`."""
    dims = record_dims(monkeypatch, ["tensor_power"])
    inner = protocols._Power.__init__

    def init(self, marginal, n):
        dims.append(marginal.dim ** n)
        inner(self, marginal, n)

    monkeypatch.setattr(protocols._Power, "__init__", init)
    n = 2
    assert run(tmp_path, "simulate-randomization", GHZ5_ROLES,
               {"n": n, "block_sizes": [2], "trials": 2}) == 0
    layout = resolve_state_spec(GHZ5_ROLES).state.layout
    assert max(dims) == layout.dim_of(["A1", "B"]) ** n < layout.dim ** n


def reference_samples(code, rho):
    """Leakage and randomization distance of each message from the full-dimension
    block means of `encode`, traced onto the senders and E, with the target
    I/d_S (x) rho_E^(x)n."""
    rho_n = tensor_power(rho, code.n)
    sender_labels = [lab for g in code.sender_groups for lab in g]
    leak_labels = sender_labels + list(code.e_labels)
    leaks = []
    for m_tuple in product(*[range(m) for m in code.message_counts]):
        k_tuples = [[m * size + l for m, size, l in zip(m_tuple, code.block_sizes, l_tuple)]
                    for l_tuple in product(*[range(size) for size in code.block_sizes])]
        states = encode(rho_n, code.families, code.sender_groups, k_tuples)
        mean = DensityMatrix(sum(s.matrix for s in states) / len(states), rho_n.layout)
        leaks.append(partial_trace(mean, leak_labels))
    bar = sum(leak.matrix for leak in leaks) / len(leaks)
    target = maximally_mixed(SystemLayout(tuple(
        (lab, rho_n.layout.dim_of(lab)) for lab in sender_labels)))
    if code.e_labels:
        target = tensor(target, tensor_power(partial_trace(rho, "E"), code.n))
    target = permute_factors(target, leaks[0].layout.labels).matrix
    return ([trace_norm(leak.matrix - bar) for leak in leaks],
            [trace_norm(leak.matrix - target) for leak in leaks])


def abbe_code(decoder, n, rates, splits):
    rho, senders = rank3_state(2, 7)
    return rho, build_qmap_code(rho, senders, ["B"], ["E"], n, rates, splits, 3,
                                decoder=decoder)


def werner_code():
    spec = resolve_state_spec({"preset": {"name": "werner", "params": {"p": 0.3}}})
    return spec.state, build_qmap_code(spec.state, spec.senders, spec.receiver,
                                       spec.eavesdropper, 2, [1], ([1.5], [0.5]), 4)


CODES = {
    # N = 16 tuples of rank 3 at n = 2: N r^n = 144 <= d^n = 256, so a Gram table
    "table": lambda: abbe_code("pgm", 2, [0.5, 0.5], ([1, 1], [0.5, 0.5])),
    "pgm-without-table": werner_code,
    "sequential": lambda: abbe_code("sequential", 1, [1, 1], ([2, 1], [1, 0])),
}


@pytest.mark.parametrize("kind", sorted(CODES))
def test_evaluate_code_matches_the_encode_reference(kind, monkeypatch):
    tables = []
    inner = protocols.pgm_success_table

    def recording(*args):
        tables.append(args)
        return inner(*args)

    monkeypatch.setattr(protocols, "pgm_success_table", recording)
    rho, code = CODES[kind]()
    assert bool(tables) == (kind == "table")
    report = evaluate_code(code, rho)
    leakage, distance = reference_samples(code, rho)
    assert report.trials == code.message_space == len(leakage)
    for got, want in ((report.samples["leakage"], leakage),
                      (report.samples["randomization_distance"], distance)):
        for a, b in zip(got, want, strict=True):
            assert abs(a - b) < 1e-12


def test_sequential_code_evaluation_validates_no_full_state(monkeypatch):
    spec = resolve_state_spec({"preset": {"name": "two-bell"}})
    code = build_qmap_code(spec.state, spec.senders, spec.receiver, spec.eavesdropper,
                           1, [1, 1], ([1, 1], [0, 0]), 0, decoder="sequential")
    assert code.message_space == 4
    sizes = []
    check = qstate.psd_violation

    def counted(h, tol):
        sizes.append(h.shape[0])
        return check(h, tol)

    monkeypatch.setattr(qstate, "psd_violation", counted)
    evaluate_code(code, spec.state)
    # every message is mixed on the senders+E marginal, whatever the decoder
    leak_dim = spec.state.layout.dim_of([*sum(spec.senders, ()), *spec.eavesdropper])
    assert sizes.count(spec.state.dim) == 0
    assert max(sizes) == leak_dim ** code.n < spec.state.dim


@pytest.mark.parametrize("family", ["haar", "pauli"])
@pytest.mark.parametrize("c, d", [(19, 18), (1000000001, 1000000000)])
def test_oversized_index_space_is_refused_before_any_family(tmp_path, capsys,
                                                           monkeypatch, family, c, d):
    def forbidden(*args, **kwargs):
        raise AssertionError("a family was drawn")

    monkeypatch.setattr(protocols, "make_family", forbidden)
    config = {"n": 1, "rates": [1], "splits": {"c": [c], "d": [d]}, "family": family}
    start = time.perf_counter()
    assert run(tmp_path, "simulate-code", {"preset": {"name": "bell"}}, config) == 4
    assert time.perf_counter() - start < 1
    assert "index space" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ghz5_with_a_two_qubit_senders_w_marginal_runs_at_n3(tmp_path):
    # the full state has 32^3 = 2^15 dimensions; (A1 B)^(x)3 has 64
    config = {"n": 3, "block_sizes": [64], "trials": 1, "family": "pauli"}
    assert run(tmp_path, "simulate-randomization", GHZ5_ROLES, config) == 0
    report = json.loads((tmp_path / "out" / "simulate-randomization.json").read_text())
    assert set(report["samples"]) == {"total_distance", "stage_1_distance"}
    for values in report["samples"].values():
        assert max(values) <= 1e-9
    config = {"n": 3, "block_sizes": [8], "trials": 2}
    assert run(tmp_path, "simulate-randomization", GHZ5_ROLES, config) == 0
