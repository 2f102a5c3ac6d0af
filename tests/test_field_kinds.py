"""Config and spec fields take only values of their JSON kind, and a budget
check decides a huge power without building it.

A bool field takes only true or false, an int field only an integer (a
boolean is not one), a float field only a finite number, and an explicit
layout entry only a label string with an integer dimension; any other value
exits 2 at its JSON path and writes nothing. `regions.membership` refuses a
non-finite rate or slack. `check_dim_budget(base, exponent)` refuses
base^exponent above the budget without forming or printing it.
"""

import json

import pytest

from qmap import presets, protocols
from qmap.cli import main
from qmap.presets import resolve_state_spec
from qmap.protocols import BudgetError, check_dim_budget
from qmap.regions import membership, region_tables

BELL = {"preset": {"name": "bell"}}
BELL_MATRIX = [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]], [[0, 0]] * 4, [[0, 0]] * 4,
               [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]


def explicit(*layout, receiver="B"):
    return {"layout": list(layout), "matrix": BELL_MATRIX, "senders": ["A1"],
            "receiver": [receiver]}


CODE = {"rates": [1], "splits": {"c": [1], "d": [0]}, "family": "pauli"}


def run(tmp_path, command, spec, config, *extra):
    spec_path, config_path = tmp_path / "spec.json", tmp_path / "config.json"
    spec_path.write_text(json.dumps(spec))
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(config_path), "--out", str(out), *extra]
    if spec is not None:
        argv += ["--spec", str(spec_path)]
    return main(argv), out


WRONG_KIND = [
    ("counterexample-a-string", "verify-lemmas", None,
     {"counterexample": "false", "sizes": [2], "states_per_size": 1, "union_trials": 1},
     "$.counterexample"),
    ("counterexample-a-number", "verify-lemmas", None,
     {"counterexample": 0, "sizes": [2], "states_per_size": 1, "union_trials": 1},
     "$.counterexample"),
    ("n-a-fraction", "simulate-code", BELL, {**CODE, "n": 2.7}, "$.n"),
    ("n-a-boolean", "simulate-code", BELL, {**CODE, "n": True}, "$.n"),
    ("n-a-string", "simulate-code", BELL, {**CODE, "n": "2"}, "$.n"),
    ("trials-a-boolean", "simulate-randomization", BELL,
     {"block_sizes": [2], "trials": True}, "$.trials"),
    ("rates-nan", "check", BELL, {"rates": [float("nan")]}, "$.rates"),
    ("rates-infinite", "check", BELL, {"rates": [float("inf")]}, "$.rates"),
    ("rates-a-boolean", "check", BELL, {"rates": [True]}, "$.rates"),
    ("slack-nan", "check", BELL, {"rates": [0.5], "slack": float("nan")}, "$.slack"),
    ("slack-a-string", "check", BELL, {"rates": [0.5], "slack": "nan"}, "$.slack"),
    ("splits-nan", "simulate-code", BELL,
     {**CODE, "splits": {"c": [float("nan")], "d": [0]}}, "$.splits.c"),
    ("family-a-number", "simulate-code", BELL, {**CODE, "family": 5}, "$.family"),
    ("parties-a-fraction", "region", {"preset": {"name": "ghz", "params": {"parties": 3.5}}},
     {}, "$.preset.params.parties"),
    ("werner-p-a-string", "region", {"preset": {"name": "werner", "params": {"p": "0.5"}}},
     {}, "$.preset.params.p"),
    ("layout-dim-a-fraction", "region", explicit(["A1", 2.5], ["B", 2]), {}, "$.layout"),
    ("layout-dim-a-string", "region", explicit(["A1", 2], ["B", "2"]), {}, "$.layout"),
    ("layout-label-a-number", "region", explicit(["A1", 2], [5, 2], receiver="5"), {},
     "$.layout"),
]


@pytest.mark.parametrize("command, spec, config, path", [case[1:] for case in WRONG_KIND],
                         ids=[case[0] for case in WRONG_KIND])
def test_value_of_the_wrong_kind_exits_2_at_its_path(tmp_path, capsys, command, spec,
                                                     config, path):
    code, out = run(tmp_path, command, spec, config, "--seed", "0")
    assert code == 2
    assert f"error: {path}: " in capsys.readouterr().err
    assert not out.exists()


def test_counterexample_is_read_before_the_suites_run(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the suites ran")

    monkeypatch.setattr(protocols, "lemma_suites", forbidden)
    code, out = run(tmp_path, "verify-lemmas", None, {"counterexample": "false"})
    assert code == 2
    assert "error: $.counterexample: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"rates": [0], "slack": 0},  # an integer is a number
    {"rates": [1.5], "slack": 1e-9},
])
def test_numbers_of_either_json_type_are_read(tmp_path, config):
    code, out = run(tmp_path, "check", BELL, config)
    assert code == 0
    report = json.loads((out / "check.json").read_text())
    assert report["rates"] == [float(r) for r in config["rates"]]


@pytest.mark.parametrize("rates, slack", [
    ([float("nan")], 1e-9), ([float("-inf")], 1e-9), ([0.5], float("nan")),
    ([0.5], float("inf")),
])
def test_membership_refuses_non_finite_input(rates, slack):
    spec = resolve_state_spec(BELL)
    _, _, region = region_tables(spec.state, spec.senders, spec.receiver, spec.eavesdropper)
    with pytest.raises(ValueError, match="must be finite"):
        membership(region, rates, slack)


@pytest.mark.parametrize("command, spec, config", [
    ("region", {"preset": {"name": "ghz", "params": {"parties": 100_000_000}}}, {}),
    ("simulate-code", BELL, {**CODE, "n": 100_000_000}),
], ids=["ghz-parties", "simulate-code-n"])
def test_huge_exponent_exits_4(tmp_path, capsys, monkeypatch, command, spec, config):
    monkeypatch.delenv("QMAP_BUDGET_QUBITS", raising=False)
    monkeypatch.setattr(presets, "ghz_state", None)  # refused before it is built
    code, out = run(tmp_path, command, spec, config, "--seed", "0")
    assert code == 4
    assert "exceeds budget 4096" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, refused", [
    ((4096,), False), ((8192,), True), ((4, 6), False), ((4, 7), True), ((1, 10 ** 9), False),
    ((2, 10 ** 4000), True), ((10 ** 5000, 1), True), ((10 ** 5000, 0), False),
])
def test_budget_check_on_base_and_exponent(monkeypatch, args, refused):
    monkeypatch.delenv("QMAP_BUDGET_QUBITS", raising=False)
    if not refused:
        check_dim_budget(*args)
        return
    with pytest.raises(BudgetError, match="exceeds budget 4096$"):
        check_dim_budget(*args)


def test_refused_dimension_is_printed_when_it_fits(monkeypatch):
    monkeypatch.setenv("QMAP_BUDGET_QUBITS", "2")
    with pytest.raises(BudgetError, match="^total dimension 16 exceeds budget 4$"):
        check_dim_budget(4, 2)
