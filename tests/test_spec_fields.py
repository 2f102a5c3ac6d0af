"""Every malformed spec field exits 2 with its JSON path, and oversized
presets are refused by the budget before their state is built.

Spec and config fields are read by one boundary reader, `presets._field`: a
value of the wrong type or shape is a SpecError naming the field, and the
command writes nothing.
"""

import json

import pytest

from qmap import presets
from qmap.cli import main

BELL_MATRIX = [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]],
               [[0, 0]] * 4,
               [[0, 0]] * 4,
               [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]
EXPLICIT = {"layout": [["A1", 2], ["B", 2]], "matrix": BELL_MATRIX,
            "senders": ["A1"], "receiver": ["B"]}


def preset(name, **params):
    return {"preset": {"name": name, "params": params}}


MALFORMED = [
    ("sender-not-a-label", {"preset": {"name": "bell"}, "senders": [5]}, "$.senders"),
    ("sender-group-with-a-number", {"preset": {"name": "two-bell"}, "senders": [["A1", 3]]},
     "$.senders"),
    ("receiver-not-a-list", {"preset": {"name": "bell"}, "receiver": 5}, "$.receiver"),
    ("receiver-with-a-number", {"preset": {"name": "bell"}, "receiver": ["B", 5]},
     "$.receiver"),
    ("eavesdropper-null", {"preset": {"name": "bell"}, "eavesdropper": None},
     "$.eavesdropper"),
    ("params-a-list", {"preset": {"name": "ghz", "params": []}}, "$.preset.params"),
    ("parties-null", preset("ghz", parties=None), "$.preset.params.parties"),
    ("probs-a-number", preset("cq", probs=0.5), "$.preset.params.probs"),
    ("werner-p-a-string", preset("werner", p="x"), "$.preset.params.p"),
    ("dim-a-a-string", preset("product", dim_a="x"), "$.preset.params.dim_a"),
    ("matrix-a-number", {**EXPLICIT, "matrix": 5}, "$.matrix"),
    ("matrix-rows-numbers", {**EXPLICIT, "matrix": [5, 5, 5, 5]}, "$.matrix[0]"),
    ("matrix-entry-an-object", {**EXPLICIT, "matrix": [[{"re": 1, "im": 0}] * 4] * 4},
     "$.matrix[0][0]"),
    # "0.5" and false would read as 0.5 and 0.0, a valid state
    ("matrix-entry-a-string", {**EXPLICIT, "matrix": [
        BELL_MATRIX[0], BELL_MATRIX[1], BELL_MATRIX[2],
        [["0.5", 0], [0, 0], [0, 0], [0.5, 0]]]}, "$.matrix[3][0]"),
    ("matrix-entry-a-boolean", {**EXPLICIT, "matrix": [
        [[0.5, 0], [0, 0], [0, False], [0.5, 0]], *BELL_MATRIX[1:]]}, "$.matrix[0][2]"),
    # an integer of 401 digits overflows a double: on the regular matrix's
    # fast path, and on the per-entry path that a NaN later in the matrix takes
    ("matrix-entry-too-large", {**EXPLICIT, "matrix": [
        BELL_MATRIX[0], [[10 ** 400, 0]] + [[0, 0]] * 3, *BELL_MATRIX[2:]]},
     "$.matrix[1][0]"),
    ("matrix-entry-too-large-before-a-nan", {**EXPLICIT, "matrix": [
        BELL_MATRIX[0], [[0, -10 ** 400]] + [[0, 0]] * 3, BELL_MATRIX[2],
        [[0.5, 0], [0, 0], [0, 0], [float("nan"), 0]]]}, "$.matrix[1][0]"),
    ("explicit-without-senders", {k: v for k, v in EXPLICIT.items() if k != "senders"},
     "$.senders"),
]


def run_region(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    return main(["region", "--spec", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("spec, path", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_field_exits_2_with_its_path(tmp_path, capsys, spec, path):
    code, out = run_region(tmp_path, spec)
    assert code == 2
    assert f"error: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, path", [
    ({"rates": "11"}, "$.rates"),  # a string is not a list of two rates
    ({"rates": {"1": 1, "2": 1}}, "$.rates"),
])
def test_list_field_must_be_a_list(tmp_path, capsys, config, path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": {"name": "two-bell"}}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["check", "--spec", str(spec), "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    preset("ghz", parties=40),  # 2^40
    preset("product", dim_a=100, dim_b=100),  # 10^4
    preset("cq", probs=[0.01] * 100),  # 100^2
], ids=["ghz", "product", "cq"])
def test_oversized_preset_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                       spec):
    def forbidden(*args, **kwargs):
        raise AssertionError("a preset state was built")

    for name in ("ghz_state", "maximally_mixed", "cq_state"):
        monkeypatch.setattr(presets, name, forbidden)
    monkeypatch.delenv("QMAP_BUDGET_QUBITS", raising=False)
    code, out = run_region(tmp_path, spec)
    assert code == 4
    assert "exceeds budget 4096" in capsys.readouterr().err
    assert not out.exists()
