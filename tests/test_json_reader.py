"""`cli._load_json` decodes with orjson and reads again with json wherever
the two could differ, so every document gives the value `json.load` gives
(same types, same float bits) or the same error, message and exit code."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap import cli
from qmap.presets import SpecError


def json_load(path, what):
    """The reader before orjson: `json.load` on the file in text mode."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SpecError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{what} is not valid JSON: {exc}") from exc


def identical(a, b) -> bool:
    """Equal values of the same types, floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)
    return a == b


def outcome(reader, path):
    try:
        return "value", reader(path, "spec")
    except ValueError as exc:
        return type(exc), str(exc)


def assert_reads_as_json(tmp_path, data: bytes):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    got, want = outcome(cli._load_json, str(path)), outcome(json_load, str(path))
    assert got[0] == want[0]
    if got[0] == "value":
        assert identical(got[1], want[1]), (got, want)
    else:
        assert got[1] == want[1]


def random_doubles(n, seed=0):
    """Finite doubles from uniformly random bit patterns."""
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)
    values = bits.view(np.float64)
    return [float(v) for v in values[np.isfinite(values)]]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1e308,
               -1e308, 1.7976931348623157e308, 2.0**63, -(2.0**63), 2.0**64, 0.1]


class TestValues:
    def test_random_bit_patterns(self, tmp_path):
        floats = random_doubles(20000)
        pairs = [list(p) for p in zip(floats[::2], floats[1::2])]
        matrix = [pairs[row:row + 100] for row in range(0, len(pairs), 100)]
        doc = {"matrix": matrix, "flat": floats, "edge": EDGE_FLOATS}
        assert_reads_as_json(tmp_path, json.dumps(doc).encode())

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                                       "1e-400", "1" + "0" * 400])
    @pytest.mark.parametrize("where", ["config", "matrix"])
    def test_tokens_json_reads_differently(self, tmp_path, token, where):
        if where == "config":
            doc = f'{{"rates": [0.5, {token}], "slack": {token}}}'
        else:
            doc = f'{{"matrix": [[[{token}, 0.0], [0, 0]], [[0, 0], [0.5, -0.0]]]}}'
        assert_reads_as_json(tmp_path, doc.encode())

    @pytest.mark.parametrize("value", [2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**65, 10**30,
                                       -(2**63), -(2**63) - 1, -(2**64), 3 * 2**70 + 1])
    def test_wide_integers(self, tmp_path, value):
        config = {"master_seed": value, "sizes": [2]}
        assert_reads_as_json(tmp_path, json.dumps(config).encode())
        spec = {"matrix": [[[0.5, 0], [value, 0]], [[0, 0], [0.5, 0]]]}
        assert_reads_as_json(tmp_path, json.dumps(spec).encode())
        nested = {"a": [{"b": [[value]]}], "c": [[[{"d": value}]]]}
        assert_reads_as_json(tmp_path, json.dumps(nested).encode())

    def test_duplicate_keys(self, tmp_path):
        assert_reads_as_json(tmp_path, b'{"n": 1, "n": 2, "m": {"x": [1], "x": 2.5}}')

    def test_lone_surrogate_escape(self, tmp_path):
        assert_reads_as_json(tmp_path, b'{"a": "\\ud800", "\\udfff": [1]}')

    @settings(max_examples=200, deadline=None)
    @given(doc=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20))
    def test_any_document(self, tmp_path_factory, doc):
        assert_reads_as_json(tmp_path_factory.mktemp("doc"), json.dumps(doc).encode())


MALFORMED = [
    b"",
    b"{",
    b'{"a": 1,}',
    b'{"a": 01}',
    b"[1, 2] x",
    b'{"a":\r\n 1,\r\n "b": }',
    b'\xef\xbb\xbf{"preset": {"name": "bell"}}',
    b'{"a": "\xff"}',
    b'{"a": "\xed\xa0\x80"}',
    b'{"a": "tab\there"}',
]


class TestErrors:
    @pytest.mark.parametrize("data", MALFORMED)
    def test_same_error(self, tmp_path, data):
        assert_reads_as_json(tmp_path, data)

    @pytest.mark.parametrize("data", MALFORMED)
    def test_same_exit_code_and_message(self, tmp_path, capsys, data):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        kind, message = outcome(json_load, str(path))
        assert kind != "value"
        assert cli.main(["region", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.json")
        assert outcome(cli._load_json, path) == outcome(json_load, path)


class TestThroughTheCli:
    def test_nan_in_the_matrix_exits_2_at_its_path(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"layout": [["A1", 2]], "senders": ["A1"], "receiver": [], '
                        '"matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
        assert cli.main(["region", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: $.matrix: " in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["spec", "config"])
    def test_unreadable_file_exits_2_naming_it(self, tmp_path, capsys, what):
        paths = {"spec": tmp_path / "spec.json", "config": tmp_path / "config.json"}
        paths["spec"].write_text('{"preset": {"name": "bell"}}')
        paths["config"].write_text('{"rates": [0.5]}')
        paths[what] = tmp_path / "a-directory"
        paths[what].mkdir()
        assert cli.main(["split", "--spec", str(paths["spec"]), "--config",
                         str(paths["config"]), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: $: {what} file cannot be read: {paths[what]}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_wide_master_seed_is_kept(self, tmp_path):
        seed = 36893488147419103232
        config = tmp_path / "config.json"
        config.write_text(f'{{"master_seed": {seed}, "sizes": [2], "states_per_size": 1, '
                          '"union_trials": 1}')
        out = tmp_path / "out"
        assert cli.main(["verify-lemmas", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "verify-lemmas.json").read_text())
        assert report["seed"] == seed and isinstance(report["seed"], int)
