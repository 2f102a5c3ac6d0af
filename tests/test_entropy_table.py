"""The region layer over one entropy table: `region_tables` against the
unshared per-subset reference path, `marginal_entropies` against
`entropy(partial_trace(...))` and its validation of each marginal, the
number of marginal entropies it evaluates, the invariant exit code, and the
vectorized matrix parser."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap import cli, protocols, regions
from qmap.presets import SpecError, _parse_matrix
from qmap.qstate import (
    DensityMatrix,
    LabelError,
    StateValidationError,
    SystemLayout,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    marginal_entropies,
    partial_trace,
    random_density,
)
from qmap.regions import (
    InvariantError,
    SetFunction,
    chat_from_state,
    dhat_from_state,
    main_region,
    polymatroid_vertices,
    region_tables,
)


def _labels(groups, mask):
    return {lab for z, g in enumerate(groups) if mask >> z & 1 for lab in g}


def reference_tables(rho, groups, b, e):
    """chat, dhat and the region bounds, one qstate call per subset."""
    z = len(groups)
    all_mask = (1 << z) - 1
    chat, dhat, bounds = [0.0] * (1 << z), [0.0] * (1 << z), [0.0] * (1 << z)
    for mask in range(1, 1 << z):
        a = _labels(groups, mask)
        rest = _labels(groups, all_mask & ~mask) | set(b)
        log_d = np.log2(rho.layout.dim_of(a))
        chat[mask] = log_d - conditional_entropy(rho, a, rest | set(e))
        dhat[mask] = log_d - conditional_entropy(rho, a, set(e))
        bounds[mask] = conditional_mutual_information(rho, a, rest, set(e))
    return chat, dhat, bounds


@st.composite
def region_cases(draw):
    """1-4 sender groups of one or two factors, B and E of zero or one factor
    each (E empty included), at most 7 qubit or qutrit factors, dim <= 144."""
    z = draw(st.integers(1, 4))
    b = ("B",) * draw(st.integers(0, 1))
    e = ("E",) * draw(st.integers(0, 1))
    spare = 7 - z - len(b) - len(e)
    groups = []
    for i in range(1, z + 1):
        pair = spare > 0 and draw(st.booleans())
        spare -= pair
        groups.append((f"A{i}a", f"A{i}b") if pair else (f"A{i}",))
    labels = [lab for g in groups for lab in g] + list(b + e)
    dims = []
    for k in range(len(labels)):
        room = int(np.prod(dims)) * 3 * 2 ** (len(labels) - k - 1) <= 144
        dims.append(draw(st.sampled_from([2, 3])) if room else 2)
    layout = SystemLayout(tuple(zip(labels, dims)))
    rank = draw(st.integers(1, layout.dim))
    seed = draw(st.integers(0, 2**32 - 1))
    rho = random_density(layout, rank, np.random.default_rng(seed))
    return rho, groups, b, e


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(case=region_cases())
    def test_region_tables(self, case):
        rho, groups, b, e = case
        chat, dhat, region = region_tables(rho, groups, b, e)
        ref_chat, ref_dhat, ref_bounds = reference_tables(rho, groups, b, e)
        assert np.max(np.abs(np.subtract(chat.values, ref_chat))) <= 1e-12
        assert np.max(np.abs(np.subtract(dhat.values, ref_dhat))) <= 1e-12
        assert np.max(np.abs(np.subtract(region.bounds, ref_bounds))) <= 1e-12
        assert region.direction == "<="
        assert main_region(rho, groups, b, e) == region

    @settings(max_examples=30, deadline=None)
    @given(case=region_cases())
    def test_standalone_tables(self, case):
        rho, groups, b, e = case
        ref_chat, ref_dhat, _ = reference_tables(rho, groups, b, e)
        chat = chat_from_state(rho, groups, b + e)
        dhat = dhat_from_state(rho, groups, e)
        assert np.max(np.abs(np.subtract(chat.values, ref_chat))) <= 1e-12
        assert np.max(np.abs(np.subtract(dhat.values, ref_dhat))) <= 1e-12

    def test_grouped_qutrit_senders_with_empty_e(self):
        layout = SystemLayout((("A1", 3), ("A2a", 2), ("A2b", 2), ("B", 3)))
        rho = random_density(layout, 5, np.random.default_rng(4))
        groups = [("A1",), ("A2a", "A2b")]
        chat, dhat, region = region_tables(rho, groups, ("B",), ())
        ref_chat, ref_dhat, ref_bounds = reference_tables(rho, groups, ("B",), ())
        assert np.max(np.abs(np.subtract(chat.values, ref_chat))) <= 1e-12
        assert np.max(np.abs(np.subtract(dhat.values, ref_dhat))) <= 1e-12
        assert np.max(np.abs(np.subtract(region.bounds, ref_bounds))) <= 1e-12


class TestMarginalEntropies:
    @settings(max_examples=60, deadline=None)
    @given(case=region_cases(), data=st.data())
    def test_against_partial_trace(self, case, data):
        rho, groups, b, e = case
        # every set a region table reads, the empty one included, and a few more
        sets = {frozenset(_labels(groups, mask)).union(x)
                for x in (b + e, e) for mask in range(1 << len(groups))}
        labels = st.sets(st.sampled_from(rho.layout.labels))
        sets |= {frozenset(data.draw(labels)) for _ in range(3)}
        got = marginal_entropies(rho, sets)
        assert set(got) == sets
        for key in sets:
            ref = entropy(partial_trace(rho, key)) if key else 0.0
            assert abs(got[key] - ref) <= 1e-12

    def test_unknown_label_is_a_label_error(self):
        rho = _qubit_state(2)[0]
        with pytest.raises(LabelError):
            marginal_entropies(rho, [("A1",), ("Z",)])


def _corrupt(rho, how):
    """rho with its matrix replaced behind the constructor's back. Entries
    (0, d/2) and (d/2, d/2) are terms of the A1 marginal's entries (0, 1)
    and (1, 1), so each fault shows in the marginal on A1."""
    d = rho.dim
    m = rho.matrix.copy()
    if how in ("nan", "inf"):
        m[0, 0] = np.nan if how == "nan" else np.inf
    elif how == "non-hermitian":
        m[0, d // 2] += 1e-3
    elif how == "trace":
        m *= 1.01
    else:  # Hermitian, unit trace, and the A1 marginal is diag(1.5, -0.5)
        m = np.zeros_like(m)
        m[0, 0], m[d // 2, d // 2] = 1.5, -0.5
    object.__setattr__(rho, "matrix", m)
    return rho


FAULTS = [("nan", "has non-finite entries"), ("inf", "has non-finite entries"),
          ("non-hermitian", "is not Hermitian"), ("trace", "has trace"),
          ("not-psd", "is not PSD")]


class TestInvalidMarginal:
    @pytest.mark.parametrize("how, message", FAULTS)
    def test_raises_naming_the_marginal(self, how, message):
        rho = _corrupt(_qubit_state(2)[0], how)
        with pytest.raises(StateValidationError,
                           match=rf"marginal on \['A1'\] {message}"):
            marginal_entropies(rho, [("A1",)])

    @pytest.mark.parametrize("how", [how for how, _ in FAULTS])
    def test_cli_exits_3(self, tmp_path, monkeypatch, capsys, how):
        spec = _spec_file(tmp_path, *_qubit_state(3))
        resolve = cli.resolve_state_spec

        def corrupted(obj):
            resolved = resolve(obj)
            _corrupt(resolved.state, how)
            return resolved

        monkeypatch.setattr(cli, "resolve_state_spec", corrupted)
        assert cli.main(["region", "--spec", spec, "--out", str(tmp_path / "out")]) == 3
        assert "error: marginal on" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _qubit_state(z, with_e=True, seed=0):
    roles = [(f"A{i}", 2) for i in range(1, z + 1)] + [("B", 2)]
    if with_e:
        roles.append(("E", 2))
    layout = SystemLayout(tuple(roles))
    rho = random_density(layout, layout.dim, np.random.default_rng([z, seed]))
    return rho, [f"A{i}" for i in range(1, z + 1)], ("B",), ("E",) if with_e else ()


@pytest.fixture
def entropy_calls(monkeypatch):
    """Label sets of every marginal whose entropy the table computes, once per
    state a call takes."""
    calls = []
    inner = regions.marginal_entropies

    def counted(rho, label_sets):
        label_sets = [frozenset(s) for s in label_sets]
        calls.extend(label_sets * (1 if isinstance(rho, DensityMatrix) else len(rho)))
        return inner(rho, label_sets)

    monkeypatch.setattr(regions, "marginal_entropies", counted)
    return calls


class TestEvaluationCount:
    @pytest.mark.parametrize("z", [1, 2, 3, 4, 5])
    def test_two_to_the_z_plus_one_with_nonempty_e(self, z, entropy_calls):
        region_tables(*_qubit_state(z))
        assert len(entropy_calls) == 2 ** (z + 1)
        assert len(set(entropy_calls)) == len(entropy_calls)

    @pytest.mark.parametrize("z", [1, 3, 5])
    def test_one_fewer_with_empty_e(self, z, entropy_calls):
        region_tables(*_qubit_state(z, with_e=False))
        assert len(entropy_calls) == 2 ** (z + 1) - 1  # S(empty set) costs nothing

    def test_each_call_builds_its_own_table(self, entropy_calls):
        case = _qubit_state(3)
        region_tables(*case)
        region_tables(*case)
        assert len(entropy_calls) == 2 * 2 ** 4

    @pytest.mark.parametrize("z", [2, 4])
    def test_chat_alone_costs_two_to_the_z(self, z, entropy_calls):
        rho, senders, b, e = _qubit_state(z)
        chat_from_state(rho, senders, b + e)
        assert len(entropy_calls) == 2 ** z


def _spec_file(tmp_path, rho, senders, b, e):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "layout": [[lab, d] for lab, d in rho.layout.factors],
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in rho.matrix],
        "senders": senders, "receiver": list(b), "eavesdropper": list(e)}))
    return str(path)


class TestInvariantExitCode:
    def test_invariant_error_is_a_value_error(self):
        assert issubclass(InvariantError, ValueError)

    def test_region_identity_fault_exits_3(self, tmp_path, monkeypatch):
        rho, senders, b, e = _qubit_state(3)
        spec = _spec_file(tmp_path, rho, senders, b, e)
        inner = regions.marginal_entropies

        # With one shared table the identity holds to rounding for any finite
        # entries, so the injected fault is a NaN entropy of the E marginal.
        def faulty(state, label_sets):
            table = inner(state, label_sets)
            table[frozenset({"E"})] = float("nan")
            return table

        monkeypatch.setattr(regions, "marginal_entropies", faulty)
        with pytest.raises(InvariantError, match="region identity"):
            region_tables(rho, senders, b, e)
        assert cli.main(["region", "--spec", spec, "--out", str(tmp_path / "out")]) == 3

    def test_unfaulted_region_exits_0(self, tmp_path):
        spec = _spec_file(tmp_path, *_qubit_state(3))
        assert cli.main(["region", "--spec", spec, "--out", str(tmp_path / "out")]) == 0

    def test_greedy_vertex_outside_region_is_invariant_error(self, monkeypatch):
        chat = chat_from_state(*_qubit_state(2)[:2], ["B", "E"])
        monkeypatch.setattr(regions, "_greedy_vertex",
                            lambda f, order: tuple(10.0 for _ in order))
        with pytest.raises(InvariantError, match="greedy vertex"):
            polymatroid_vertices(chat)

    def test_precondition_failure_stays_a_plain_value_error(self):
        bad = SetFunction(2, (0.0, 1.0, 1.0, 3.0))
        with pytest.raises(ValueError) as info:
            polymatroid_vertices(bad)
        assert not isinstance(info.value, InvariantError)


def _loop_parse(entries, dim):
    """The per-entry parse: complex(float(re), float(im)) for each pair."""
    m = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        for j, (re, im) in enumerate(row):
            m[i, j] = complex(float(re), float(im))
    return m


class TestParseMatrix:
    def test_bit_exact_with_the_loop(self):
        rng = np.random.default_rng(11)
        dim = 24
        m = (rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-300, 300, (dim, dim))
             + 1j * rng.standard_normal((dim, dim)))
        m[0, 0] = complex(-0.0, 5e-324)
        m[1, 1] = complex(0.1, -0.0)
        entries = [[[float(v.real), float(v.imag)] for v in row] for row in m]
        entries[2][2] = [3, -7]  # JSON integers
        got = _parse_matrix(entries, dim)
        assert got.dtype == complex
        assert got.tobytes() == _loop_parse(entries, dim).tobytes()

    @pytest.mark.parametrize("entries,path", [
        ([[[1, 0], [0, 0]]], "$.matrix"),
        ([[[1, 0], [0, 0]], [[0, 0]]], "$.matrix[1]"),
        ([[[1, 0], [0]], [[0, 0], [0, 0]]], "$.matrix[0][1]"),
        ([[[1, 0], [0, 0]], [[0, 0], [0, "x"]]], "$.matrix[1][1]"),
        ([[[1, 0], [None, 0]], [[0, 0], [0, 0]]], "$.matrix[0][1]"),
    ])
    def test_malformed_keeps_its_path(self, entries, path):
        with pytest.raises(SpecError) as info:
            _parse_matrix(entries, 2)
        assert info.value.path == path

    def test_nan_entry_matches_the_loop(self):
        entries = [[[float("nan"), 0], [0, 0]], [[0, 0], [0.5, -0.0]]]
        assert _parse_matrix(entries, 2).tobytes() == _loop_parse(entries, 2).tobytes()


class TestEmptyReceiverCount:
    """With B empty, V = B E and W = E coincide, so chat and dhat read the
    same 2^z marginals A_S E."""

    @pytest.mark.parametrize("z", [1, 3, 5])
    def test_two_to_the_z_with_empty_b(self, z, entropy_calls):
        rho, senders, _, e = _qubit_state(z)
        region_tables(partial_trace(rho, senders + ["E"]), senders, (), e)
        assert len(entropy_calls) == 2 ** z
        assert len(set(entropy_calls)) == len(entropy_calls)

    @pytest.mark.parametrize("suite", [protocols._lemma_structure_suite,
                                       protocols._lemma_vertices_suite])
    def test_lemma_suites_cost_two_to_the_z_per_state(self, suite, entropy_calls):
        result = suite(5, [2, 3], 2)
        assert result["passed"]
        assert len(entropy_calls) == 2 * (2 ** 2 + 2 ** 3)
