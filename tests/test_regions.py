import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmap.qstate import SystemLayout, random_density
from qmap.regions import (
    RateRegion,
    SeparationError,
    SetFunction,
    chat_from_state,
    check_set_function_properties,
    contrapolymatroid_vertices,
    dcheck_from_dhat,
    dhat_from_state,
    main_region,
    mask_of,
    membership,
    polymatroid_vertices,
    rate_split,
    separate,
    subsets_of,
)
from qmap.presets import _preset


def random_five_qubit(seed):
    layout = SystemLayout(tuple(
        [("A1", 2), ("A2", 2), ("A3", 2), ("V", 2)]))
    return random_density(layout, layout.dim, seed)


class TestBitmasks:
    def test_roundtrip(self):
        for mask in range(16):
            assert mask_of(subsets_of(mask)) == mask

    def test_subsets_sorted(self):
        assert subsets_of(0b101) == (1, 3)


class TestSetFunction:
    def test_empty_set_must_be_zero(self):
        with pytest.raises(ValueError):
            SetFunction(1, (0.5, 1.0))

    def test_value_lookup(self):
        f = SetFunction(2, (0.0, 1.0, 2.0, 3.0))
        assert f.value([1]) == 1.0
        assert f.value([2]) == 2.0
        assert f.value([1, 2]) == 3.0

    def test_json_schema(self):
        f = SetFunction(2, (0.0, 1.0, 2.0, 4.0))
        obj = f.to_json()
        assert obj["z"] == 2
        assert {"subset": [1, 2], "value": 4.0} in obj["entries"]


class TestRateRegion:
    def test_bad_direction(self):
        with pytest.raises(ValueError):
            RateRegion(1, (0.0, 1.0), "<")

    def test_membership_inside_outside(self):
        r = RateRegion(2, (0.0, 2.0, 2.0, 3.0), "<=")
        assert membership(r, [1.0, 1.0], 1e-9).member
        res = membership(r, [2.5, 0.0], 1e-9)
        assert not res.member
        assert res.worst_subset == (1,)

    def test_membership_ge_direction(self):
        r = RateRegion(1, (0.0, 1.0), ">=")
        assert membership(r, [1.5], 1e-9).member
        assert not membership(r, [0.5], 1e-9).member


class TestEntropicTables:
    def test_two_bell_chat(self):
        spec = _preset("two-bell", {})
        chat = chat_from_state(spec.state, spec.senders, spec.receiver)
        # each sender holds half a Bell pair: log d - S(A|rest) = 1 - (-1)
        assert abs(chat.value([1]) - 2.0) < 1e-9
        assert abs(chat.value([2]) - 2.0) < 1e-9
        assert abs(chat.value([1, 2]) - 4.0) < 1e-9

    def test_two_bell_dhat_zero(self):
        spec = _preset("two-bell", {})
        dhat = dhat_from_state(spec.state, spec.senders, ())
        # sender marginals are maximally mixed, so log d - S(A_Gamma) = 0
        for mask in range(1, 4):
            assert abs(dhat.at(mask)) < 1e-9

    def test_dcheck_complement(self):
        dhat = SetFunction(2, (0.0, 0.5, 0.25, 1.0))
        dcheck = dcheck_from_dhat(dhat, [1.0, 1.0])
        assert abs(dcheck.value([1]) - 1.5) < 1e-12
        assert abs(dcheck.value([1, 2]) - 3.0) < 1e-12

    def test_role_overlap_rejected(self):
        spec = _preset("two-bell", {})
        with pytest.raises(Exception):
            chat_from_state(spec.state, spec.senders, ("A1",))


class TestMainRegion:
    def test_superdense(self):
        spec = _preset("bell", {})
        region = main_region(spec.state, spec.senders, spec.receiver, ())
        assert abs(region.bound([1]) - 2.0) < 1e-9

    def test_product_state_all_zero(self):
        spec = _preset("product", {})
        region = main_region(spec.state, spec.senders, spec.receiver, ())
        assert abs(region.bound([1])) < 1e-9

    def test_two_bell(self):
        spec = _preset("two-bell", {})
        region = main_region(spec.state, spec.senders, spec.receiver, ())
        assert abs(region.bound([1]) - 2.0) < 1e-9
        assert abs(region.bound([2]) - 2.0) < 1e-9
        assert abs(region.bound([1, 2]) - 4.0) < 1e-9

    def test_roles_must_cover_layout(self):
        spec = _preset("two-bell", {})
        with pytest.raises(Exception):
            main_region(spec.state, spec.senders, ("B1",), ())


class TestPropertyChecks:
    def test_chat_passes_on_random_states(self):
        for seed in range(5):
            rho = random_five_qubit(seed)
            chat = chat_from_state(rho, ["A1", "A2", "A3"], ["V"])
            assert check_set_function_properties(chat, "subadditive-monotone").passed

    def test_dhat_superadditive_on_random_states(self):
        for seed in range(5):
            rho = random_five_qubit(seed)
            dhat = dhat_from_state(rho, ["A1", "A2", "A3"], ["V"])
            assert check_set_function_properties(dhat, "superadditive").passed

    def test_qutrit_sender_tables(self):
        layout = SystemLayout((("A1", 3), ("A2", 2), ("V", 2)))
        log_dims = [math.log2(3), 1.0]
        for seed in range(5):
            rho = random_density(layout, layout.dim, seed)
            chat = chat_from_state(rho, ["A1", "A2"], ["V"])
            dhat = dhat_from_state(rho, ["A1", "A2"], ["V"])
            dcheck = dcheck_from_dhat(dhat, log_dims)
            assert check_set_function_properties(chat, "subadditive-monotone").passed
            assert check_set_function_properties(dcheck, "subadditive-monotone").passed
            assert check_set_function_properties(dhat, "superadditive").passed

    def test_counterexample_fails(self):
        bad = SetFunction(2, (0.0, 1.0, 1.0, 3.0))
        report = check_set_function_properties(bad, "subadditive-monotone")
        assert not report.passed
        assert report.worst_violation < -1e-9
        assert report.worst_pair == ((1,), (2,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_set_function_properties(SetFunction(1, (0.0, 1.0)), "modular")


class TestVertices:
    def test_matroid_rank_vertices(self):
        # rank function of the uniform matroid U_{2,3}
        vals = [0.0] * 8
        for m in range(1, 8):
            vals[m] = float(min(2, bin(m).count("1")))
        f = SetFunction(3, tuple(vals))
        verts = polymatroid_vertices(f)
        # greedy gives the six 0/1 vectors with exactly two ones... and
        # permutations within equal prefixes collide, leaving 3 points
        assert sorted(verts) == [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)]

    def test_modular_function_single_vertex(self):
        vals = [0.0, 1.0, 2.0, 3.0]
        f = SetFunction(2, tuple(vals))
        assert polymatroid_vertices(f) == [(1.0, 2.0)]

    def test_vertices_satisfy_region(self):
        rho = random_five_qubit(3)
        chat = chat_from_state(rho, ["A1", "A2", "A3"], ["V"])
        region = RateRegion(chat.z_count, chat.values, "<=")
        for v in polymatroid_vertices(chat):
            assert membership(region, v, 1e-9).member

    def test_contrapolymatroid_vertices_cover_region(self):
        rho = random_five_qubit(4)
        dhat = dhat_from_state(rho, ["A1", "A2", "A3"], ["V"])
        region = RateRegion(dhat.z_count, dhat.values, ">=")
        for v in contrapolymatroid_vertices(dhat, [1.0, 1.0, 1.0]):
            assert membership(region, v, 1e-9).member

    def test_precondition_enforced(self):
        bad = SetFunction(2, (0.0, 1.0, 1.0, 3.0))
        with pytest.raises(ValueError):
            polymatroid_vertices(bad)


class TestSeparate:
    def test_sandwich_point(self):
        f = SetFunction(2, (0.0, 2.0, 2.0, 3.0))
        g = SetFunction(2, (0.0, 0.5, 0.5, 2.0))
        r = separate(f, g)
        for mask in range(1, 4):
            total = sum(r[i] for i in range(2) if mask >> i & 1)
            assert g.at(mask) - 1e-9 <= total <= f.at(mask) + 1e-9

    def test_strict_mode_positive_margins(self):
        f = SetFunction(2, (0.0, 2.0, 2.0, 3.0))
        g = SetFunction(2, (0.0, 0.5, 0.5, 2.0))
        r = separate(f, g, strict=True)
        for mask in range(1, 4):
            total = sum(r[i] for i in range(2) if mask >> i & 1)
            assert g.at(mask) < total < f.at(mask)

    def test_output_passes_membership_of_both_regions(self):
        f = SetFunction(2, (0.0, 2.0, 2.0, 3.0))
        g = SetFunction(2, (0.0, 0.5, 0.5, 2.0))
        r = separate(f, g)
        assert membership(RateRegion(2, f.values, "<="), r, 1e-9).member
        assert membership(RateRegion(2, g.values, ">="), r, 1e-9).member

    def test_violation_names_subset(self):
        f = SetFunction(2, (0.0, 2.0, 2.0, 3.0))
        g = SetFunction(2, (0.0, 0.5, 2.5, 2.0))
        with pytest.raises(SeparationError) as exc:
            separate(f, g)
        assert exc.value.subset == (2,)


class TestRateSplit:
    def _tables(self, seed):
        layout = SystemLayout((("A1", 2), ("A2", 2), ("B", 2), ("E", 2)))
        rho = random_density(layout, layout.dim, seed)
        chat = chat_from_state(rho, ["A1", "A2"], ["B", "E"])
        dhat = dhat_from_state(rho, ["A1", "A2"], ["E"])
        return chat, dhat

    def test_split_consistency(self):
        chat, dhat = self._tables(0)
        gaps = [chat.at(m) - dhat.at(m) for m in range(1, 4)]
        assert min(gaps) > 0
        r = [0.2 * min(gaps)] * 2
        c, d = self._check_split(r, chat, dhat)
        assert c[0] == d[0] + r[0] and c[1] == d[1] + r[1]

    def _check_split(self, r, chat, dhat):
        c, d = rate_split(r, chat, dhat)
        for mask in range(1, 1 << chat.z_count):
            idx = [i for i in range(chat.z_count) if mask >> i & 1]
            assert math.fsum(c[i] for i in idx) < chat.at(mask)
            assert math.fsum(d[i] for i in idx) > dhat.at(mask)
        return c, d

    def test_boundary_rates_rejected(self):
        chat, dhat = self._tables(1)
        bound = chat.value([1]) - dhat.value([1])
        with pytest.raises(SeparationError) as exc:
            rate_split([bound, 0.0], chat, dhat)
        assert exc.value.subset == (1,)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_greedy_vertices_inside_region_property(seed):
    layout = SystemLayout((("A1", 2), ("A2", 2), ("V", 2)))
    rho = random_density(layout, layout.dim, seed)
    chat = chat_from_state(rho, ["A1", "A2"], ["V"])
    region = RateRegion(chat.z_count, chat.values, "<=")
    for v in polymatroid_vertices(chat):
        assert membership(region, v, 1e-9).member
