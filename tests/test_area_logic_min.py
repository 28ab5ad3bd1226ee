"""Unit tests for the Quine–McCluskey minimiser and SOP costing."""

import hashlib
import json

import pytest

from repro.area.logic_min import (
    TruthTable,
    literal_count,
    minimize_sop,
    prime_implicants,
    sop_gate_equivalents,
)
from repro.core.controller import ControllerCapabilities
from repro.core.hardwired.synthesis import synthesize
from repro.core.microcode.controller import decoder_truth_table
from repro.core.progfsm.lower_fsm import lower_fsm_truth_table
from repro.march import library


def evaluate_cover(cover, minterm):
    """Whether the SOP cover asserts for a minterm."""
    return any((minterm & care) == (value & care) for value, care in cover)


def assert_equivalent(n_vars, ones, cover, dont_cares=()):
    ones = set(ones)
    dont_cares = set(dont_cares)
    for minterm in range(1 << n_vars):
        got = evaluate_cover(cover, minterm)
        if minterm in ones:
            assert got, f"minterm {minterm} not covered"
        elif minterm not in dont_cares:
            assert not got, f"minterm {minterm} wrongly covered"


class TestMinimize:
    def test_constant_zero(self):
        assert minimize_sop(3, []) == []

    def test_constant_one(self):
        assert minimize_sop(2, [0, 1, 2, 3]) == [(0, 0)]

    def test_constant_one_via_dont_cares(self):
        assert minimize_sop(2, [0, 3], dont_cares=[1, 2]) == [(0, 0)]

    def test_single_minterm(self):
        cover = minimize_sop(3, [5])
        assert cover == [(5, 7)]

    def test_pair_merge(self):
        # f = m0 + m1 over 2 vars -> x1'
        cover = minimize_sop(2, [0, 1])
        assert cover == [(0, 2)]

    def test_xor_needs_two_terms(self):
        cover = minimize_sop(2, [1, 2])
        assert len(cover) == 2
        assert_equivalent(2, [1, 2], cover)

    def test_classic_example(self):
        # Standard QM textbook function.
        ones = [4, 8, 10, 11, 12, 15]
        dc = [9, 14]
        cover = minimize_sop(4, ones, dc)
        assert_equivalent(4, ones, cover, dc)
        assert len(cover) <= 3

    def test_dont_cares_not_required(self):
        cover = minimize_sop(3, [0], dont_cares=[7])
        assert_equivalent(3, [0], cover, [7])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_functions_equivalent(self, seed):
        import random

        rng = random.Random(seed)
        n_vars = 5
        ones = [m for m in range(32) if rng.random() < 0.4]
        dc = [m for m in range(32) if m not in ones and rng.random() < 0.15]
        cover = minimize_sop(n_vars, ones, dc)
        assert_equivalent(n_vars, ones, cover, dc)

    def test_minimization_reduces_literals(self):
        # An 8-minterm cube should shrink to a single literal.
        ones = [m for m in range(16) if m & 1]
        cover = minimize_sop(4, ones)
        assert literal_count(cover) == 1


class TestPrimeImplicants:
    def test_full_cube(self):
        primes = prime_implicants(2, [0, 1, 2, 3])
        assert primes == [(0, 0)]

    def test_isolated_minterms_are_primes(self):
        primes = prime_implicants(2, [0, 3])
        assert (0, 3) in primes and (3, 3) in primes

    def test_zero_variables(self):
        assert prime_implicants(0, [0]) == [(0, 0)]
        assert prime_implicants(0, []) == []

    def test_empty_on_set(self):
        assert prime_implicants(3, []) == []

    def test_full_space(self):
        assert prime_implicants(3, [0, 5], dont_cares=[1, 2, 3, 4, 6, 7]) == [
            (0, 0)
        ]


#: sha256 of the JSON of ``synthesize()`` for the microcode decoder, the
#: programmable FSM's lower FSM and the six hardwired Table 1 controllers
#: (1024 words, bit-oriented, single port).  The pinned tables round the
#: gate counts; this pins every cover, term order included.
SYNTHESISED_COVERS_SHA256 = (
    "d171ae36d31f27f841a560df0175b4b766b285049b3298e67f442352d8264977"
)


def test_synthesised_covers_are_pinned():
    caps = ControllerCapabilities(n_words=1024, width=1, ports=1)
    tables = [
        ("microcode decoder", decoder_truth_table()),
        ("progfsm lower fsm", lower_fsm_truth_table()),
    ] + [
        (test.name, synthesize(test, caps).truth_table())
        for test in library.PAPER_BASELINES
    ]
    payload = json.dumps([[label, t.synthesize()] for label, t in tables])
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == SYNTHESISED_COVERS_SHA256


class TestCosting:
    def test_empty_cover_costs_nothing(self):
        assert sop_gate_equivalents({"f": []}) == 0.0

    def test_single_literal_costs_nothing_positive_polarity(self):
        # f = x0 : no gates, no inverter.
        assert sop_gate_equivalents({"f": [(1, 1)]}) == 0.0

    def test_single_complemented_literal_costs_inverter(self):
        assert sop_gate_equivalents({"f": [(0, 1)]}) == 0.5

    def test_two_literal_term(self):
        # f = x0 & x1 : one AND gate.
        assert sop_gate_equivalents({"f": [(3, 3)]}) == 1.0

    def test_or_of_two_terms(self):
        # f = x0 + x1 : one OR gate, no ANDs.
        assert sop_gate_equivalents({"f": [(1, 1), (2, 2)]}) == 1.0

    def test_shared_terms_counted_once(self):
        term = (3, 3)
        cost = sop_gate_equivalents({"f": [term], "g": [term]})
        assert cost == 1.0  # the AND is shared

    def test_shared_inverters_counted_once(self):
        covers = {"f": [(0, 1)], "g": [(0, 1), (2, 3)]}
        # inverter on x0 shared; term (2,3)=x1 & !x0 has 1 AND; g has 1 OR.
        assert sop_gate_equivalents(covers) == 0.5 + 1.0 + 1.0


class TestTruthTable:
    def test_synthesize_per_output(self):
        table = TruthTable(2, {"a": [0, 1], "b": [3]})
        covers = table.synthesize()
        assert set(covers) == {"a", "b"}
        assert_equivalent(2, [0, 1], covers["a"])
        assert_equivalent(2, [3], covers["b"])

    def test_gate_equivalents_positive(self):
        table = TruthTable(3, {"f": [1, 2, 4, 7]})  # 3-input XOR, worst case
        assert table.gate_equivalents() > 0

    def test_unreasonable_vars_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(25, {"f": []})

    def test_dont_cares_shrink_cost(self):
        dense = TruthTable(4, {"f": [5]})
        relaxed = TruthTable(4, {"f": [5]},
                             dont_cares=set(range(16)) - {5, 0})
        assert relaxed.gate_equivalents() <= dense.gate_equivalents()
