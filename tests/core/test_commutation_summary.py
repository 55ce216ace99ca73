"""Structural class summaries against the pairwise commutation loops.

:class:`~repro.ir.commutation.CommutationSummary` answers the aggregation
window's "does this gate commute with every deferred gate?" and the
dependency build's "does every gate of A commute with every gate of B?"
through per-qubit class verdicts.  The oracles below are the gate-pair
loops those layers ran before: any disagreement on a random window is a
changed compile.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.comm.blocks import CommBlock
from repro.core.scheduling import _PairwiseCommutation
from repro.ir import Gate
from repro.ir import commutation
from repro.ir.commutation import (CommutationSummary,
                                  clear_commutation_cache, commutes)

NUM_QUBITS = 4
ANGLES = [0.0, math.pi / 4, math.pi / 2, -math.pi / 2, math.pi,
          2 * math.pi, 0.3]


def _pairwise_admits(candidate, window):
    """The aggregation window's former check: every window gate that shares
    a qubit with the candidate must commute with it."""
    for qubit in candidate.qubits:
        for other in window:
            if qubit in other.qubits and not commutes(candidate, other):
                return False
    return True


def _pairwise_items_commute(gates_a, gates_b):
    """The dependency build's former check over both items' gates."""
    for gate_a in gates_a:
        for gate_b in gates_b:
            if (not gate_a.qubit_set.isdisjoint(gate_b.qubit_set)
                    and not commutes(gate_a, gate_b)):
                return False
    return True


@st.composite
def gates(draw):
    kind = draw(st.sampled_from(["1q", "1q", "2q", "2q", "2q", "3q",
                                 "measure"]))
    qubits = draw(st.permutations(range(NUM_QUBITS)))
    if kind == "1q":
        name = draw(st.sampled_from(["rz", "rx", "p", "h", "x"]))
        params = ((draw(st.sampled_from(ANGLES)),)
                  if name in ("rz", "rx", "p") else ())
        return Gate(name, qubits[:1], params)
    if kind == "2q":
        # cx in both orientations comes from the permutation.
        name = draw(st.sampled_from(["cx", "cx", "cz", "rzz", "rxx"]))
        params = ((draw(st.sampled_from(ANGLES)),)
                  if name in ("rzz", "rxx") else ())
        return Gate(name, qubits[:2], params)
    if kind == "3q":
        return Gate("ccx", qubits[:3])
    return Gate("measure", qubits[:1])


#: A window history: ("add", gate) grows it, ("ask", gate) queries it.
operations = st.lists(st.tuples(st.sampled_from(["add", "add", "ask"]),
                                gates()),
                      min_size=1, max_size=30)


class TestWindowAgainstPairwiseOracle:
    @settings(max_examples=200, deadline=None)
    @given(operations)
    def test_admits_equals_pairwise_and(self, history):
        # Queries interleave with additions, so the incremental per-qubit
        # memo is exercised across growing class lists.
        window = []
        summary = CommutationSummary(window)
        for action, gate in history:
            if action == "add":
                window.append(gate)
            else:
                assert summary.admits(gate) == \
                    _pairwise_admits(gate, window), (gate, window)

    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_verdicts_survive_a_cache_clear(self, history):
        window = []
        summary = CommutationSummary(window)
        for action, gate in history:
            clear_commutation_cache()
            if action == "add":
                window.append(gate)
            else:
                assert summary.admits(gate) == _pairwise_admits(gate, window)


class TestItemPairsAgainstPairwiseOracle:
    @staticmethod
    def _block(gate_list):
        block = CommBlock(hub_qubit=0, hub_node=0, remote_node=1)
        block.extend(gate_list)
        return block

    @settings(max_examples=200, deadline=None)
    @given(st.lists(gates(), min_size=1, max_size=12),
           st.lists(gates(), min_size=1, max_size=12))
    def test_block_pair_equals_pairwise_and(self, gates_a, gates_b):
        expected = _pairwise_items_commute(gates_a, gates_b)
        oracle = _PairwiseCommutation()
        a, b = self._block(gates_a), self._block(gates_b)
        assert oracle.items_commute(a, b) == expected
        assert oracle.items_commute(b, a) == expected
        assert (CommutationSummary(gates_a).commutes_with(
            CommutationSummary(gates_b)) == expected)

    @settings(max_examples=100, deadline=None)
    @given(gates(), st.lists(gates(), min_size=1, max_size=12))
    def test_gate_item_against_block(self, gate, gate_list):
        expected = _pairwise_items_commute([gate], gate_list)
        oracle = _PairwiseCommutation()
        assert oracle.items_commute(gate, self._block(gate_list)) == expected


class TestExactCorrections:
    """Cases where a class verdict alone would answer wrongly."""

    def test_double_overlap_commutes_although_single_overlap_does_not(self):
        # ZZ and XX commute on the same pair but not across one qubit.
        rzz, rxx = Gate("rzz", (0, 1), (0.3,)), Gate("rxx", (0, 1), (0.3,))
        assert commutes(rzz, rxx)
        assert not commutes(rzz, Gate("rxx", (1, 2), (0.3,)))
        window = [rxx]
        summary = CommutationSummary(window)
        assert summary.admits(rzz)
        window.append(Gate("rxx", (1, 2), (0.3,)))
        assert not summary.admits(rzz)

    def test_double_overlap_that_fails_is_caught(self):
        # Control/target swapped on the same pair: a two-qubit overlap.
        summary = CommutationSummary([Gate("cx", (1, 0))])
        assert not summary.admits(Gate("cx", (0, 1)))
        assert summary.admits(Gate("cx", (1, 0)))

    def test_opaque_gates_block_every_overlap(self):
        summary = CommutationSummary([Gate("measure", (2,))])
        assert not summary.admits(Gate("rz", (2,), (0.5,)))
        assert summary.admits(Gate("rz", (1,), (0.5,)))
        assert not CommutationSummary([Gate("h", (2,))]).admits(
            Gate("measure", (2,)))

    def test_block_pair_with_shared_qubit_pair(self):
        a = CommutationSummary([Gate("rzz", (0, 1), (0.3,))])
        gates_b = [Gate("rxx", (1, 0), (0.3,))]
        b = CommutationSummary(gates_b)
        assert a.commutes_with(b)
        gates_b.append(Gate("rx", (0,), (0.3,)))
        assert not a.commutes_with(b)


class TestClassMemo:
    def test_cleared_with_the_commutation_cache(self):
        clear_commutation_cache()
        summary = CommutationSummary([Gate("cx", (0, 1))])
        assert summary.admits(Gate("rz", (0,), (0.5,)))
        assert commutation._CLASS_VERDICTS
        clear_commutation_cache()
        assert not commutation._CLASS_VERDICTS

    def test_memo_follows_the_cache_switch(self):
        clear_commutation_cache()
        previous = commutation.set_commutation_cache_enabled(False)
        try:
            summary = CommutationSummary([Gate("cx", (0, 1))])
            assert summary.admits(Gate("rz", (0,), (0.5,)))
            assert not summary.admits(Gate("rz", (1,), (0.5,)))
            assert not commutation._CLASS_VERDICTS
        finally:
            commutation.set_commutation_cache_enabled(previous)
