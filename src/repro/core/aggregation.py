"""Communication aggregation pass (Section 4.2 of the paper).

The pass rewrites a distributed circuit so that remote two-qubit gates
between one qubit (the *hub*) and one node are grouped into contiguous
*burst communication blocks*.  Grouping is only allowed when justified by
gate commutation, so the rewritten program is always semantically equivalent
to the input (``AggregationResult.to_circuit()`` flattens the result back to
a plain circuit, which the tests check against the original by simulation).

The implementation folds the paper's three steps into one sweep per
qubit-node pair, processed in descending order of remote-gate count
(preprocessing), with commutation-based deferral of intervening gates
(linear merge, Algorithm 1) and repeated rounds until no block grows
(iterative refinement):

* gates allowed inside a block (single-qubit gates on the hub, local gates
  confined to the remote node) are absorbed in place;
* any other intervening gate is *deferred* past the block when it commutes
  with every gate already in the block, mirroring Algorithm 1's
  ``non_commute_gates`` bookkeeping;
* a gate that can neither be absorbed nor deferred closes the block, which
  is the paper's "break" case.

A sweep never reorders surviving items: it removes the gates it absorbs
and puts each new block in the slot of its first gate, before the deferred
items and the closing item.  So the pass edits one stable slot list, and a
sweep visits only its *windows* (a block's first gate up to the item that
closes it) instead of copying the whole program once per pair.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from ..comm.blocks import CommBlock
from ..ir.circuit import Circuit
from ..ir.commutation import (CommutationSummary, commutation_cache_stats,
                               commutes)
from ..ir.gates import Gate
from ..obs.span import stage
from ..partition.mapping import QubitMapping

__all__ = ["AggregationResult", "aggregate_communications", "CommAggregator"]

#: Items of the rewritten program: plain gates or burst blocks.
ScheduleItem = Union[Gate, CommBlock]

#: Operations that can never live in, commute past, or defer around a block.
_BLOCKING_NAMES = frozenset({"barrier", "measure", "reset"})


@dataclass
class AggregationResult:
    """Output of the aggregation pass."""

    circuit: Circuit
    mapping: QubitMapping
    items: List[ScheduleItem]
    blocks: List[CommBlock]

    def to_circuit(self) -> Circuit:
        """Flatten the aggregated program back into a plain circuit.

        The result is a commutation-justified reordering of the input
        circuit; it is used by the verification tests and by downstream
        passes that need a gate-level view.
        """
        out = Circuit(self.circuit.num_qubits, name=f"{self.circuit.name}-aggregated")
        for item in self.items:
            if isinstance(item, CommBlock):
                out.extend(item.gates)
            else:
                out.append(item)
        return out

    def num_blocks(self) -> int:
        return len(self.blocks)

    def remote_gates_in_blocks(self) -> int:
        return sum(b.num_remote_gates(self.mapping) for b in self.blocks)

    def block_sizes(self) -> List[int]:
        """Remote-gate count per block (the burst sizes)."""
        return [b.num_remote_gates(self.mapping) for b in self.blocks]


class CommAggregator:
    """Implements the aggregation pass over one circuit and mapping.

    Slot *i* starts as gate *i*; ``_next`` links skip absorbed gates and a
    block takes over the slot of its first gate, so the item list is built
    once, after the last sweep.  ``_pair_slots`` holds each directed (hub,
    remote node) pair's raw remote gate slots in order; its lengths are the
    histogram that orders the pairs.  A sweep jumps to the pair's first raw
    gate and walks ``_next`` until the block closes, repeating until the
    pair has none left, so it costs its windows, not the program.

    The output is identical to the original scanning implementation kept in
    :mod:`repro.core.aggregation_reference`; the equivalence tests diff them.
    """

    def __init__(self, circuit: Circuit, mapping: QubitMapping,
                 use_commutation: bool = True, max_sweeps: int = 3) -> None:
        if circuit.num_qubits != mapping.num_qubits:
            raise ValueError("circuit and mapping disagree on qubit count")
        self.circuit = circuit
        self.mapping = mapping
        self.use_commutation = use_commutation
        self.max_sweeps = max_sweeps
        #: node index per program qubit (dense list; mapping covers 0..n-1).
        self._node: List[int] = [mapping.node_of(q)
                                 for q in range(circuit.num_qubits)]
        # Filled by run(): slots and forward links (len(_slots) ends the
        # list), each raw remote gate slot's two (hub, remote-node) pairs,
        # the per-pair slot index, and the number of blocks created.
        self._slots: List[ScheduleItem] = []
        self._next: List[int] = []
        self._slot_pairs: List[Optional[Tuple[Tuple[int, int], ...]]] = []
        self._pair_slots: Dict[Tuple[int, int], List[int]] = {}
        self._blocks_made = 0

    # ------------------------------------------------------------------ public

    def run(self) -> AggregationResult:
        self._build_index()
        previous_block_count = -1
        for _ in range(self.max_sweeps):
            for pair in self._pairs_by_weight_indexed():
                if self._pair_slots[pair]:
                    self._aggregate_pair(pair)
            if (not any(self._pair_slots.values())
                    or self._blocks_made == previous_block_count):
                break
            previous_block_count = self._blocks_made
        items = self._blockify_leftovers(self._live_items())
        blocks = [item for item in items if isinstance(item, CommBlock)]
        return AggregationResult(self.circuit, self.mapping, items, blocks)

    # -------------------------------------------------------------- the index

    def _build_index(self) -> None:
        """Lay out one slot per gate and index the raw remote gates by pair.

        A remote two-qubit gate on qubits ``(a, b)`` is eligible for exactly
        the two directed pairs ``(a, node(b))`` and ``(b, node(a))``; its
        slot is recorded under both, so eligibility during a pair sweep is
        one list lookup.
        """
        node = self._node
        self._slots = list(self.circuit.gates)
        count = len(self._slots)
        self._next = list(range(1, count + 1))
        slot_pairs = self._slot_pairs = [None] * count
        pair_slots = self._pair_slots = {}
        self._blocks_made = 0
        for slot, item in enumerate(self._slots):
            if self._is_remote_2q(item):
                a, b = item.qubits
                pair_a = (a, node[b])
                pair_b = (b, node[a])
                slot_pairs[slot] = (pair_a, pair_b)
                pair_slots.setdefault(pair_a, []).append(slot)
                pair_slots.setdefault(pair_b, []).append(slot)

    def _pairs_by_weight_indexed(self) -> List[Tuple[int, int]]:
        """Pairs with raw gates left, by descending count, then by pair."""
        index = self._pair_slots
        return sorted((pair for pair, slots in index.items() if slots),
                      key=lambda pair: (-len(index[pair]), pair))

    def _absorb_into_block(self, slot: int) -> None:
        """Drop the raw remote gate in ``slot`` from both of its pairs."""
        pair_slots = self._pair_slots
        for pair in self._slot_pairs[slot]:
            slots = pair_slots[pair]
            del slots[bisect_left(slots, slot)]
        self._slot_pairs[slot] = None

    def _live_items(self) -> List[ScheduleItem]:
        """The items of the linked slots, in program order."""
        slots, nxt = self._slots, self._next
        items: List[ScheduleItem] = []
        slot = 0
        while slot < len(slots):
            items.append(slots[slot])
            slot = nxt[slot]
        return items

    def _is_remote_2q(self, gate: Gate) -> bool:
        return gate.is_two_qubit and self.mapping.is_remote(gate)

    # --------------------------------------------------------- per-pair sweep

    def _aggregate_pair(self, pair: Tuple[int, int]) -> None:
        hub, remote_node = pair
        hub_node = self._node[hub]
        remote_qubits = frozenset(self.mapping.qubits_on(remote_node))
        slots, nxt, slot_pairs = self._slots, self._next, self._slot_pairs
        pending = self._pair_slots[pair]
        end = len(slots)

        block: Optional[CommBlock] = None
        # The open block's gates and the deferred items' gates, summarised
        # per qubit by structural class: a single-gate candidate is checked
        # against a window in the number of classes added since its last
        # query, not in the window's length (CommutationSummary).  The
        # block summary follows the open block's gate list, the deferred
        # one a flat list of the deferred items' gates.
        block_summary: Optional[CommutationSummary] = None
        deferred: List[ScheduleItem] = []
        deferred_gates: List[Gate] = []
        deferred_summary = CommutationSummary(deferred_gates)
        # Deferred item indices per qubit, for block candidates only; built
        # up to ``indexed`` items when one asks.
        deferred_by_qubit: Dict[int, List[int]] = defaultdict(list)
        indexed = 0

        def close_block() -> None:
            nonlocal block, deferred, deferred_by_qubit, indexed, \
                block_summary, deferred_gates, deferred_summary
            block = None
            block_summary = None
            deferred = []
            deferred_gates = []
            deferred_summary = CommutationSummary(deferred_gates)
            deferred_by_qubit = defaultdict(list)
            indexed = 0

        def check_against_deferred(gate: Gate, checked: Set[int]) -> bool:
            # ``checked`` is shared across a multi-gate candidate: each
            # deferred item is tested against the first candidate gate that
            # reaches it, exactly as the original implementation did.
            for qubit in gate.qubits:
                for index in deferred_by_qubit.get(qubit, ()):
                    if index in checked:
                        continue
                    checked.add(index)
                    other = deferred[index]
                    other_gates = (other.gates if isinstance(other, CommBlock)
                                   else (other,))
                    for other_gate in other_gates:
                        if not commutes(gate, other_gate):
                            return False
            return True

        def commutes_with_deferred(candidate: ScheduleItem) -> bool:
            nonlocal indexed
            if not deferred:
                return True
            if isinstance(candidate, CommBlock):
                for index in range(indexed, len(deferred)):
                    for qubit in item_qubits(deferred[index]):
                        deferred_by_qubit[qubit].append(index)
                indexed = len(deferred)
                checked: Set[int] = set()
                for gate in candidate.gates:
                    if not check_against_deferred(gate, checked):
                        return False
                return True
            return deferred_summary.admits(candidate)

        def commutes_with_block(candidate: ScheduleItem) -> bool:
            if isinstance(candidate, CommBlock):
                for gate in candidate.gates:
                    if (gate.name in _BLOCKING_NAMES
                            or not block_summary.admits(gate)):
                        return False
                return True
            return (candidate.name not in _BLOCKING_NAMES
                    and block_summary.admits(candidate))

        def defer(item: ScheduleItem) -> None:
            deferred.append(item)
            if isinstance(item, CommBlock):
                deferred_gates.extend(item.gates)
            else:
                deferred_gates.append(item)

        def item_qubits(candidate: ScheduleItem):
            if isinstance(candidate, CommBlock):
                return candidate.touched_set
            return candidate.qubit_set

        # ``slot`` walks the open window; ``last_live`` is the nearest
        # linked slot before it, whose link skips every absorbed gate.
        slot = last_live = end
        while True:
            if block is None:
                # Between windows nothing changes: jump to the pair's next
                # raw gate (every earlier one is already absorbed).
                if not pending:
                    return
                slot = pending[0]
            elif slot == end:
                return
            item = slots[slot]
            following = nxt[slot]
            # Eligibility (a raw remote 2q gate of this exact pair) is one
            # indexed lookup; gates already inside blocks are not linked.
            eligible_pairs = slot_pairs[slot]
            if eligible_pairs is not None and pair in eligible_pairs:
                # Pulling this gate into the open block hops it over every
                # deferred item, so that move must be commutation-justified.
                if block is not None and deferred and not (
                        self.use_commutation and commutes_with_deferred(item)):
                    close_block()
                self._absorb_into_block(slot)
                if block is None:
                    block = CommBlock(hub_qubit=hub, hub_node=hub_node,
                                      remote_node=remote_node)
                    block_summary = CommutationSummary(block.gates)
                    slots[slot] = block
                    self._blocks_made += 1
                    last_live = slot
                else:
                    nxt[last_live] = following
                block.append(item)
            elif self._allowed_in_block(item, hub, remote_qubits):
                # Absorbing keeps the gate at its original position relative
                # to the block; it only reorders against deferred items.
                if not deferred or (self.use_commutation
                                    and commutes_with_deferred(item)):
                    block.append(item)
                    nxt[last_live] = following
                elif self.use_commutation:
                    defer(item)
                    last_live = slot
                else:
                    close_block()
            elif self.use_commutation and (
                    block.touched_set.isdisjoint(item_qubits(item))
                    or commutes_with_block(item)) \
                    and commutes_with_deferred(item):
                defer(item)
                last_live = slot
            else:
                close_block()
            slot = following

    def _allowed_in_block(self, item: ScheduleItem, hub: int,
                          remote_qubits: Set[int]) -> bool:
        """May ``item`` live inside a block for (hub, remote node)?

        Allowed content: single-qubit gates on the hub (they run on the hub
        or on its cat copy), and local gates entirely on the remote node's
        qubits (they run at the remote node while the communication is live).

        Absorbing a hub-side gate into the communication window is only
        sound because we know how it commutes with the remote gates, so in
        the commutation-free ablation (Figure 17a) only partner-side gates
        may be absorbed.
        """
        if not isinstance(item, Gate):
            return False
        if item.name in _BLOCKING_NAMES:
            return False
        if item._is_single and item.qubits[0] == hub:
            return self.use_commutation
        return bool(item.qubits) and item._qubit_set <= remote_qubits

    # ------------------------------------------------------------- leftovers

    def _blockify_leftovers(self, items: List[ScheduleItem]) -> List[ScheduleItem]:
        """Wrap every remaining raw remote two-qubit gate in a singleton block."""
        out: List[ScheduleItem] = []
        for item in items:
            if isinstance(item, Gate) and self._is_remote_2q(item):
                a, b = item.qubits
                block = CommBlock(hub_qubit=a,
                                  hub_node=self.mapping.node_of(a),
                                  remote_node=self.mapping.node_of(b))
                block.append(item)
                out.append(block)
            else:
                out.append(item)
        return out


def aggregate_communications(circuit: Circuit, mapping: QubitMapping,
                             use_commutation: bool = True,
                             max_sweeps: int = 3) -> AggregationResult:
    """Run the communication aggregation pass.

    Args:
        circuit: input circuit, ideally already decomposed to the CX basis.
        mapping: static qubit-to-node assignment.
        use_commutation: disable to reproduce the "no commutation" ablation of
            Figure 17(a) (blocks are then only formed from physically adjacent
            remote gates).
        max_sweeps: maximum number of refinement sweeps over all pairs.

    Under an active :mod:`repro.obs` tracer the pass runs inside an
    ``aggregation`` span carrying block/item counts and the commutation
    oracle's cache activity for this pass (hit/miss deltas).
    """
    with stage("aggregation") as span:
        if not span.enabled:
            return CommAggregator(circuit, mapping,
                                  use_commutation=use_commutation,
                                  max_sweeps=max_sweeps).run()
        before = commutation_cache_stats()
        result = CommAggregator(circuit, mapping,
                                use_commutation=use_commutation,
                                max_sweeps=max_sweeps).run()
        after = commutation_cache_stats()
        span.set("gates", len(circuit))
        span.set("blocks", len(result.blocks))
        span.set("items", len(result.items))
        span.set("commutation_hits", after["hits"] - before["hits"])
        span.set("commutation_misses", after["misses"] - before["misses"])
        return result
