"""Communication-qubit resource tracking.

Every remote communication (one Cat-Comm invocation or one qubit
teleportation) occupies one communication qubit on each of the two nodes
involved for the duration of the protocol.  With only two communication
qubits per node (the paper's near-term assumption), at most two remote
communications can be in flight at any node simultaneously.

:class:`CommResourceTracker` keeps, per node, the set of busy time intervals
on each communication qubit and answers "when is the earliest time at or
after ``t`` when this node has a free communication qubit for ``duration``
time units?".  The block scheduler in :mod:`repro.core.scheduling` and the
baseline schedulers both build on it, so the resource constraint is applied
identically to every compiler being compared.

Bookings on one slot never overlap, so their ends are non-decreasing in
start order; each slot keeps that list of ends, and a query at time ``t``
skips with one bisection every booking that ends at or before ``t``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .network import QuantumNetwork

__all__ = ["CommResourceTracker", "Reservation", "SlotSchedule"]


class SlotSchedule:
    """Busy-interval bookkeeping across ``num_slots`` identical slots.

    The generic core of :class:`CommResourceTracker` (one instance per node's
    communication qubits); the execution simulator reuses it for per-link
    EPR-generation contention queues.

    Invariant: ``ends[slot]`` lists the ends of ``intervals[slot]`` in the
    same order and is itself sorted.  :meth:`book` only accepts ``[s, e)``
    when no booked ``[s', e')`` has ``s' < e`` and ``s < e'``, so of two
    bookings one ends at or before the other starts (a zero-length booking
    may tie at the other's start), and ends cannot decrease in start order.
    Every query bisects ``ends`` to start past the bookings that end at or
    before its own start, so it costs O(log n) plus the bookings it has to
    step over.
    """

    def __init__(self, num_slots: int) -> None:
        if num_slots <= 0:
            raise ValueError("a slot schedule needs at least one slot")
        # intervals[slot] = sorted list of (start, end) busy windows;
        # ends[slot] = their ends, in the same (also sorted) order.
        self.intervals: List[List[Tuple[float, float]]] = [
            [] for _ in range(num_slots)]
        self.ends: List[List[float]] = [[] for _ in range(num_slots)]

    @property
    def num_slots(self) -> int:
        return len(self.intervals)

    def slot_free(self, slot: int, start: float, end: float) -> bool:
        """True when ``slot`` is idle over ``[start, end)``."""
        return self._free_index(slot, start, end) is not None

    def _free_index(self, slot: int, start: float,
                    end: float) -> Optional[int]:
        """Position of ``[start, end)`` in ``slot``'s booking order, or
        ``None`` when it overlaps a booking.

        Only the first booking ending after ``start`` can overlap: the ones
        before it end at or before ``start``, the ones after it start no
        earlier than it does.  A free window sorts right before it.
        """
        index = bisect_right(self.ends[slot], start)
        intervals = self.intervals[slot]
        if index < len(intervals) and intervals[index][0] < end:
            return None
        return index

    def earliest_on_slot(self, slot: int, duration: float,
                         not_before: float, lead: float = 0.0) -> float:
        """Earliest start whose window ``[start, (start + lead) + duration)``
        is free on ``slot``.

        A booking that ends at ``(start + lead) + duration`` must fit with
        that same sum: ``start + (lead + duration)`` can round one ulp short
        of it and admit a window that collides with the next reservation.
        The exact sum is only taken where the cheaper test already passed.
        The scan starts at the first booking ending after ``not_before``.
        """
        window = lead + duration
        start = not_before
        intervals = self.intervals[slot]
        for index in range(bisect_right(self.ends[slot], not_before),
                           len(intervals)):
            s, e = intervals[index]
            if start + window <= s and (start + lead) + duration <= s:
                return start
            if e > start:
                start = e
        return start

    def earliest(self, duration: float, not_before: float = 0.0,
                 lead: float = 0.0) -> Tuple[float, int]:
        """Earliest (start, slot) at or after ``not_before`` with room for ``duration``."""
        best_start: Optional[float] = None
        best_slot = 0
        for slot in range(self.num_slots):
            start = self.earliest_on_slot(slot, duration, not_before, lead)
            if best_start is None or start < best_start:
                best_start, best_slot = start, slot
        assert best_start is not None
        return best_start, best_slot

    def earliest_multi(self, duration: float, count: int,
                       not_before: float = 0.0) -> float:
        """Earliest start with ``count`` slots simultaneously free for ``duration``.

        Needed by the execution simulator when several EPR generations of
        one operation ride the same physical link (a fused chain revisiting
        a link, or two routed pairs sharing one).  Candidate starts are
        ``not_before`` and the ends of busy intervals after it — the only
        instants where a slot becomes free.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.num_slots:
            raise ValueError(
                f"need {count} concurrent slots but only {self.num_slots} exist")
        candidates = {not_before}
        for ends in self.ends:
            candidates.update(ends[bisect_right(ends, not_before):])
        for start in sorted(candidates):
            free = sum(1 for slot in range(self.num_slots)
                       if self.slot_free(slot, start, start + duration))
            if free >= count:
                return start
        raise RuntimeError("no feasible start found")  # pragma: no cover

    def book(self, start: float, end: float,
             slot: Optional[int] = None) -> int:
        """Mark ``[start, end)`` busy on ``slot`` (or the first free slot)."""
        if end < start:
            raise ValueError("reservation end precedes start")
        if slot is None:
            for candidate in range(self.num_slots):
                index = self._free_index(candidate, start, end)
                if index is not None:
                    slot = candidate
                    break
            else:
                raise ValueError(f"no free slot in [{start}, {end})")
        else:
            index = self._free_index(slot, start, end)
            if index is None:
                raise ValueError(f"slot {slot} is busy in [{start}, {end})")
        self.intervals[slot].insert(index, (start, end))
        self.ends[slot].insert(index, end)
        return slot

    def busy_time(self) -> float:
        """Total busy time summed over all slots."""
        return sum(e - s for slot in self.intervals for (s, e) in slot)

    def makespan(self) -> float:
        return max((ends[-1] for ends in self.ends if ends), default=0.0)


@dataclass(frozen=True)
class Reservation:
    """A booked interval on one communication qubit of one node."""

    node: int
    slot: int
    start: float
    end: float
    label: str = ""


class CommResourceTracker:
    """Interval-based occupancy tracker for communication qubits."""

    def __init__(self, network: QuantumNetwork) -> None:
        self.network = network
        self._schedules: Dict[int, SlotSchedule] = {
            node.index: SlotSchedule(node.num_comm_qubits) for node in network
        }
        self.reservations: List[Reservation] = []

    # ----------------------------------------------------------------- queries

    def slot_free(self, node: int, slot: int, start: float, end: float) -> bool:
        """True when ``slot`` of ``node`` is idle over ``[start, end)``."""
        return self._schedules[node].slot_free(slot, start, end)

    def earliest_slot(self, node: int, duration: float,
                      not_before: float = 0.0,
                      lead: float = 0.0) -> Tuple[float, int]:
        """Earliest (start, slot) at or after ``not_before`` with ``duration`` free."""
        return self._schedules[node].earliest(duration, not_before, lead)

    def earliest_joint(self, nodes: Sequence[int], duration: float,
                       not_before: float = 0.0,
                       lead: float = 0.0) -> Tuple[float, Dict[int, int]]:
        """Earliest start time when *every* node in ``nodes`` has a free slot.

        Returns the start time and the chosen slot per node.  Uses a simple
        fixed-point iteration: propose the max of per-node earliest starts,
        re-check each node at that time, repeat until stable.  ``lead`` is a
        prefix of the window (see :meth:`SlotSchedule.earliest_on_slot`).
        """
        time = not_before
        for _ in range(1000):
            slots: Dict[int, int] = {}
            proposal = time
            for node in nodes:
                start, slot = self.earliest_slot(node, duration, time, lead)
                slots[node] = slot
                proposal = max(proposal, start)
            if proposal == time:
                return time, slots
            time = proposal
        raise RuntimeError("resource search did not converge")  # pragma: no cover

    # ------------------------------------------------------------------ booking

    def reserve(self, node: int, start: float, end: float,
                slot: Optional[int] = None, label: str = "") -> Reservation:
        """Book ``[start, end)`` on a communication qubit of ``node``.

        When ``slot`` is omitted the first free slot is used.  Raises
        ``ValueError`` if no slot is free for the whole interval.
        """
        try:
            booked = self._schedules[node].book(start, end, slot=slot)
        except ValueError as exc:
            raise ValueError(f"node {node}: {exc}") from None
        reservation = Reservation(node=node, slot=booked, start=start, end=end,
                                  label=label)
        self.reservations.append(reservation)
        return reservation

    # ---------------------------------------------------------------- reporting

    def utilisation(self, node: int, horizon: Optional[float] = None) -> float:
        """Fraction of busy time across the node's communication qubits."""
        if horizon is None:
            horizon = self.makespan()
        if horizon <= 0:
            return 0.0
        schedule = self._schedules[node]
        return schedule.busy_time() / (horizon * schedule.num_slots)

    def makespan(self) -> float:
        """Latest reservation end time across the whole network."""
        return max((schedule.makespan()
                    for schedule in self._schedules.values()), default=0.0)

    def num_reservations(self) -> int:
        return len(self.reservations)
