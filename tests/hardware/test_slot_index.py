"""The indexed :class:`SlotSchedule` against a linear-scan oracle.

``SlotSchedule`` bisects a sorted list of booking ends to skip every
booking that ends at or before a query's start.  The oracle below answers
the same queries by scanning every booking of a slot, as the schedule did
before it was indexed; both must agree on every answer and on which
bookings they accept.
"""

from bisect import insort
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import SlotSchedule

# The floats of tests/core/test_comm_booking.py (seed-123 QAOA-200 compile):
# ``PREP_START + (PREP + DURATION) == BUSY_FROM`` but the booked end
# ``(PREP_START + PREP) + DURATION`` is one ulp past it.
PREP_START = 110.10000000000001
PREP = 24.0
DURATION = 15.399999999999999
BUSY_FROM = 149.5


class LinearSlotSchedule:
    """Scans every booking of a slot on every query."""

    def __init__(self, num_slots: int) -> None:
        self.intervals: List[List[Tuple[float, float]]] = [
            [] for _ in range(num_slots)]

    @property
    def num_slots(self) -> int:
        return len(self.intervals)

    def slot_free(self, slot: int, start: float, end: float) -> bool:
        for (s, e) in self.intervals[slot]:
            if s < end and start < e:
                return False
        return True

    def earliest_on_slot(self, slot: int, duration: float,
                         not_before: float, lead: float = 0.0) -> float:
        window = lead + duration
        start = not_before
        for (s, e) in self.intervals[slot]:
            if start + window <= s and (start + lead) + duration <= s:
                return start
            if e > start:
                start = e
        return start

    def earliest(self, duration: float, not_before: float = 0.0,
                 lead: float = 0.0) -> Tuple[float, int]:
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
        candidates = {not_before}
        candidates.update(e for slot in self.intervals for (_, e) in slot
                          if e > not_before)
        for start in sorted(candidates):
            free = sum(1 for slot in range(self.num_slots)
                       if self.slot_free(slot, start, start + duration))
            if free >= count:
                return start
        raise RuntimeError("no feasible start found")

    def book(self, start: float, end: float,
             slot: Optional[int] = None) -> int:
        if end < start:
            raise ValueError("reservation end precedes start")
        if slot is None:
            for candidate in range(self.num_slots):
                if self.slot_free(candidate, start, end):
                    slot = candidate
                    break
            else:
                raise ValueError("no free slot")
        elif not self.slot_free(slot, start, end):
            raise ValueError("slot busy")
        insort(self.intervals[slot], (start, end))
        return slot

    def makespan(self) -> float:
        return max((e for slot in self.intervals for (_, e) in slot),
                   default=0.0)


# Times mostly on a coarse grid, so that bookings touch, nest and repeat,
# plus the seed-123 floats and a few arbitrary ones.
times = st.one_of(
    st.integers(0, 24).map(lambda k: k / 2.0),
    st.sampled_from([PREP_START, BUSY_FROM, PREP_START + PREP,
                     (PREP_START + PREP) + DURATION, 300.0]),
    st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
)
lengths = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.5, PREP, DURATION,
                     PREP + DURATION]),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)
bookings = st.tuples(times, lengths, st.one_of(st.none(), st.integers(0, 2)))
queries = st.tuples(times, lengths, st.sampled_from([0.0, 0.5, PREP]))


def _book(schedule, start, length, slot):
    try:
        return schedule.book(start, start + length, slot=slot)
    except ValueError:
        return "rejected"


def _assert_same_answers(indexed, oracle, query_list):
    assert indexed.intervals == oracle.intervals
    assert indexed.makespan() == oracle.makespan()
    for start, length, lead in query_list:
        for slot in range(oracle.num_slots):
            for end in (start, start + length):
                assert indexed.slot_free(slot, start, end) == \
                    oracle.slot_free(slot, start, end)
            assert indexed.earliest_on_slot(slot, length, start, lead) == \
                oracle.earliest_on_slot(slot, length, start, lead)
        assert indexed.earliest(length, start, lead) == \
            oracle.earliest(length, start, lead)
        for count in range(1, oracle.num_slots + 1):
            assert indexed.earliest_multi(length, count, start) == \
                oracle.earliest_multi(length, count, start)


@settings(max_examples=300, deadline=None)
@given(num_slots=st.integers(1, 3),
       booking_list=st.lists(bookings, max_size=14),
       query_list=st.lists(queries, min_size=1, max_size=6))
def test_index_matches_linear_scan(num_slots, booking_list, query_list):
    indexed = SlotSchedule(num_slots)
    oracle = LinearSlotSchedule(num_slots)
    for start, length, slot in booking_list:
        if slot is not None and slot >= num_slots:
            slot = None
        assert _book(indexed, start, length, slot) == \
            _book(oracle, start, length, slot)
        _assert_same_answers(indexed, oracle, query_list)


@settings(max_examples=100, deadline=None)
@given(booking_list=st.lists(bookings, max_size=20))
def test_ends_stay_sorted_and_parallel(booking_list):
    schedule = SlotSchedule(3)
    for start, length, slot in booking_list:
        _book(schedule, start, length, slot)
    for intervals, ends in zip(schedule.intervals, schedule.ends):
        assert ends == [e for (_, e) in intervals]
        assert ends == sorted(ends)


@pytest.mark.parametrize("lead, duration", [(0.0, PREP + DURATION),
                                            (PREP, DURATION)])
def test_seed_123_floats_match_the_oracle(lead, duration):
    indexed, oracle = SlotSchedule(1), LinearSlotSchedule(1)
    for schedule in (indexed, oracle):
        schedule.book(0.0, PREP_START)
        schedule.book(BUSY_FROM, 300.0)
    for not_before in (0.0, 51.4, PREP_START, BUSY_FROM, 300.0):
        assert indexed.earliest_on_slot(0, duration, not_before, lead) == \
            oracle.earliest_on_slot(0, duration, not_before, lead)
    end = (PREP_START + PREP) + DURATION
    assert indexed.slot_free(0, PREP_START, end) is \
        oracle.slot_free(0, PREP_START, end) is False


def test_zero_length_and_touching_bookings():
    schedule = SlotSchedule(1)
    for start, end in [(3.0, 3.0), (3.0, 7.0), (7.0, 7.0), (7.0, 7.0),
                       (7.0, 9.0)]:
        schedule.book(start, end, slot=0)
    assert schedule.ends[0] == [3.0, 7.0, 7.0, 7.0, 9.0]
    assert schedule.slot_free(0, 7.0, 7.0)
    assert schedule.slot_free(0, 9.0, 12.0)
    assert not schedule.slot_free(0, 5.0, 5.0)
    assert not schedule.slot_free(0, 6.0, 8.0)
    with pytest.raises(ValueError):
        schedule.book(5.0, 5.0, slot=0)
    assert schedule.earliest_on_slot(0, 0.0, 7.0) == 7.0
    assert schedule.earliest_on_slot(0, 1.0, 2.0) == 2.0
    assert schedule.earliest_on_slot(0, 2.0, 2.0) == 9.0
    assert schedule.earliest_on_slot(0, 1.0, 20.0) == 20.0
