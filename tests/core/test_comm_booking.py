"""Comm-qubit windows must be searched with the end they are booked with.

A comm op books its comm qubits over ``[prep_start, (prep_start + prep) +
duration)``, the op's own end.  The search used to test the window as
``prep_start + (prep + duration)``, which can round one ulp short of that
end: it then admitted a window whose booking collides with a reservation
starting exactly there (``ValueError: no free slot``).  The floats below
are the ones a seeded QAOA-200 compile on a 20-node grid (phased,
overlapped) hit: ``[110.10000000000001, 149.5)`` looks free, but the op
ends at ``149.50000000000003``.
"""

import pytest

from repro import compile_autocomm
from repro.core.scheduling import OpProfile, _reserve_comm
from repro.hardware import (CommResourceTracker, LatencyModel, SlotSchedule,
                            uniform_network)
from repro.ir import Circuit
from repro.partition import QubitMapping
from repro.sim import SimulationConfig
from repro.sim.engine import ExecutionEngine, _mapping_for, _plan_for

PREP_START = 110.10000000000001
PREP = 24.0
DURATION = 15.399999999999999
BUSY_FROM = 149.5
BUSY_UNTIL = 300.0
READY = 51.4


def _network():
    return uniform_network(2, 1, comm_qubits_per_node=1,
                           latency=LatencyModel(t_epr=PREP))


def _occupy(resources):
    """Leave only ``[PREP_START, BUSY_FROM)`` free before ``BUSY_UNTIL``."""
    for node in (0, 1):
        resources.reserve(node, 0.0, PREP_START)
        resources.reserve(node, BUSY_FROM, BUSY_UNTIL)


def test_the_floats_round_past_the_window():
    assert PREP_START + (PREP + DURATION) == BUSY_FROM
    assert (PREP_START + PREP) + DURATION > BUSY_FROM


def test_search_checks_the_booked_end():
    schedule = SlotSchedule(1)
    schedule.book(0.0, PREP_START)
    schedule.book(BUSY_FROM, BUSY_UNTIL)
    assert schedule.earliest_on_slot(0, PREP + DURATION, 0.0) == PREP_START
    assert schedule.earliest_on_slot(0, DURATION, 0.0, lead=PREP) == \
        BUSY_UNTIL


@pytest.mark.parametrize("lead", [0.0, 1.5])
def test_search_unchanged_where_the_window_fits(lead):
    schedule = SlotSchedule(2)
    schedule.book(0.0, 10.0, slot=0)
    schedule.book(12.0, 20.0, slot=0)
    schedule.book(0.0, 4.0, slot=1)
    assert schedule.earliest(2.0 - lead, 0.0, lead=lead) == (4.0, 1)
    assert schedule.earliest(2.0 - lead, 10.0, lead=lead) == (10.0, 0)


def test_scheduler_books_a_window_that_fits():
    resources = CommResourceTracker(_network())
    _occupy(resources)
    start = _reserve_comm(resources, (0, 1), READY, DURATION, PREP, "cat-0")
    assert start == BUSY_UNTIL + PREP
    booked = resources.reservations[-2:]
    assert [(r.start, r.end) for r in booked] == \
        [(BUSY_UNTIL, start + DURATION)] * 2


def test_engine_books_a_window_that_fits():
    network = _network()
    program = compile_autocomm(Circuit(2).cx(0, 1), network,
                               mapping=QubitMapping({0: 0, 1: 1}))
    plan = _plan_for(program)
    engine = ExecutionEngine(plan, network, _mapping_for(program),
                             config=SimulationConfig(p_epr=1.0))
    _occupy(engine.resources)
    index = next(i for i, profile in enumerate(engine._profiles)
                 if profile.kind != "gate")
    profile = OpProfile(kind=engine._profiles[index].kind, duration=DURATION,
                        nodes=(0, 1), num_items=1, prep_pairs=((0, 1),))
    op = engine._execute_comm(index, plan.items[index], READY, profile,
                              kind=profile.kind)
    assert (op.prep_start, op.start) == (BUSY_UNTIL, BUSY_UNTIL + PREP)
    booked = engine.resources.reservations[-2:]
    assert [(r.start, r.end) for r in booked] == \
        [(BUSY_UNTIL, op.end)] * 2
