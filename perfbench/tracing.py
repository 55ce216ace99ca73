"""Spans for the traced run, recorded from the benchmark's own files.

The traced run wraps each layer's entry point at the module (or class)
attribute its caller looks it up through, records one span per call and
restores the originals afterwards.  The untraced run installs nothing.
Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

#: ``(owner, attribute, span name)``: where each layer's entry point is
#: bound by the code that calls it.  An owner is a module path, or a
#: module path plus ``:Class`` for a method.
LAYER_ENTRY_POINTS = (
    ("repro.ir.qasm", "from_qasm", "ir.parse"),
    ("repro.core.pipeline", "decompose_to_cx", "ir.decompose"),
    ("repro.core.pipeline", "oee_partition", "partition.oee"),
    ("repro.core.pipeline", "oee_repartition", "partition.repartition"),
    ("repro.core.pipeline", "aggregate_communications", "core.aggregation"),
    ("repro.core.pipeline", "assign_communications", "core.assignment"),
    ("repro.core.pipeline", "schedule_communications", "core.scheduling"),
    ("repro.core.pipeline", "schedule_phased_communications",
     "core.scheduling"),
    ("repro.core.scheduling", "plan_schedule", "core.plan"),
    ("repro.core.scheduling", "plan_phased_schedule", "core.plan"),
    ("repro.sim.engine", "plan_schedule", "sim.plan"),
    ("repro.sim.engine", "plan_phased_schedule", "sim.plan"),
    ("repro.sim.engine:ExecutionEngine", "run", "sim.trial"),
    ("repro.persist.fingerprint", "compile_fingerprint",
     "persist.fingerprint"),
    ("repro.persist.cache:CompileCache", "load", "persist.load"),
    ("repro.persist.cache:CompileCache", "store", "persist.store"),
    ("repro.persist.cache", "dumps_program", "persist.encode"),
    ("repro.persist.cache", "loads_program", "persist.decode"),
    ("repro.hardware", "apply_topology", "hardware.topology"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded span stack; every span is kept until ``write``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run = ""
        self._stack: List[int] = []
        self._installed: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.run,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every layer entry point; ``uninstall`` restores them."""
        for owner_path, attribute, name in LAYER_ENTRY_POINTS:
            module_path, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_path)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            begin = max(child.start, cursor)
            if child.end > begin:
                covered += child.end - begin
                cursor = child.end
        result[span.id] = span.duration - covered
    return result


def step_of(spans: List[Span], span: Span) -> Optional[str]:
    """Name of the nearest ``step.*`` ancestor of ``span`` (or itself)."""
    current: Optional[Span] = span
    while current is not None:
        if current.name.startswith("step."):
            return current.name
        current = spans[current.parent] if current.parent is not None \
            else None
    return None
