"""The benchmark's workloads and their set-up.

A workload is a set of programs compiled for one machine under one
compiler configuration.  Set-up turns a workload and a seed into the
inputs a user would hand the compiler: OpenQASM text and a configured
network.  The seed drives the QAOA graph and the Monte-Carlo master seed;
the compiler only ever sees the generated inputs.

Each workload also fixes how many times a pass repeats each step, so
that every timing gets enough samples per run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro import hardware
from repro.circuits import (mctr_circuit, qaoa_maxcut_circuit, qft_circuit,
                            uccsd_circuit)
from repro.core import AutoCommConfig
from repro.ir.qasm import to_qasm

#: Success probability of one EPR attempt in the Monte-Carlo step.
P_EPR = 0.5

#: Phased-path configuration of ``sparse-remap``.
_PHASED = {"remap": "bursts", "overlap": True, "phase_sizing": "auto"}


@dataclass(frozen=True)
class ProgramSpec:
    """One program of a workload: a circuit on a topology."""

    label: str
    #: ``(num_qubits, graph_seed) -> Circuit``.
    build: Callable
    #: ``(num_qubits, nodes)`` per scale.
    sizes: Dict[str, Tuple[int, int]]
    topology: str


@dataclass(frozen=True)
class Workload:
    name: str
    programs: Tuple[ProgramSpec, ...]
    config: Dict[str, object] = field(default_factory=dict)
    #: Seeded Monte-Carlo calls per program and pass, and trials per call.
    mc_calls: int = 2
    mc_trials: int = 5
    #: Repetitions of the compile, cache fill, cache hit and verify steps
    #: per pass.
    compile_reps: int = 1
    fill_reps: int = 3
    hit_reps: int = 3
    verify_reps: int = 5


WORKLOADS: Dict[str, Workload] = {
    # The reference scenario: all-to-all interactions, so aggregation and
    # the dependency build dominate, and the artifact is a large gate table.
    "qft-dense": Workload(
        name="qft-dense",
        programs=(ProgramSpec("qft", lambda n, _seed: qft_circuit(n),
                              {"full": (100, 10), "tiny": (12, 3)}, "ring"),),
        mc_calls=4, mc_trials=6, fill_reps=2, hit_reps=3,
        verify_reps=20),
    # A Table 2 point with few qubits and many Cat-Comm burst blocks: plan
    # execution inside scheduling and the simulated trials dominate.
    "uccsd-deep": Workload(
        name="uccsd-deep",
        programs=(ProgramSpec("uccsd", lambda n, _seed: uccsd_circuit(n),
                              {"full": (8, 4), "tiny": (4, 2)}, "line"),),
        mc_calls=3, mc_trials=2, compile_reps=3, fill_reps=4, hit_reps=8,
        verify_reps=15),
    # The phased path: seeded sparse QAOA plus MCTR on a grid with
    # migrations, zero-bubble boundaries and remap-aware phase sizing.
    # Not listed in BENCHMARK.json: the program fails its correctness gate
    # on some seeds (see "Known defect" in README.md), so it is kept here
    # to reproduce that failure, not to be measured.
    "sparse-remap": Workload(
        name="sparse-remap",
        programs=(
            ProgramSpec("qaoa",
                        lambda n, seed: qaoa_maxcut_circuit(n, seed=seed),
                        {"full": (200, 20), "tiny": (24, 4)}, "grid"),
            ProgramSpec("mctr", lambda n, _seed: mctr_circuit(n),
                        {"full": (200, 20), "tiny": (24, 4)}, "grid"),
        ),
        config=_PHASED, mc_calls=3, mc_trials=4, fill_reps=4, hit_reps=8,
        verify_reps=10),
}


@dataclass
class Prepared:
    """The generated inputs of one program."""

    label: str
    qasm: str
    network: hardware.QuantumNetwork
    config: AutoCommConfig


def derive_seeds(seed: int) -> Tuple[int, int]:
    """``(graph_seed, mc_seed)`` from the workload seed."""
    rng = random.Random(seed)
    return rng.getrandbits(31), rng.getrandbits(31)


def prepare(workload: Workload, seed: int, scale: str) -> List[Prepared]:
    """Generate circuits, configure networks and render QASM text."""
    graph_seed, _ = derive_seeds(seed)
    config = AutoCommConfig(**workload.config)
    prepared = []
    for spec in workload.programs:
        num_qubits, nodes = spec.sizes[scale]
        circuit = spec.build(num_qubits, graph_seed)
        network = hardware.uniform_network(nodes, -(-num_qubits // nodes))
        hardware.apply_topology(network, spec.topology)
        prepared.append(Prepared(spec.label, to_qasm(circuit), network,
                                 config))
    return prepared
