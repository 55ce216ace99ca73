"""Benchmark suite definitions (Table 2 of the paper).

Two configuration sets are provided:

* :func:`paper_configurations` — the exact (#qubit, #node) points of Table 2
  (MCTR/RCA/QFT/BV/QAOA at 100/200/300 qubits with 10 qubits per node, and
  UCCSD at 8/12/16 qubits with 2 qubits per node).
* :func:`scaled_configurations` — smaller instances with the same
  qubits-per-node ratio, used by the default benchmark harness so that a
  full run finishes in minutes on a laptop.  Every harness accepts the
  paper-size configurations as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..hardware.network import QuantumNetwork, uniform_network
from ..ir.circuit import Circuit
from .bv import bv_circuit
from .mctr import mctr_circuit
from .qaoa import qaoa_maxcut_circuit
from .qft import qft_circuit
from .rca import rca_circuit_for_width
from .uccsd import uccsd_circuit

__all__ = ["BenchmarkSpec", "build_benchmark", "paper_configurations",
           "scaled_configurations", "BENCHMARK_FAMILIES"]


def _build_mctr(num_qubits: int) -> Circuit:
    return mctr_circuit(num_qubits, name=f"MCTR-{num_qubits}")


def _build_rca(num_qubits: int) -> Circuit:
    return rca_circuit_for_width(num_qubits, name=f"RCA-{num_qubits}")


def _build_qft(num_qubits: int) -> Circuit:
    return qft_circuit(num_qubits, name=f"QFT-{num_qubits}")


def _build_bv(num_qubits: int) -> Circuit:
    return bv_circuit(num_qubits, name=f"BV-{num_qubits}")


def _build_qaoa(num_qubits: int) -> Circuit:
    return qaoa_maxcut_circuit(num_qubits, layers=1, degree=3,
                               name=f"QAOA-{num_qubits}")


def _build_uccsd(num_qubits: int) -> Circuit:
    return uccsd_circuit(num_qubits, name=f"UCCSD-{num_qubits}")


#: family name -> circuit builder taking the qubit count.
BENCHMARK_FAMILIES: Dict[str, Callable[[int], Circuit]] = {
    "MCTR": _build_mctr,
    "RCA": _build_rca,
    "QFT": _build_qft,
    "BV": _build_bv,
    "QAOA": _build_qaoa,
    "UCCSD": _build_uccsd,
}


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark instance: a circuit family and a machine configuration."""

    family: str
    num_qubits: int
    num_nodes: int

    @property
    def name(self) -> str:
        return f"{self.family}-{self.num_qubits}-{self.num_nodes}"

    @property
    def qubits_per_node(self) -> int:
        return -(-self.num_qubits // self.num_nodes)  # ceiling division

    def build(self, comm_qubits_per_node: int = 2) -> Tuple[Circuit, QuantumNetwork]:
        """Instantiate the circuit and a matching uniform network."""
        circuit, network = build_benchmark(self.family, self.num_qubits,
                                           self.num_nodes,
                                           comm_qubits_per_node=comm_qubits_per_node)
        return circuit, network


def build_benchmark(family: str, num_qubits: int, num_nodes: int,
                    comm_qubits_per_node: int = 2) -> Tuple[Circuit, QuantumNetwork]:
    """Build one benchmark circuit and its target network."""
    try:
        builder = BENCHMARK_FAMILIES[family.upper()]
    except KeyError:
        raise ValueError(f"unknown benchmark family {family!r}; choose from "
                         f"{sorted(BENCHMARK_FAMILIES)}") from None
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    circuit = builder(num_qubits)
    qubits_per_node = -(-num_qubits // num_nodes)
    network = uniform_network(num_nodes, qubits_per_node,
                              comm_qubits_per_node=comm_qubits_per_node)
    return circuit, network


def paper_configurations() -> List[BenchmarkSpec]:
    """The 18 (family, #qubit, #node) points of Table 2."""
    specs: List[BenchmarkSpec] = []
    for family in ("MCTR", "RCA", "QFT", "BV", "QAOA"):
        for num_qubits, num_nodes in ((100, 10), (200, 20), (300, 30)):
            specs.append(BenchmarkSpec(family, num_qubits, num_nodes))
    for num_qubits, num_nodes in ((8, 4), (12, 6), (16, 8)):
        specs.append(BenchmarkSpec("UCCSD", num_qubits, num_nodes))
    return specs


def scaled_configurations(scale: str = "small") -> List[BenchmarkSpec]:
    """Reduced-size instances with the paper's 10-qubits-per-node ratio.

    ``scale="small"`` targets seconds-per-program; ``scale="medium"`` targets
    roughly a minute per program and is closer to the paper's smallest
    configuration.
    """
    if scale == "small":
        general = ((20, 2), (30, 3))
        uccsd = ((8, 4),)
    elif scale == "medium":
        general = ((40, 4), (60, 6))
        uccsd = ((8, 4), (12, 6))
    else:
        raise ValueError("scale must be 'small' or 'medium'")
    specs: List[BenchmarkSpec] = []
    for family in ("MCTR", "RCA", "QFT", "BV", "QAOA"):
        for num_qubits, num_nodes in general:
            specs.append(BenchmarkSpec(family, num_qubits, num_nodes))
    for num_qubits, num_nodes in uccsd:
        specs.append(BenchmarkSpec("UCCSD", num_qubits, num_nodes))
    return specs
