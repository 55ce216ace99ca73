"""Decomposition of multi-qubit gates into the CX + single-qubit basis.

AutoComm's burst analysis is defined over circuits "compiled to the CX+U3
basis" (Section 3.2 of the paper), so every benchmark circuit is first pushed
through :func:`decompose_to_cx`.  The decompositions used here are the
textbook ones (Nielsen & Chuang / Qiskit equivalents); each is covered by a
unitary-equivalence test in ``tests/ir/test_decompose.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from .circuit import Circuit
from .gates import Gate

__all__ = ["decompose_to_cx", "decompose_gate", "mct_v_chain", "CX_BASIS"]

#: Gate names that survive decomposition untouched.
CX_BASIS = frozenset({
    "cx", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg",
    "rx", "ry", "rz", "p", "u3", "id", "measure", "reset", "barrier",
})


def decompose_to_cx(circuit: Circuit) -> Circuit:
    """Return an equivalent circuit using only CX and single-qubit gates."""
    out = Circuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        for sub in decompose_gate(gate):
            out.append(sub)
    return out


def decompose_gate(gate: Gate) -> List[Gate]:
    """Decompose a single gate into the CX + single-qubit basis."""
    if gate.name in CX_BASIS:
        return [gate]
    handler = _HANDLERS.get(gate.name)
    if handler is None:
        raise ValueError(f"no CX-basis decomposition registered for {gate.name!r}")
    return handler(gate)


# ---------------------------------------------------------------------------
# Individual decompositions
# ---------------------------------------------------------------------------

#: The handlers build their gates from an already-validated gate's qubits
#: and parameters, so they skip ``Gate``'s per-field validation.
_trusted = Gate.from_trusted


def _cz(gate: Gate) -> List[Gate]:
    c, t = gate.qubits
    return [_trusted("h", (t,)), _trusted("cx", (c, t)), _trusted("h", (t,))]


def _cy(gate: Gate) -> List[Gate]:
    c, t = gate.qubits
    return [_trusted("sdg", (t,)), _trusted("cx", (c, t)), _trusted("s", (t,))]


def _ch(gate: Gate) -> List[Gate]:
    # Standard CH decomposition (up to global phase exact):
    # CH = (I ⊗ Ry(pi/4)) CX (I ⊗ Ry(-pi/4)) with an extra S/T structure;
    # we use the exact ABC construction for controlled-U with U = H.
    c, t = gate.qubits
    return [
        _trusted("s", (t,)),
        _trusted("h", (t,)),
        _trusted("t", (t,)),
        _trusted("cx", (c, t)),
        _trusted("tdg", (t,)),
        _trusted("h", (t,)),
        _trusted("sdg", (t,)),
    ]


def _crz(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    c, t = gate.qubits
    return [
        _trusted("rz", (t,), (theta / 2,)),
        _trusted("cx", (c, t)),
        _trusted("rz", (t,), (-theta / 2,)),
        _trusted("cx", (c, t)),
    ]


def _cp(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    c, t = gate.qubits
    return [
        _trusted("p", (c,), (theta / 2,)),
        _trusted("p", (t,), (theta / 2,)),
        _trusted("cx", (c, t)),
        _trusted("p", (t,), (-theta / 2,)),
        _trusted("cx", (c, t)),
    ]


def _crx(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    c, t = gate.qubits
    return [
        _trusted("h", (t,)),
        _trusted("rz", (t,), (theta / 2,)),
        _trusted("cx", (c, t)),
        _trusted("rz", (t,), (-theta / 2,)),
        _trusted("cx", (c, t)),
        _trusted("h", (t,)),
    ]


def _cry(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    c, t = gate.qubits
    return [
        _trusted("ry", (t,), (theta / 2,)),
        _trusted("cx", (c, t)),
        _trusted("ry", (t,), (-theta / 2,)),
        _trusted("cx", (c, t)),
    ]


def _swap(gate: Gate) -> List[Gate]:
    a, b = gate.qubits
    return [_trusted("cx", (a, b)), _trusted("cx", (b, a)),
            _trusted("cx", (a, b))]


def _rzz(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    a, b = gate.qubits
    return [
        _trusted("cx", (a, b)),
        _trusted("rz", (b,), (theta,)),
        _trusted("cx", (a, b)),
    ]


def _rxx(gate: Gate) -> List[Gate]:
    theta = gate.params[0]
    a, b = gate.qubits
    return [
        _trusted("h", (a,)),
        _trusted("h", (b,)),
        _trusted("cx", (a, b)),
        _trusted("rz", (b,), (theta,)),
        _trusted("cx", (a, b)),
        _trusted("h", (a,)),
        _trusted("h", (b,)),
    ]


def _ccx(gate: Gate) -> List[Gate]:
    """Standard 6-CX Toffoli decomposition."""
    a, b, c = gate.qubits
    return [
        _trusted("h", (c,)),
        _trusted("cx", (b, c)),
        _trusted("tdg", (c,)),
        _trusted("cx", (a, c)),
        _trusted("t", (c,)),
        _trusted("cx", (b, c)),
        _trusted("tdg", (c,)),
        _trusted("cx", (a, c)),
        _trusted("t", (b,)),
        _trusted("t", (c,)),
        _trusted("h", (c,)),
        _trusted("cx", (a, b)),
        _trusted("t", (a,)),
        _trusted("tdg", (b,)),
        _trusted("cx", (a, b)),
    ]


def _ccz(gate: Gate) -> List[Gate]:
    a, b, c = gate.qubits
    return ([_trusted("h", (c,))] + _ccx(_trusted("ccx", (a, b, c)))
            + [_trusted("h", (c,))])


def _cswap(gate: Gate) -> List[Gate]:
    c, a, b = gate.qubits
    out = [_trusted("cx", (b, a))]
    out.extend(_ccx(_trusted("ccx", (c, a, b))))
    out.append(_trusted("cx", (b, a)))
    return out


_HANDLERS: Dict[str, Callable[[Gate], List[Gate]]] = {
    "cz": _cz,
    "cy": _cy,
    "ch": _ch,
    "crz": _crz,
    "cp": _cp,
    "crx": _crx,
    "cry": _cry,
    "swap": _swap,
    "rzz": _rzz,
    "rxx": _rxx,
    "ccx": _ccx,
    "ccz": _ccz,
    "cswap": _cswap,
}


# ---------------------------------------------------------------------------
# Multi-controlled Toffoli construction (used by the MCTR benchmark)
# ---------------------------------------------------------------------------

def mct_v_chain(controls: Sequence[int], target: int,
                ancillas: Sequence[int]) -> Circuit:
    """Build an n-controlled X via the V-chain of Toffoli gates.

    Requires ``len(ancillas) >= len(controls) - 2`` clean ancilla qubits.  The
    construction computes the AND of the controls into the ancilla chain,
    applies a final Toffoli onto the target and uncomputes the chain, which is
    the standard linear-depth MCT used in compiler toolchains.

    The returned circuit is expressed in ``ccx``/``cx`` gates (not yet pushed
    to the CX basis) and spans ``max(all indices) + 1`` qubits.
    """
    controls = list(controls)
    ancillas = list(ancillas)
    n = len(controls)
    if n == 0:
        raise ValueError("need at least one control")
    num_qubits = max([target] + controls + ancillas) + 1
    circuit = Circuit(num_qubits, name="mct")
    if n == 1:
        circuit.cx(controls[0], target)
        return circuit
    if n == 2:
        circuit.ccx(controls[0], controls[1], target)
        return circuit
    if len(ancillas) < n - 2:
        raise ValueError(f"V-chain MCT with {n} controls needs {n - 2} ancillas, "
                         f"got {len(ancillas)}")

    # Compute chain
    circuit.ccx(controls[0], controls[1], ancillas[0])
    for i in range(2, n - 1):
        circuit.ccx(controls[i], ancillas[i - 2], ancillas[i - 1])
    # Apply
    circuit.ccx(controls[n - 1], ancillas[n - 3], target)
    # Uncompute chain
    for i in reversed(range(2, n - 1)):
        circuit.ccx(controls[i], ancillas[i - 2], ancillas[i - 1])
    circuit.ccx(controls[0], controls[1], ancillas[0])
    return circuit
