"""Minimal OpenQASM 2.0 import/export.

Only the gate set registered in :mod:`repro.ir.gates` is supported, with a
single quantum register ``q`` and a single classical register ``c``.  This is
enough to exchange the benchmark circuits with other toolchains and to keep a
textual artifact of compiled programs.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import List, Optional

from .circuit import Circuit
from .gates import Gate, is_supported_gate

__all__ = ["to_qasm", "from_qasm", "QasmError"]


class QasmError(ValueError):
    """Raised for malformed or unsupported QASM input."""


_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

# Gates whose QASM name differs from ours.
_EXPORT_NAME = {"p": "u1", "cp": "cu1"}
_IMPORT_NAME = {"u1": "p", "cu1": "cp", "cnot": "cx", "toffoli": "ccx"}


def to_qasm(circuit: Circuit) -> str:
    """Serialise a circuit to OpenQASM 2.0 text."""
    lines: List[str] = [_HEADER.rstrip("\n")]
    lines.append(f"qreg q[{circuit.num_qubits}];")
    num_measures = sum(1 for g in circuit if g.name == "measure")
    if num_measures:
        lines.append(f"creg c[{circuit.num_qubits}];")
    for gate in circuit:
        lines.append(_gate_to_qasm(gate))
    return "\n".join(lines) + "\n"


def _gate_to_qasm(gate: Gate) -> str:
    if gate.name == "barrier":
        qubits = ",".join(f"q[{q}]" for q in gate.qubits)
        return f"barrier {qubits};"
    if gate.name == "measure":
        q = gate.qubits[0]
        return f"measure q[{q}] -> c[{q}];"
    if gate.name == "reset":
        return f"reset q[{gate.qubits[0]}];"
    name = _EXPORT_NAME.get(gate.name, gate.name)
    params = ""
    if gate.params:
        params = "(" + ",".join(_format_angle(p) for p in gate.params) + ")"
    qubits = ",".join(f"q[{q}]" for q in gate.qubits)
    return f"{name}{params} {qubits};"


def _format_angle(value: float) -> str:
    """Render an angle, using pi fractions when exact to keep files readable."""
    if value == 0:
        return "0"
    for denom in (1, 2, 3, 4, 6, 8, 16, 32, 64, 128, 256):
        for sign in (1, -1):
            if abs(value - sign * math.pi / denom) < 1e-12:
                prefix = "-" if sign < 0 else ""
                return f"{prefix}pi/{denom}" if denom != 1 else f"{prefix}pi"
    return repr(float(value))


_GATE_RE = re.compile(
    r"(?P<name>[a-zA-Z_][\w]*)\s*(?:\((?P<params>[^)]*)\))?\s*(?P<args>.*)",
    re.DOTALL)
_QUBIT_RE = re.compile(r"q\[(\d+)\]")
#: A ``gate`` or ``opaque`` definition at the start of a statement.
_DEFINITION_RE = re.compile(r"(?:^|[;{}])\s*(gate|opaque)\s+([A-Za-z_]\w*)")


def from_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 text into a :class:`Circuit`.

    Supports a single ``qreg`` named ``q`` and the registered gate set.
    ``//`` comments run to the end of their line; statements end at ``;``
    wherever they sit, so one line may hold several and one statement may
    span lines.  Text after the last ``;`` is rejected, not dropped, and so
    are ``gate``/``opaque`` definitions, braces included.
    """
    if "//" in text:
        text = "\n".join(line.split("//", 1)[0] for line in text.split("\n"))
    definition = _DEFINITION_RE.search(text)
    if definition:
        kind, name = definition.groups()
        raise QasmError(f"{kind} definitions are not supported "
                        f"({kind} {name})")
    *statements, tail = text.split(";")
    if tail.strip():
        raise QasmError(f"statement not terminated by ';': {tail.strip()!r}")
    num_qubits: Optional[int] = None
    gates: List[Gate] = []
    for raw in statements:
        statement = raw.strip()
        if not statement:
            continue
        if statement.startswith("OPENQASM") or statement.startswith("include"):
            continue
        if statement.startswith("qreg"):
            match = re.fullmatch(r"qreg\s+q\[(\d+)\]", statement)
            if not match:
                raise QasmError(f"unsupported qreg declaration: {statement!r}")
            num_qubits = int(match.group(1))
            continue
        if statement.startswith("creg"):
            continue
        if num_qubits is None:
            raise QasmError("gate encountered before qreg declaration")
        if statement.startswith("measure"):
            match = _QUBIT_RE.search(statement)
            if not match:
                raise QasmError(f"cannot parse measure: {statement!r}")
            gates.append(Gate("measure", (int(match.group(1)),)))
            continue
        match = _GATE_RE.fullmatch(statement)
        if not match:
            raise QasmError(f"cannot parse statement: {statement!r}")
        name = match.group("name").lower()
        name = _IMPORT_NAME.get(name, name)
        if not is_supported_gate(name):
            raise QasmError(f"unsupported gate {name!r} in {statement!r}")
        params_text = match.group("params")
        params = tuple(_parse_angle(p) for p in params_text.split(",")) if params_text else ()
        qubits = tuple(int(m) for m in _QUBIT_RE.findall(match.group("args")))
        if name == "barrier":
            gates.append(Gate("barrier", qubits))
        else:
            gates.append(Gate(name, qubits, params))
    if num_qubits is None:
        raise QasmError("no qreg declaration found")
    return Circuit(num_qubits, gates)


@lru_cache(maxsize=4096)
def _parse_angle(text: str) -> float:
    """Evaluate a restricted arithmetic expression over pi.

    Memoised: generated circuits repeat a few angle spellings thousands of
    times, and the sanitised ``eval`` is the costliest step of parsing.
    """
    expr = text.strip().lower().replace("pi", repr(math.pi))
    if not re.fullmatch(r"[0-9eE+\-*/. ()]+", expr):
        raise QasmError(f"unsupported angle expression {text!r}")
    try:
        return float(eval(expr, {"__builtins__": {}}, {}))  # noqa: S307 - sanitised above
    except Exception as exc:  # pragma: no cover - defensive
        raise QasmError(f"cannot evaluate angle {text!r}") from exc
