"""Unit tests for OpenQASM 2.0 import/export."""

import math

import pytest

from repro.ir import Circuit, from_qasm, to_qasm
from repro.ir.qasm import QasmError
from repro.ir.simulator import circuit_unitary, unitaries_equal_up_to_global_phase


class TestExport:
    def test_header_and_register(self):
        text = to_qasm(Circuit(3).h(0))
        assert "OPENQASM 2.0;" in text
        assert "qreg q[3];" in text

    def test_gate_lines(self):
        text = to_qasm(Circuit(2).h(0).cx(0, 1))
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text

    def test_parameterised_gate(self):
        text = to_qasm(Circuit(1).rz(0.5, 0))
        assert "rz(0.5) q[0];" in text

    def test_pi_fraction_rendering(self):
        text = to_qasm(Circuit(1).rz(math.pi / 4, 0))
        assert "rz(pi/4) q[0];" in text

    def test_negative_pi_fraction(self):
        text = to_qasm(Circuit(1).rz(-math.pi / 2, 0))
        assert "rz(-pi/2) q[0];" in text

    def test_p_exported_as_u1(self):
        text = to_qasm(Circuit(1).p(0.3, 0))
        assert "u1(0.3) q[0];" in text

    def test_measure_creates_creg(self):
        text = to_qasm(Circuit(2).measure(1))
        assert "creg c[2];" in text
        assert "measure q[1] -> c[1];" in text

    def test_barrier(self):
        text = to_qasm(Circuit(2).barrier([0, 1]))
        assert "barrier q[0],q[1];" in text


class TestImport:
    def test_simple_roundtrip(self):
        circuit = Circuit(3).h(0).cx(0, 1).rz(0.25, 2).crz(0.5, 0, 2)
        parsed = from_qasm(to_qasm(circuit))
        assert parsed == circuit

    def test_roundtrip_preserves_unitary(self):
        circuit = (Circuit(3).h(0).t(1).cx(0, 1).rz(math.pi / 8, 2)
                   .crz(0.7, 2, 0).swap(1, 2))
        parsed = from_qasm(to_qasm(circuit))
        assert unitaries_equal_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(parsed))

    def test_u1_imported_as_p(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[1];\nu1(0.5) q[0];\n')
        assert circuit[0].name == "p"

    def test_cnot_alias(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[2];\ncnot q[0],q[1];\n')
        assert circuit[0].name == "cx"

    def test_comments_and_blank_lines_skipped(self):
        text = 'OPENQASM 2.0;\n\n// a comment\nqreg q[1];\nh q[0]; // trailing\n'
        circuit = from_qasm(text)
        assert len(circuit) == 1

    def test_pi_expression_parsing(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[1];\nrz(pi/2) q[0];\n')
        assert circuit[0].params[0] == pytest.approx(math.pi / 2)

    def test_measure_parsing(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n'
                            'measure q[1] -> c[1];\n')
        assert circuit[0].name == "measure"
        assert circuit[0].qubits == (1,)

    def test_missing_qreg_rejected(self):
        with pytest.raises(QasmError):
            from_qasm('OPENQASM 2.0;\nh q[0];\n')

    def test_unknown_gate_rejected(self):
        with pytest.raises(QasmError):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\nmystery q[0];\n')

    def test_malicious_angle_rejected(self):
        with pytest.raises(QasmError):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\nrz(__import__) q[0];\n')

    def test_empty_program_rejected(self):
        with pytest.raises(QasmError):
            from_qasm('OPENQASM 2.0;\n')


class TestStatements:
    """Statements end at ';', not at line ends."""

    def test_several_statements_on_one_line(self):
        text = ('OPENQASM 2.0;\nqreg q[3];\n'
                'cx q[0],q[1]; cx q[1],q[2];\ncx q[0],q[2];\n')
        circuit = from_qasm(text)
        assert [g.qubits for g in circuit] == [(0, 1), (1, 2), (0, 2)]

    def test_single_line_program(self):
        circuit = from_qasm('OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; '
                            'h q[0]; cx q[0],q[1];')
        assert circuit.num_qubits == 2
        assert [g.name for g in circuit] == ["h", "cx"]

    def test_statement_spanning_lines(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[2];\ncx q[0],\n   q[1];\n')
        assert circuit[0].qubits == (0, 1)

    def test_semicolon_inside_comment_ignored(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[2];\n'
                            'h q[0]; // h q[1]; x q[1];\n')
        assert len(circuit) == 1

    def test_unterminated_trailing_text_rejected(self):
        with pytest.raises(QasmError, match="not terminated"):
            from_qasm('OPENQASM 2.0;\nqreg q[2];\nh q[0]; cx q[0],q[1]\n')

    def test_empty_statements_skipped(self):
        circuit = from_qasm('OPENQASM 2.0;;\nqreg q[1];;h q[0];;\n')
        assert len(circuit) == 1

    def test_round_trip_packed_on_one_line(self):
        circuit = Circuit(3).h(0).cx(0, 1).rz(2, 0.25).cx(1, 2)
        packed = " ".join(to_qasm(circuit).splitlines())
        assert from_qasm(packed).gates == circuit.gates


class TestDefinitions:
    """``gate``/``opaque`` definitions are rejected, braces included."""

    @pytest.mark.parametrize("definition", [
        "gate foo a,b { cx a,b; }",
        "gate foo a,b\n{\n  cx a,b;\n  h b;\n}",
        "gate rot(theta) a { rz(theta) a; }",
        "gate empty a { }",
    ])
    def test_gate_definition_rejected(self, definition):
        text = f"OPENQASM 2.0;\nqreg q[2];\n{definition}\nh q[0];\n"
        with pytest.raises(QasmError,
                           match=r"^gate definitions are not supported"):
            from_qasm(text)

    def test_opaque_declaration_rejected(self):
        with pytest.raises(QasmError,
                           match=r"^opaque definitions are not supported"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nopaque magic a,b;\n")

    def test_definition_after_statement_on_one_line(self):
        with pytest.raises(QasmError, match=r"\(gate foo\)"):
            from_qasm("OPENQASM 2.0; qreg q[2]; h q[0]; gate foo a { x a; }")
        # A definition inside a comment is no definition.
        circuit = from_qasm("OPENQASM 2.0;\nqreg q[1];\n"
                            "// gate foo a { x a; }\nh q[0];\n")
        assert len(circuit) == 1
