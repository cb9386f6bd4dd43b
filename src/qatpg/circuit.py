"""Gate-level circuit representation, simulation, and the text file format.

Conventions, fixed across the package:
  * qubit 0 is the most significant bit of a basis-state index,
  * multi-qubit gates list control qubits before the target,
  * rotation gates accept either half-angle generators
    (Ry(t) rotates by t/2, the Bloch-sphere convention) or full-angle
    generators (Ry(t) rotates by t), selected by RotationConvention.

States are dense complex128 vectors of length 2**n. `apply` updates the
state gate by gate with axis contractions and never materializes a
2**n x 2**n operator; `unitary` builds the full matrix product and exists
as the slow cross-check.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field

import numpy as np

from qatpg.linalg import CMatrix, CVector, MAX_QUBITS, as_cmatrix, unitarity_deviation

SQ2 = 1.0 / math.sqrt(2.0)

# Unitarity tolerance for user-supplied gate matrices.
CUSTOM_UNITARY_TOL = 1e-8


class RotationConvention(enum.Enum):
    HALF_ANGLE = "half"
    FULL_ANGLE = "full"


class GateKind(enum.Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    PHASE = "phase"
    CNOT = "cnot"
    TOFFOLI = "toffoli"
    RY = "ry"
    RZ = "rz"
    CUSTOM = "custom"


# Gate arity (qubit count) for the built-in kinds.
_ARITY = {
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.Y: 1,
    GateKind.Z: 1,
    GateKind.PHASE: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
}

_ANGLED = {GateKind.RY, GateKind.RZ}


class CircuitParseError(ValueError):
    """Raised on malformed circuit text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class PlacedGate:
    """A gate kind bound to an ordered tuple of distinct qubit indexes."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix: CMatrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate qubits must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if self.kind is GateKind.CUSTOM:
            if self.matrix is None:
                raise ValueError("custom gates require a matrix")
            m = as_cmatrix(self.matrix)
            if m.shape[0] != m.shape[1] or m.shape[0] != 2 ** len(self.qubits):
                raise ValueError(
                    f"custom matrix shape {m.shape} does not act on {len(self.qubits)} qubits"
                )
            dev = unitarity_deviation(m)
            if dev > CUSTOM_UNITARY_TOL:
                raise ValueError(f"custom matrix is not unitary (deviation {dev:.3e})")
            object.__setattr__(self, "matrix", m)
        else:
            if self.matrix is not None:
                raise ValueError("only custom gates carry a matrix")
            if len(self.qubits) != _ARITY[self.kind]:
                raise ValueError(
                    f"{self.kind.value} acts on {_ARITY[self.kind]} qubits, got {len(self.qubits)}"
                )
            if self.kind in _ANGLED:
                if self.angle is None:
                    raise ValueError(f"{self.kind.value} requires an angle")
                object.__setattr__(self, "angle", float(self.angle))
            elif self.angle is not None:
                raise ValueError(f"{self.kind.value} takes no angle")

    @property
    def arity(self) -> int:
        return len(self.qubits)

    def __eq__(self, other):
        if not isinstance(other, PlacedGate):
            return NotImplemented
        if (self.kind, self.qubits, self.angle) != (other.kind, other.qubits, other.angle):
            return False
        if self.matrix is None or other.matrix is None:
            return self.matrix is other.matrix
        return bool(np.array_equal(self.matrix, other.matrix))


@dataclass(frozen=True, eq=False)
class Circuit:
    """An n-qubit register and an ordered gate list (1-based gate indexes)."""

    n: int
    gates: tuple[PlacedGate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside 1..{MAX_QUBITS}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for pos, g in enumerate(self.gates, start=1):
            if max(g.qubits) >= self.n:
                raise ValueError(
                    f"gate {pos} touches qubit {max(g.qubits)} but the register has {self.n}"
                )

    @property
    def size(self) -> int:
        return len(self.gates)

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.n == other.n and self.gates == other.gates


def gate_matrix(gate: PlacedGate, convention: RotationConvention) -> CMatrix:
    """The 2**arity unitary of one gate under the given rotation convention."""
    k = gate.kind
    if k is GateKind.H:
        return np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=np.complex128)
    if k is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if k is GateKind.Y:
        return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    if k is GateKind.Z:
        return np.array([[1, 0], [0, -1]], dtype=np.complex128)
    if k is GateKind.PHASE:
        return np.array([[1, 0], [0, 1j]], dtype=np.complex128)
    if k is GateKind.RY:
        a = gate.angle / 2 if convention is RotationConvention.HALF_ANGLE else gate.angle
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if k is GateKind.RZ:
        a = gate.angle / 2 if convention is RotationConvention.HALF_ANGLE else gate.angle
        return np.array(
            [[np.exp(-1j * a), 0], [0, np.exp(1j * a)]], dtype=np.complex128
        )
    if k is GateKind.CNOT:
        m = np.eye(4, dtype=np.complex128)
        m[[2, 3]] = m[[3, 2]]
        return m
    if k is GateKind.TOFFOLI:
        m = np.eye(8, dtype=np.complex128)
        m[[6, 7]] = m[[7, 6]]
        return m
    return gate.matrix.copy()


def embed(matrix: CMatrix, qubits: tuple[int, ...], n: int) -> CMatrix:
    """Lift a gate matrix to the full register (qubit 0 = most significant)."""
    if n > MAX_QUBITS:
        raise ValueError(f"register of {n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    matrix = as_cmatrix(matrix)
    m = len(qubits)
    if matrix.shape != (2 ** m, 2 ** m):
        raise ValueError(f"matrix shape {matrix.shape} does not act on {m} qubits")
    if len(set(qubits)) != m or any(not 0 <= q < n for q in qubits):
        raise ValueError(f"invalid qubit tuple {qubits} for {n} qubits")
    dim = 2 ** n
    u = np.kron(matrix, np.eye(2 ** (n - m), dtype=np.complex128))
    rest = [q for q in range(n) if q not in qubits]
    order = list(qubits) + rest
    perm = np.zeros(dim, dtype=int)
    for b in range(dim):
        bits = [(b >> (n - 1 - q)) & 1 for q in range(n)]
        pb = 0
        for pos, q in enumerate(order):
            pb |= bits[q] << (n - 1 - pos)
        perm[b] = pb
    return u[np.ix_(perm, perm)]


def _apply_gate(mat: CMatrix, qubits: tuple[int, ...], psi_nd: np.ndarray, n: int):
    """Contract one gate into the rank-n state tensor along its qubit axes."""
    k = len(qubits)
    g = mat.reshape((2,) * (2 * k))
    out = np.tensordot(g, psi_nd, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(out, list(range(k)), list(qubits))


def _register_tensor(state, n: int) -> np.ndarray:
    """A state vector, or a block of states as columns, as a rank-n tensor."""
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim not in (1, 2) or state.shape[0] != 2 ** n:
        raise ValueError(
            f"state has shape {state.shape}, expected ({2 ** n},) or ({2 ** n}, columns)"
        )
    return state.reshape((2,) * n + state.shape[1:])


def apply(circuit: Circuit, state: CVector, convention: RotationConvention) -> CVector:
    """Run a state (or each column of a block) through the circuit, gate by gate."""
    psi = _register_tensor(state, circuit.n)
    for g in circuit.gates:
        psi = _apply_gate(gate_matrix(g, convention), g.qubits, psi, circuit.n)
    return psi.reshape((2 ** circuit.n,) + psi.shape[circuit.n:])


def apply_adjoint(circuit: Circuit, state: CVector, convention: RotationConvention) -> CVector:
    """Run a state (or each column of a block) through the inverse circuit."""
    psi = _register_tensor(state, circuit.n)
    for g in reversed(circuit.gates):
        psi = _apply_gate(gate_matrix(g, convention).conj().T, g.qubits, psi, circuit.n)
    return psi.reshape((2 ** circuit.n,) + psi.shape[circuit.n:])


def unitary(circuit: Circuit, convention: RotationConvention) -> CMatrix:
    """Full-register matrix product of the circuit. Cross-check path, not fast."""
    u = np.eye(2 ** circuit.n, dtype=np.complex128)
    for g in circuit.gates:
        u = embed(gate_matrix(g, convention), g.qubits, circuit.n) @ u
    return u


def split(circuit: Circuit, i: int) -> tuple[Circuit, PlacedGate, Circuit]:
    """Cut at 1-based gate index i: (prefix before i, gate i, suffix after i)."""
    if not 1 <= i <= circuit.size:
        raise ValueError(f"gate index {i} outside 1..{circuit.size}")
    return (
        Circuit(circuit.n, circuit.gates[: i - 1]),
        circuit.gates[i - 1],
        Circuit(circuit.n, circuit.gates[i:]),
    )


# ------------------------------------------------------------------ file format

_QUBIT_TOKEN = re.compile(r"^q(\d+)$")
_NUMBER = re.compile(r"^\d+(\.\d*)?([eE][+-]?\d+)?$|^\.\d+([eE][+-]?\d+)?$")


def _eval_angle(expr: str, line: int) -> float:
    """Evaluate an angle expression: pi and numeric literals joined by * or /.

    A single leading minus sign is accepted.
    """
    text = expr.strip()
    if not text:
        raise CircuitParseError("empty angle expression", line)
    sign = 1.0
    if text.startswith("-"):
        sign = -1.0
        text = text[1:].strip()
    parts = re.split(r"([*/])", text)
    value = None
    op = "*"
    expect_term = True
    for raw in parts:
        tok = raw.strip()
        if tok == "":
            raise CircuitParseError(f"malformed angle expression '{expr}'", line)
        if tok in "*/":
            if expect_term:
                raise CircuitParseError(f"malformed angle expression '{expr}'", line)
            op = tok
            expect_term = True
            continue
        if tok.lower() == "pi":
            term = math.pi
        elif _NUMBER.match(tok):
            term = float(tok)
        else:
            raise CircuitParseError(f"bad angle token '{tok}'", line)
        if value is None:
            value = term
        elif op == "*":
            value = value * term
        else:
            value = value / term
        expect_term = False
    if value is None or expect_term:
        raise CircuitParseError(f"malformed angle expression '{expr}'", line)
    return sign * value


_GATE_LINE = re.compile(r"^gate\s+([a-zA-Z_][\w]*)\s*(\(([^)]*)\))?\s*(.*)$", re.IGNORECASE)


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text: a `qubits <n>` header then one `gate ...` per line.

    Grammar, case-insensitive, `#` starts a comment:
        qubits <n>
        gate <name>[(<angle>)] q<i> q<j> ...
    Raises CircuitParseError with the offending 1-based line number.
    """
    n = None
    gates: list[PlacedGate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        lowered = content.lower()
        if n is None:
            m = re.match(r"^qubits\s+(\d+)$", lowered)
            if not m:
                raise CircuitParseError(
                    "expected 'qubits <n>' before any gate", line_no
                )
            n = int(m.group(1))
            if not 1 <= n <= MAX_QUBITS:
                raise CircuitParseError(
                    f"qubit count {n} outside 1..{MAX_QUBITS}", line_no
                )
            continue
        if lowered.startswith("qubits"):
            raise CircuitParseError("duplicate 'qubits' header", line_no)
        m = _GATE_LINE.match(content)
        if not m:
            raise CircuitParseError(f"cannot parse '{content}'", line_no)
        name = m.group(1).lower()
        if name == "custom":
            raise CircuitParseError(
                "custom gates cannot be written in circuit text", line_no
            )
        try:
            kind = GateKind(name)
        except ValueError:
            raise CircuitParseError(f"unknown gate '{name}'", line_no) from None
        angle = None
        if m.group(2) is not None:
            if kind not in _ANGLED:
                raise CircuitParseError(f"{name} takes no angle", line_no)
            angle = _eval_angle(m.group(3), line_no)
        elif kind in _ANGLED:
            raise CircuitParseError(f"{name} requires an angle", line_no)
        qubits = []
        tail = m.group(4).split()
        if not tail:
            raise CircuitParseError(f"{name} lists no qubits", line_no)
        for tok in tail:
            qm = _QUBIT_TOKEN.match(tok.lower())
            if not qm:
                raise CircuitParseError(f"bad qubit token '{tok}'", line_no)
            q = int(qm.group(1))
            if q >= n:
                raise CircuitParseError(
                    f"qubit q{q} outside the {n}-qubit register", line_no
                )
            if q in qubits:
                raise CircuitParseError(f"qubit q{q} repeated", line_no)
            qubits.append(q)
        try:
            gates.append(PlacedGate(kind=kind, qubits=tuple(qubits), angle=angle))
        except ValueError as exc:
            raise CircuitParseError(str(exc), line_no) from None
    if n is None:
        raise CircuitParseError("empty circuit text", 1)
    return Circuit(n=n, gates=tuple(gates))


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit back into the text format. Inverse of parse_circuit."""
    lines = [f"qubits {circuit.n}"]
    for g in circuit.gates:
        if g.kind is GateKind.CUSTOM:
            raise ValueError("custom gates cannot be written in circuit text")
        qubits = " ".join(f"q{q}" for q in g.qubits)
        if g.kind in _ANGLED:
            lines.append(f"gate {g.kind.value}({g.angle!r}) {qubits}")
        else:
            lines.append(f"gate {g.kind.value} {qubits}")
    return "\n".join(lines) + "\n"
