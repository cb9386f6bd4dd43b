"""Reference computations for the benchmark's checks, made apart from qatpg.

Nothing here imports qatpg. Circuits are plain lists of `Gate` records;
gate matrices come from this module's own catalog, states are simulated
with `numpy.einsum`, and the optimal residual overlap comes from the
eigenvalues `numpy.linalg.eigvals` gives for G^dag G_f.

Conventions match the package's documented ones: qubit 0 is the most
significant bit of a basis index, controls come before the target, and
rotation angles are halved under the "half" convention.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

SQ2 = 1.0 / math.sqrt(2.0)

ARITY = {"h": 1, "x": 1, "y": 1, "z": 1, "phase": 1, "ry": 1, "rz": 1,
         "cnot": 2, "toffoli": 3}
ANGLED = ("ry", "rz")

# An overlap this close to 1 means no test can tell the two circuits apart.
UNDETECTABLE_K = 1.0 - 1e-9


@dataclass(frozen=True)
class Gate:
    """One gate of a reference circuit: catalog name, qubits, optional angle."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None


_GATE_LINE = re.compile(r"^gate\s+(\w+)\s*(?:\(([^)]*)\))?\s*(.*)$", re.IGNORECASE)


def _angle(expr: str) -> float:
    """Evaluate `[-]term (*|/ term)*` with terms `pi` or decimal numbers."""
    text = expr.replace(" ", "")
    sign = -1.0 if text.startswith("-") else 1.0
    tokens = re.split(r"([*/])", text.lstrip("-"))
    value = math.pi if tokens[0].lower() == "pi" else float(tokens[0])
    for op, tok in zip(tokens[1::2], tokens[2::2]):
        term = math.pi if tok.lower() == "pi" else float(tok)
        value = value * term if op == "*" else value / term
    return sign * value


def parse_text(text: str) -> tuple[int, list[Gate]]:
    """Read the circuit text format: a `qubits n` line, then `gate` lines."""
    n, gates = None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("qubits"):
            n = int(line.split()[1])
            continue
        m = _GATE_LINE.match(line)
        angle = _angle(m.group(2)) if m.group(2) is not None else None
        qubits = tuple(int(tok[1:]) for tok in m.group(3).split())
        gates.append(Gate(m.group(1).lower(), qubits, angle))
    return n, gates


def render_text(n: int, gates) -> str:
    """Write gates in the circuit text format; angles keep every digit."""
    lines = [f"qubits {n}"]
    for g in gates:
        qubits = " ".join(f"q{q}" for q in g.qubits)
        head = g.name if g.angle is None else f"{g.name}({g.angle!r})"
        lines.append(f"gate {head} {qubits}")
    return "\n".join(lines) + "\n"


def gate_matrix(gate: Gate, convention: str) -> np.ndarray:
    """The catalog unitary of one gate; convention is "half" or "full"."""
    name = gate.name
    if name in ANGLED:
        a = gate.angle / 2 if convention == "half" else gate.angle
        if name == "ry":
            return np.array([[math.cos(a), -math.sin(a)],
                             [math.sin(a), math.cos(a)]], dtype=complex)
        return np.diag([np.exp(-1j * a), np.exp(1j * a)])
    fixed = {
        "h": [[SQ2, SQ2], [SQ2, -SQ2]],
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
        "phase": [[1, 0], [0, 1j]],
    }
    if name in fixed:
        return np.array(fixed[name], dtype=complex)
    # cnot and toffoli flip the target when every control is 1: swap the
    # last two basis states of the gate-local space.
    dim = 2 ** ARITY[name]
    m = np.eye(dim, dtype=complex)
    m[[dim - 2, dim - 1]] = m[[dim - 1, dim - 2]]
    return m


def apply_matrix(matrix: np.ndarray, qubits: tuple[int, ...], state: np.ndarray,
                 n: int) -> np.ndarray:
    """Apply a gate-local matrix to the given qubits of an n-qubit state."""
    k = len(qubits)
    letters = "abcdefghijklmnopqrstuvwxyz"
    axes = list(letters[:n])
    outs = letters[n:n + k]
    ins = "".join(axes[q] for q in qubits)
    result = list(axes)
    for pos, q in enumerate(qubits):
        result[q] = outs[pos]
    spec = f"{outs}{ins},{''.join(axes)}->{''.join(result)}"
    tensor = np.einsum(spec, matrix.reshape((2,) * (2 * k)),
                       state.reshape((2,) * n))
    return tensor.reshape(-1)


def simulate(gates, n: int, state: np.ndarray, convention: str,
             faulty: int = 0, replacement: np.ndarray | None = None) -> np.ndarray:
    """Run a state through the circuit, with gate `faulty` (1-based) broken.

    faulty = 0 is the healthy circuit. A broken gate acts as
    `replacement`, or as the identity (the gate is missing) when
    replacement is None.
    """
    psi = np.asarray(state, dtype=complex)
    for pos, gate in enumerate(gates, start=1):
        if pos == faulty:
            if replacement is None:
                continue
            matrix = replacement
        else:
            matrix = gate_matrix(gate, convention)
        psi = apply_matrix(matrix, gate.qubits, psi, n)
    return psi


def optimal_overlap(g: np.ndarray, g_f: np.ndarray) -> float:
    """Smallest |<healthy|faulty>| any input achieves for gate G vs G_f.

    The eigenvalues of G^dag G_f lie on the unit circle. When the largest
    circular gap between them is below pi, their hull holds the origin
    and k = 0; otherwise the nearest hull point is the midpoint of the
    chord across that gap, at distance |cos(gap / 2)|.
    """
    eig = np.linalg.eigvals(np.conj(g).T @ g_f)
    angles = np.sort(np.angle(eig))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
    gap = float(gaps.max())
    if gap < math.pi:
        return 0.0
    return abs(math.cos(gap / 2))


def error_probability(k: float) -> float:
    """Helstrom error floor delta = (1 - sqrt(1 - k^2)) / 2."""
    return (1.0 - math.sqrt(max(0.0, 1.0 - k * k))) / 2.0


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))
