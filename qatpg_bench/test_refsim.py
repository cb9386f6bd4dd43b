"""Tests of the benchmark's reference computations; run with
`python3 -m pytest qatpg_bench`. They use no qatpg code."""
import math

import numpy as np
import pytest

import refsim
from refsim import Gate


def missing_gate_k(name: str, angle=None, convention="full") -> float:
    g = refsim.gate_matrix(Gate(name, tuple(range(refsim.ARITY[name])), angle), convention)
    return refsim.optimal_overlap(g, np.eye(len(g)))


@pytest.mark.parametrize("name", ["h", "x", "y", "z", "cnot", "toffoli"])
def test_oracle_catalog_gates_are_perfectly_separable(name):
    assert missing_gate_k(name) == pytest.approx(0.0, abs=1e-12)


def test_oracle_phase_gate():
    assert missing_gate_k("phase") == pytest.approx(1 / math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("t", [0.1, 0.7, math.pi / 2, 2.0, -2.9])
def test_oracle_rotation_closed_form(t):
    # Eigenvalues exp(+-i t): the overlap left is |cos t|.
    assert missing_gate_k("ry", t) == pytest.approx(abs(math.cos(t)), abs=1e-12)
    assert missing_gate_k("rz", 2 * t, "half") == pytest.approx(abs(math.cos(t)), abs=1e-12)


def test_oracle_global_phase_is_undetectable():
    g = refsim.gate_matrix(Gate("ry", (0,), 0.4), "full")
    assert refsim.optimal_overlap(g, np.exp(0.3j) * g) >= refsim.UNDETECTABLE_K


def test_oracle_matches_grid_search_on_two_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g_f = refsim.haar_unitary(2, rng)
        e1, e2 = np.linalg.eigvals(g_f)
        grid = np.linspace(0, 1, 200001)
        brute = np.abs(grid * e1 + (1 - grid) * e2).min()
        assert refsim.optimal_overlap(np.eye(2), g_f) == pytest.approx(brute, abs=1e-9)


def test_cnot_flips_target_when_control_set():
    # Qubit 0 is the most significant bit: |10> (index 2) becomes |11>.
    state = np.zeros(4, dtype=complex)
    state[2] = 1
    out = refsim.simulate([Gate("cnot", (0, 1))], 2, state, "full")
    assert np.allclose(out, np.eye(4)[3])
    out = refsim.simulate([Gate("cnot", (1, 0))], 2, state, "full")
    assert np.allclose(out, state)


def kron_unitary(gates, n: int, convention: str) -> np.ndarray:
    """The 2**n unitary of gates on consecutive ascending qubits, as I (x) G (x) I."""
    u = np.eye(2 ** n, dtype=complex)
    for gate in gates:
        q0, k = gate.qubits[0], len(gate.qubits)
        assert gate.qubits == tuple(range(q0, q0 + k))
        g = refsim.gate_matrix(gate, convention)
        u = np.kron(np.kron(np.eye(2 ** q0), g), np.eye(2 ** (n - q0 - k))) @ u
    return u


def test_einsum_simulation_matches_kron_unitary():
    rng = np.random.default_rng(5)
    gates = [Gate("h", (0,)), Gate("cnot", (1, 2)), Gate("ry", (2,), 0.3),
             Gate("toffoli", (1, 2, 3)), Gate("phase", (3,)), Gate("rz", (0,), -1.1)]
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    for conv in ("half", "full"):
        u = kron_unitary(gates, 4, conv)
        assert np.allclose(refsim.simulate(gates, 4, state, conv), u @ state, atol=1e-13)


def test_faulty_simulation_skips_or_replaces_the_gate():
    gates = [Gate("x", (0,)), Gate("h", (1,))]
    state = np.eye(4, dtype=complex)[0]
    skipped = refsim.simulate(gates, 2, state, "full", faulty=1)
    assert np.allclose(skipped, refsim.simulate(gates[1:], 2, state, "full"))
    replaced = refsim.simulate(gates, 2, state, "full", faulty=2,
                               replacement=np.eye(2))
    assert np.allclose(replaced, np.eye(4)[2])


def test_text_round_trip_keeps_every_digit():
    gates = [Gate("ry", (2,), -0.1234567890123456), Gate("toffoli", (0, 2, 1))]
    assert refsim.parse_text(refsim.render_text(3, gates)) == (3, gates)
    n, parsed = refsim.parse_text("qubits 1\n# comment\ngate rz(-pi/16) q0\n")
    assert (n, parsed[0].angle) == (1, -math.pi / 16)
