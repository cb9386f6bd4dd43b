"""
Unit tests for optimal separator input states.

Run:
    pytest tests/test_separator.py -v

solve_opt is checked against hand-solved geometry and random competitor
weights; separator states are checked through the overlap identity
|<phi'|S|phi'>| = k and, at circuit level, |<C0 phi|Ci phi>| = k. Trace
distance uses numpy's Hermitian eigensolver as an independent oracle.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qatpg.circuit import (
    Circuit,
    GateKind,
    PlacedGate,
    RotationConvention,
    apply,
    gate_matrix,
)
from qatpg.faults import FaultSpec, faulty_variant
from qatpg.separator import (
    SeparatorSolution,
    circuit_separator,
    gate_separator,
    solve_opt,
)

from helpers import haar_unitary, random_state

HALF = RotationConvention.HALF_ANGLE
FULL = RotationConvention.FULL_ANGLE

PHASE_GATE = np.diag([1.0, 1j]).astype(np.complex128)


# ═══════════════════════════════════════════════════════════════════════════
# Section 1: Simplex optimizer geometry
# ═══════════════════════════════════════════════════════════════════════════

class TestSolveOpt:
    def test_single_phase(self):
        w, k, kappa = solve_opt([0.7])
        assert w.tolist() == [1.0]
        assert k == 1.0
        assert kappa == pytest.approx(-0.7)

    def test_antipodal_pair_reaches_zero(self):
        w, k, kappa = solve_opt([0.0, math.pi])
        assert k == pytest.approx(0.0, abs=1e-12)
        assert kappa == 0.0
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_right_angle_pair(self):
        w, k, kappa = solve_opt([0.0, math.pi / 2])
        assert k == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert kappa == pytest.approx(-math.pi / 4, abs=1e-12)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_origin_inside_hull(self):
        w, k, kappa = solve_opt([0.0, 2 * math.pi / 3, -2 * math.pi / 3])
        assert k == 0.0
        assert kappa == 0.0
        np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_nearest_vertex_wins_when_weights_cannot_help(self):
        # Two nearby phases: the chord's perpendicular foot lies between
        # them, strictly closer than either vertex.
        w, k, _ = solve_opt([0.2, 0.4])
        assert k == pytest.approx(math.cos(0.1), abs=1e-12)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_opt([])
        with pytest.raises(ValueError):
            solve_opt([[0.1, 0.2]])

    @settings(max_examples=60, deadline=None)
    @given(
        phases=st.lists(
            st.floats(-math.pi, math.pi, allow_nan=False), min_size=1, max_size=8
        )
    )
    def test_solution_lies_on_simplex_and_attains_k(self, phases):
        w, k, kappa = solve_opt(phases)
        assert w.shape == (len(phases),)
        assert np.all(w >= -1e-12)
        assert abs(w.sum() - 1.0) < 1e-12
        z = np.dot(w, np.exp(-1j * np.asarray(phases)))
        assert abs(abs(z) - k) < 1e-12
        if k >= 1e-9:
            assert abs(z - k * np.exp(1j * kappa)) < 1e-9
        else:
            assert kappa == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        phases=st.lists(
            st.floats(-math.pi, math.pi, allow_nan=False), min_size=1, max_size=8
        ),
        seed=st.integers(0, 10**6),
    )
    def test_no_competitor_weights_do_better(self, phases, seed):
        _, k, _ = solve_opt(phases)
        pts = np.exp(-1j * np.asarray(phases))
        rng = np.random.default_rng(seed)
        comp = rng.dirichlet(np.ones(len(phases)), size=64)
        assert np.all(np.abs(comp @ pts) >= k - 1e-9)


# ═══════════════════════════════════════════════════════════════════════════
# Section 2: Gate-level separators
# ═══════════════════════════════════════════════════════════════════════════

class TestGateSeparator:
    def test_identical_gates_have_full_overlap(self):
        sol = gate_separator(np.eye(2, dtype=np.complex128), np.eye(2))
        assert sol.k == pytest.approx(1.0)
        assert sol.kappa == 0.0
        assert len(sol.classes) == 1
        assert sol.classes[0].multiplicity == 2
        np.testing.assert_allclose(sol.phi_prime, [math.sqrt(0.5)] * 2, atol=1e-12)

    def test_hadamard_against_identity_separates_perfectly(self):
        h = gate_matrix(PlacedGate(kind=GateKind.H, qubits=(0,)), HALF)
        sol = gate_separator(h, np.eye(2))
        assert sol.k == pytest.approx(0.0, abs=1e-12)
        assert sol.kappa == 0.0
        assert abs(np.vdot(sol.phi_prime, h.conj().T @ sol.phi_prime)) < 1e-9

    def test_phase_gate_closed_form(self):
        sol = gate_separator(PHASE_GATE, np.eye(2))
        assert sol.k == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert sol.kappa == pytest.approx(-math.pi / 4, abs=1e-12)
        np.testing.assert_allclose(
            np.abs(sol.phi_prime), [math.sqrt(0.5)] * 2, atol=1e-9
        )
        assert [c.weight for c in sol.classes] == [0.5, 0.5]

    def test_two_by_two_agrees_with_general_optimizer(self):
        # Haar 2x2 pairs: gate_separator against solve_opt on numpy's eigenphases.
        rng = np.random.default_rng(19)
        for _ in range(25):
            g, g_f = haar_unitary(2, rng), haar_unitary(2, rng)
            sol = gate_separator(g, g_f)
            s = g.conj().T @ g_f
            lam = np.linalg.eigvals(s)
            phases = -np.angle(lam)
            _, k_general, _ = solve_opt(phases)
            assert sol.k == pytest.approx(k_general, abs=1e-10)
            z = np.vdot(sol.phi_prime, s @ sol.phi_prime)
            assert abs(z - sol.k * np.exp(1j * sol.kappa)) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            gate_separator(np.eye(2), np.eye(4))

    def test_class_weights_form_distribution(self):
        rng = np.random.default_rng(23)
        for dim in (2, 4, 8):
            sol = gate_separator(haar_unitary(dim, rng), haar_unitary(dim, rng))
            weights = np.array([c.weight for c in sol.classes])
            assert np.all(weights >= -1e-12)
            assert abs(weights.sum() - 1.0) < 1e-9
            assert sum(c.multiplicity for c in sol.classes) == dim
            assert abs(np.linalg.norm(sol.phi_prime) - 1.0) < 1e-12

    def test_overlap_identity_on_random_pairs(self):
        # |<phi'|S|phi'>| must equal k and carry phase kappa.
        rng = np.random.default_rng(29)
        for dim in (2, 4, 8):
            for _ in range(10):
                g, g_f = haar_unitary(dim, rng), haar_unitary(dim, rng)
                sol = gate_separator(g, g_f)
                z = np.vdot(sol.phi_prime, g.conj().T @ g_f @ sol.phi_prime)
                assert abs(abs(z) - sol.k) < 1e-8
                if sol.k > 1e-9:
                    assert abs(z - sol.k * np.exp(1j * sol.kappa)) < 1e-8

    def test_no_state_beats_the_separator(self):
        # <x|S|x> is a convex combination of eigenvalues for any unit x,
        # so no state can undercut the simplex minimum.
        rng = np.random.default_rng(31)
        for dim in (2, 4, 8):
            g, g_f = haar_unitary(dim, rng), haar_unitary(dim, rng)
            s = g.conj().T @ g_f
            sol = gate_separator(g, g_f)
            for _ in range(100):
                x = random_state(dim, rng)
                assert abs(np.vdot(x, s @ x)) >= sol.k - 1e-9
            for b in range(dim):
                assert abs(s[b, b]) >= sol.k - 1e-9

    def test_trace_distance_identity(self):
        # For unit states, the trace distance of the healthy and faulty
        # outputs is sqrt(1 - k^2); numpy's eigh is the oracle.
        rng = np.random.default_rng(37)
        for dim in (2, 4):
            g, g_f = haar_unitary(dim, rng), haar_unitary(dim, rng)
            sol = gate_separator(g, g_f)
            psi = g @ sol.phi_prime
            psi_p = g_f @ sol.phi_prime
            diff = np.outer(psi, psi.conj()) - np.outer(psi_p, psi_p.conj())
            td = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
            assert td == pytest.approx(math.sqrt(1.0 - sol.k**2), abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9), dim=st.sampled_from([2, 4, 8]))
    def test_separator_properties(self, seed, dim):
        rng = np.random.default_rng(seed)
        g, g_f = haar_unitary(dim, rng), haar_unitary(dim, rng)
        sol = gate_separator(g, g_f)
        assert 0.0 <= sol.k <= 1.0 + 1e-12
        z = np.vdot(sol.phi_prime, g.conj().T @ g_f @ sol.phi_prime)
        assert abs(abs(z) - sol.k) < 1e-8


# ═══════════════════════════════════════════════════════════════════════════
# Section 3: Circuit-level separators
# ═══════════════════════════════════════════════════════════════════════════

class TestCircuitSeparator:
    def test_prefix_free_gate_needs_no_pullback(self, benchmark_circuit, smgf_spec):
        sol = circuit_separator(benchmark_circuit, smgf_spec, 1, HALF)
        np.testing.assert_allclose(sol.phi, sol.phi_prime, atol=1e-12)
        assert sol.k == pytest.approx(0.0, abs=1e-12)

    def test_lift_places_state_on_gate_qubits(self, benchmark_circuit, smgf_spec):
        # Gate 3 is h on qubit 2 with prefix {toffoli, h q0}; the pulled
        # back input must still be a unit vector.
        sol = circuit_separator(benchmark_circuit, smgf_spec, 3, HALF)
        assert abs(np.linalg.norm(sol.phi) - 1.0) < 1e-12
        assert sol.phi.shape == (8,)
        assert sol.phi_prime.shape == (2,)

    @pytest.mark.parametrize("conv", [HALF, FULL])
    def test_output_overlap_matches_k_for_every_gate(
        self, benchmark_circuit, smgf_spec, conv
    ):
        for i in range(1, benchmark_circuit.size + 1):
            sol = circuit_separator(benchmark_circuit, smgf_spec, i, conv)
            healthy = apply(benchmark_circuit, sol.phi, conv)
            faulty = apply(faulty_variant(benchmark_circuit, smgf_spec, i), sol.phi, conv)
            overlap = abs(np.vdot(healthy, faulty))
            assert overlap == pytest.approx(sol.k, abs=1e-8), (
                f"gate {i}: output overlap {overlap} != separator k {sol.k}"
            )

    def test_suffix_gates_cannot_change_the_solution(self, smgf_spec):
        base = Circuit(
            n=3,
            gates=(
                PlacedGate(kind=GateKind.TOFFOLI, qubits=(0, 1, 2)),
                PlacedGate(kind=GateKind.H, qubits=(0,)),
                PlacedGate(kind=GateKind.RY, qubits=(2,), angle=math.pi / 6),
            ),
        )
        extra = (
            PlacedGate(kind=GateKind.CNOT, qubits=(0, 1)),
            PlacedGate(kind=GateKind.RZ, qubits=(1,), angle=0.4),
            PlacedGate(kind=GateKind.H, qubits=(2,)),
        )
        extended = Circuit(n=3, gates=base.gates + extra)
        for i in (1, 2, 3):
            a = circuit_separator(base, smgf_spec, i, HALF)
            b = circuit_separator(extended, smgf_spec, i, HALF)
            assert a.k == b.k and a.kappa == b.kappa
            np.testing.assert_allclose(a.phi_prime, b.phi_prime, atol=0)
            np.testing.assert_allclose(a.phi, b.phi, atol=0)

    def test_index_bounds(self, benchmark_circuit, smgf_spec):
        with pytest.raises(ValueError, match="outside"):
            circuit_separator(benchmark_circuit, smgf_spec, 0, HALF)
        with pytest.raises(ValueError, match="outside"):
            circuit_separator(benchmark_circuit, smgf_spec, 7, HALF)

    def test_solution_type(self, benchmark_circuit, smgf_spec):
        sol = circuit_separator(benchmark_circuit, smgf_spec, 5, HALF)
        assert isinstance(sol, SeparatorSolution)
        assert sol.k == pytest.approx(math.cos(math.pi / 32), abs=1e-12)
