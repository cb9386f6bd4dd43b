"""Optimal two-state discrimination tests for circuit fault detection.

Given the healthy output psi = C phi and the faulty output psi' = C_i phi
for the optimal separator input phi, the best projective test measures
along a rotated orthonormal pair (omega_plus, omega_minus) spanning
span{psi, psi'}. Writing <psi|psi'> = k e^{i kappa} and

    r1 = (sqrt(1 + k) + sqrt(1 - k)) / 2
    r2 = (sqrt(1 + k) - sqrt(1 - k)) / 2

the pair

    omega_plus  = (r1 psi - r2 e^{-i kappa} psi') / sqrt(1 - k^2)
    omega_minus = (-r2 psi + r1 e^{-i kappa} psi') / sqrt(1 - k^2)

is orthonormal for every kappa (note sqrt(1 - k^2) = r1^2 - r2^2), puts
|<omega_minus|psi>|^2 = |<omega_plus|psi'>|^2 = delta with
delta = (1 - sqrt(1 - k^2)) / 2, and so misclassifies either hypothesis
with the same minimal probability delta. Outcome 0 votes healthy,
outcome 1 votes faulty, and the rest of the space is the inconclusive
outcome that only appears for circuits differing from both hypotheses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qatpg.circuit import Circuit, RotationConvention, _apply_gate, apply, gate_matrix
from qatpg.faults import FaultSpec, fault_operator, faulty_variant
from qatpg.linalg import CMatrix, CVector, inner
from qatpg.separator import SeparatorSolution, circuit_separator

# Overlap this close to 1 leaves no measurable difference to exploit.
UNDETECTABLE_TOL = 1e-9

# Residual headroom allowed for the defensive re-orthonormalization.
GRAM_SCHMIDT_TOL = 1e-8


class UndetectableFault(RuntimeError):
    """The healthy and faulty circuits act identically on every separator input."""

    def __init__(self, message: str, gate_index: int | None = None, k: float | None = None):
        super().__init__(message)
        self.gate_index = gate_index
        self.k = k


@dataclass(frozen=True)
class OutcomeTriplet:
    """Probabilities of (healthy vote, faulty vote, inconclusive)."""

    p0: float
    p1: float
    p_unknown: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p_unknown], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "OutcomeTriplet":
        a = np.asarray(arr, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"triplet needs 3 entries, got shape {a.shape}")
        return cls(p0=float(a[0]), p1=float(a[1]), p_unknown=float(a[2]))


@dataclass(frozen=True)
class HelstromTest:
    """The full test for one gate: input state and measurement pair.

    The outcome projectors are rank-1 (or their complement) and are built
    on demand from the measurement pair; a test stores only vectors.
    """

    gate_index: int
    input_state: CVector
    omega_plus: CVector
    omega_minus: CVector
    delta: float
    k: float
    kappa: float
    r1: float
    r2: float
    convention: RotationConvention
    separator: SeparatorSolution

    @property
    def proj0(self) -> CMatrix:
        """Dense projector onto omega_plus (outcome 0, healthy vote)."""
        return np.outer(self.omega_plus, self.omega_plus.conj())

    @property
    def proj1(self) -> CMatrix:
        """Dense projector onto omega_minus (outcome 1, faulty vote)."""
        return np.outer(self.omega_minus, self.omega_minus.conj())

    @property
    def proj_unknown(self) -> CMatrix:
        """Dense projector onto the complement of span{omega_plus, omega_minus}."""
        p = np.eye(len(self.omega_plus), dtype=np.complex128) - self.proj0 - self.proj1
        return (p + p.conj().T) / 2.0


def error_probability(k: float) -> float:
    """Minimal misclassification probability for residual overlap k."""
    if k < -1e-12 or k > 1 + 1e-12:
        raise ValueError(f"overlap {k} outside [0, 1]")
    k = min(1.0, max(0.0, float(k)))
    return (1.0 - math.sqrt(1.0 - k * k)) / 2.0


def _discrimination_pair(psi: CVector, psi_p: CVector):
    """Orthonormal measurement pair plus (k, kappa, r1, r2) for two unit states."""
    z = inner(psi, psi_p)
    k = abs(z)
    if k >= 1.0 - UNDETECTABLE_TOL:
        raise UndetectableFault(
            f"states overlap by {k:.12f}; no measurement separates them", k=k
        )
    if k < UNDETECTABLE_TOL:
        # Orthogonal hypotheses: measure along the states themselves.
        kappa = 0.0
        r1, r2 = 1.0, 0.0
        omega_plus = psi.copy()
        omega_minus = psi_p.copy()
    else:
        kappa = math.atan2(z.imag, z.real)
        r1 = (math.sqrt(1.0 + k) + math.sqrt(1.0 - k)) / 2.0
        r2 = (math.sqrt(1.0 + k) - math.sqrt(1.0 - k)) / 2.0
        den = math.sqrt(1.0 - k * k)
        e = np.exp(-1j * kappa)
        omega_plus = (r1 * psi - r2 * e * psi_p) / den
        omega_minus = (-r2 * psi + r1 * e * psi_p) / den
    # Defensive re-orthonormalization; the correction must stay negligible.
    correction = 0.0
    nrm = float(np.linalg.norm(omega_plus))
    correction = max(correction, abs(nrm - 1.0))
    omega_plus = omega_plus / nrm
    overlap = inner(omega_plus, omega_minus)
    correction = max(correction, abs(overlap))
    omega_minus = omega_minus - overlap * omega_plus
    nrm = float(np.linalg.norm(omega_minus))
    correction = max(correction, abs(nrm - 1.0))
    omega_minus = omega_minus / nrm
    if correction > GRAM_SCHMIDT_TOL:
        raise AssertionError(
            f"measurement pair needed a {correction:.3e} correction; "
            "the closed form should be orthonormal to rounding"
        )
    return omega_plus, omega_minus, k, kappa, r1, r2


def build_test(
    circuit: Circuit,
    spec: FaultSpec,
    i: int,
    convention: RotationConvention,
    tol: float = 1e-9,
) -> HelstromTest:
    """Assemble the optimal test for gate i: separator input plus measurement.

    Raises UndetectableFault when the faulty variant is indistinguishable,
    which happens exactly when every eigenphase of the gate-local product
    coincides (residual overlap within 1e-9 of 1).
    """
    sep = circuit_separator(circuit, spec, i, convention, tol=tol)
    psi = apply(circuit, sep.phi, convention)
    psi_p = apply(faulty_variant(circuit, spec, i), sep.phi, convention)
    try:
        omega_plus, omega_minus, k, kappa, r1, r2 = _discrimination_pair(psi, psi_p)
    except UndetectableFault as exc:
        raise UndetectableFault(str(exc), gate_index=i, k=exc.k) from None
    if abs(k - sep.k) > 1e-8:
        raise AssertionError(
            f"output overlap {k:.12f} disagrees with separator value {sep.k:.12f}"
        )
    delta = error_probability(k)
    return HelstromTest(
        gate_index=i,
        input_state=sep.phi,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        delta=float(delta),
        k=float(k),
        kappa=float(kappa),
        r1=float(r1),
        r2=float(r2),
        convention=convention,
        separator=sep,
    )


def _triplets(a_plus, a_minus) -> np.ndarray:
    """Outcome triplets from the amplitudes <omega_plus|sigma>, <omega_minus|sigma>.

    p0 and p1 are the Born weights clipped at 1; the inconclusive weight is
    their complement clipped at 0. The last axis of the result is
    (p0, p1, p_unknown).
    """
    p0 = np.minimum(1.0, np.abs(a_plus) ** 2)
    p1 = np.minimum(1.0, np.abs(a_minus) ** 2)
    return np.stack([p0, p1, np.maximum(0.0, 1.0 - p0 - p1)], axis=-1)


def outcome_probs(test: HelstromTest, variant: Circuit, convention: RotationConvention | None = None) -> OutcomeTriplet:
    """Exact outcome distribution when the circuit under test is `variant`.

    p0 and p1 are rank-1 expectation values |<omega|sigma>|^2; the
    inconclusive weight is their complement clipped at zero.
    """
    conv = convention if convention is not None else test.convention
    sigma = apply(variant, test.input_state, conv)
    return OutcomeTriplet.from_array(
        _triplets(inner(test.omega_plus, sigma), inner(test.omega_minus, sigma))
    )


def table_cells(
    circuit: Circuit,
    spec: FaultSpec,
    tests: list[HelstromTest],
    convention: RotationConvention,
) -> np.ndarray:
    """Outcome triplets of every test on every hypothesis in one sweep.

    Returns shape (len(tests), s + 1, 3); entry [j, r] equals
    outcome_probs(tests[j], faulty_variant(circuit, spec, r)). With A_r
    the gates before r and B_r the adjoints of the gates after r, the
    amplitude of cell (q, r) is <B_r omega | F_r A_r phi_q>, F_r being the
    fault operator of gate r. The inputs X = A_r phi and the measurement
    vectors W = B_r omega of all tests are held as one batch each (a
    trailing axis on the state tensor) and moved forward together gate by
    gate. The table costs 4 s batched gate applications instead of
    s (s + 1) circuit simulations, and no prefix state is stored.
    """
    n, s = circuit.n, circuit.size
    if not tests:
        return np.empty((0, s + 1, 3))
    shape = (2,) * n + (-1,)
    x = np.stack([t.input_state for t in tests], axis=-1).reshape(shape)
    w = np.stack(
        [t.omega_plus for t in tests] + [t.omega_minus for t in tests], axis=-1
    ).reshape(shape)
    gates = circuit.gates
    mats = [gate_matrix(g, convention) for g in gates]
    for g, mat in zip(reversed(gates), reversed(mats)):
        w = _apply_gate(mat.conj().T, g.qubits, w, n)
    cells = np.empty((len(tests), s + 1, 3))

    def fill(r: int, sigma: np.ndarray) -> None:
        # w holds (omega_plus of every test, omega_minus of every test).
        a = np.einsum("ipq,iq->pq", w.reshape(2 ** n, 2, -1).conj(), sigma.reshape(2 ** n, -1))
        cells[:, r] = _triplets(a[0], a[1])

    fill(0, x)
    for r, (g, mat) in enumerate(zip(gates, mats), start=1):
        w = _apply_gate(mat, g.qubits, w, n)
        fill(r, _apply_gate(fault_operator(circuit, spec, r), g.qubits, x, n))
        x = _apply_gate(mat, g.qubits, x, n)
    return cells
