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

A faulty circuit differs from the healthy one in one gate only, so every
quantity of a test is solved in that gate's own space (at most 8
dimensions) and reaches the register only through the gates around it:
lifting a gate-local vector onto the register keeps inner products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from qatpg.circuit import Circuit, RotationConvention, _apply_gate, apply, gate_matrix
from qatpg.faults import FaultSpec, fault_operator
from qatpg.linalg import CMatrix, CVector, inner
from qatpg.separator import SeparatorSolution, _lift_to_register, circuit_separator, gate_separator

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


def _local_test(sep: SeparatorSolution, gate_index: int):
    """Gate-local test data: columns (phi', G^dag omega+, G^dag omega-) and (k, kappa, r1, r2).

    With S = G^dag F, S v_j = exp(-i theta_j) v_j and phi' = sum_j c_j v_j,
    G phi' and F phi' overlap by z = sum_j |c_j|^2 exp(-i theta_j) =
    k exp(i kappa). With a_j = kappa + theta_j and u_j = 1 - e^{-i a_j},

        G^dag omega+ = sum_j c_j (sqrt(1 - k) + r2 u_j) v_j / sqrt(1 - k^2)
        G^dag omega- = sum_j c_j (sqrt(1 - k) - r1 u_j) v_j / sqrt(1 - k^2)

    is the module's pair (r1 - r2 = sqrt(1 - k)). As u = 2i sin(a/2) e^{-i a/2}
    and 1 - k = sum_j |c_j|^2 Re u_j, no difference of nearly equal numbers
    is formed, so the pair keeps full accuracy as k nears 1.
    """
    vecs = np.array([v for c in sep.classes for v in c.eigenvectors]).T
    theta = np.array([t for c in sep.classes for t in c.eigenphases])
    c = vecs.conj().T @ sep.phi_prime
    p = np.abs(c) ** 2
    z = complex(p @ np.exp(-1j * theta))
    k = abs(z)
    if k >= 1.0 - UNDETECTABLE_TOL:
        raise UndetectableFault(
            f"states overlap by {k:.12f}; no measurement separates them",
            gate_index=gate_index, k=k,
        )
    if abs(k - sep.k) > 1e-8:
        raise AssertionError(
            f"output overlap {k:.12f} disagrees with separator value {sep.k:.12f}"
        )
    kappa = math.atan2(z.imag, z.real) if k >= UNDETECTABLE_TOL else 0.0
    half = (kappa + theta) / 2.0
    u = 2j * np.sin(half) * np.exp(-1j * half)  # 1 - exp(-i a_j)
    if k < UNDETECTABLE_TOL:
        # Orthogonal hypotheses: measure along the states themselves.
        r1, r2, root_1mk, den = 1.0, 0.0, 1.0, 1.0
    else:
        root_1mk, root_1pk = math.sqrt(float(p @ u.real)), math.sqrt(1.0 + k)
        r1, r2 = (root_1pk + root_1mk) / 2.0, (root_1pk - root_1mk) / 2.0
        den = root_1pk * root_1mk
    omega_plus = vecs @ (c * (root_1mk + r2 * u)) / den
    omega_minus = vecs @ (c * (root_1mk - r1 * u)) / den
    # Defensive re-orthonormalization; the correction must stay negligible.
    nrm_plus = float(np.linalg.norm(omega_plus))
    omega_plus = omega_plus / nrm_plus
    overlap = inner(omega_plus, omega_minus)
    omega_minus = omega_minus - overlap * omega_plus
    nrm_minus = float(np.linalg.norm(omega_minus))
    omega_minus = omega_minus / nrm_minus
    correction = max(abs(nrm_plus - 1.0), abs(overlap), abs(nrm_minus - 1.0))
    if correction > GRAM_SCHMIDT_TOL:
        raise AssertionError(
            f"measurement pair needed a {correction:.3e} correction; "
            "the closed form should be orthonormal to rounding"
        )
    local = np.stack([sep.phi_prime, omega_plus, omega_minus], axis=1)
    return local, (k, kappa, r1, r2)


def _make_test(i, sep, omega_plus, omega_minus, pair, convention) -> HelstromTest:
    """A test from its register vectors and the gate-local (k, kappa, r1, r2).

    delta = r2^2 keeps full accuracy as k nears 1, unlike error_probability(k).
    """
    k, kappa, r1, r2 = (float(x) for x in pair)
    return HelstromTest(
        gate_index=i, input_state=sep.phi, omega_plus=omega_plus, omega_minus=omega_minus,
        delta=r2 * r2, k=k, kappa=kappa, r1=r1, r2=r2,
        convention=convention, separator=sep,
    )


def build_test(
    circuit: Circuit,
    spec: FaultSpec,
    i: int,
    convention: RotationConvention,
    tol: float = 1e-9,
) -> HelstromTest:
    """Assemble the optimal test for gate i: separator input plus measurement.

    The test is solved in the gate's own space (`_local_test`); the
    register enters through the prefix pullback of phi'
    (`circuit_separator`) and one push of lift(G^dag omega+-) through gate
    i and the gates after it.

    Raises UndetectableFault when the faulty variant is indistinguishable,
    which happens exactly when every eigenphase of the gate-local product
    coincides (residual overlap within 1e-9 of 1).
    """
    sep = circuit_separator(circuit, spec, i, convention, tol=tol)
    local, pair = _local_test(sep, i)
    gate = circuit.gates[i - 1]
    omegas = apply(
        Circuit(circuit.n, circuit.gates[i - 1:]),
        _lift_to_register(local[:, 1:], gate.qubits, circuit.n),
        convention,
    )
    return _make_test(i, sep, omegas[:, 0], omegas[:, 1], pair, convention)


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
    convention: RotationConvention,
    tol: float = 1e-9,
) -> tuple[np.ndarray, dict[int, HelstromTest]]:
    """Every detectable gate's test and its outcome triplets on every hypothesis.

    Returns (cells, tests): tests maps each detectable gate q to the test
    build_test returns; cells has shape (s, s + 1, 3), NaN rows for
    undetectable gates, and [q - 1, r] equal to
    outcome_probs(tests[q], faulty_variant(circuit, spec, r)).

    Two columns per test: G^dag omega+- lie in span{phi', e} with
    e = normalise(G^dag omega- - <phi'|G^dag omega-> phi'), and the 2x2
    unitary M = (phi', e)^dag (G^dag omega+, G^dag omega-) carries them
    over. e comes from omega-, whose overlap with phi' is at most
    sqrt(delta) <= sqrt(1/2); G^dag omega+ is phi' to rounding when k = 0.

    Cell (q, r) has amplitude <G_r u | F_r x> at gate r, u and x the
    images of test q's columns and input at the cut before gate r, F_r
    the fault operator. For r < q both come from the backward sweep (the
    batch after and before G_r^dag), which adds test r's lifted (phi', e)
    before gate r and ends holding every phi_q; for r > q both come from
    the forward sweep (the batch before and after G_r), which adds
    lift(G_r (phi', e)) after gate r and ends holding (omega+, omega-)_q
    up to M. Column 0 and the diagonal are gate-local inner products. Each
    distinct (G, F) pair is solved once, each gate matrix is built once
    and no circuit is simulated.
    """
    n, s, dim = circuit.n, circuit.size, 2 ** circuit.n
    gates = circuit.gates
    mats = [gate_matrix(g, convention) for g in gates]
    faults = [fault_operator(circuit, spec, r) for r in range(1, s + 1)]
    solved, local = {}, {}
    for q, (mat, f) in enumerate(zip(mats, faults), start=1):
        key = (mat.tobytes(), f.tobytes())
        if key not in solved:
            sep = gate_separator(mat, f, tol=tol)
            try:
                cols, pair = _local_test(sep, q)
            except UndetectableFault:
                solved[key] = None
                continue
            e = cols[:, 2] - inner(cols[:, 0], cols[:, 2]) * cols[:, 0]
            basis = np.stack([cols[:, 0], e / np.linalg.norm(e)], axis=1)
            solved[key] = (sep, pair, basis, basis.conj().T @ cols[:, 1:])
        if solved[key] is not None:
            local[q] = solved[key]
    # raw[q - 1, r, c] = <sigma | column c> for test q on hypothesis r;
    # the conjugate of the amplitude has the same modulus.
    raw = np.zeros((s, s + 1, 2), dtype=np.complex128)
    for q, (sep, _pair, basis, _m) in local.items():
        raw[q - 1, 0] = sep.phi_prime.conj() @ basis
        raw[q - 1, q] = (faults[q - 1] @ sep.phi_prime).conj() @ mats[q - 1] @ basis

    def lifted(q: int, cols: np.ndarray) -> np.ndarray:
        return _lift_to_register(cols, gates[q - 1].qubits, n).reshape((2,) * n + (1, 2))

    moves = [None if np.array_equal(f, np.eye(len(f))) else f for f in faults]

    def fill(r: int, tests: list[int], cols: np.ndarray, x: np.ndarray) -> None:
        """Column r of the tests from their columns after gate r and inputs before it."""
        if moves[r - 1] is not None:
            x = _apply_gate(moves[r - 1], gates[r - 1].qubits, x, n)
        sigma = x.reshape(dim, -1).T.conj()[..., None]
        raw[[q - 1 for q in tests], r] = (cols.reshape(dim, -1, 2).transpose(1, 2, 0) @ sigma)[..., 0]

    # Each sweep runs in its own function, so its batch is freed on return.
    empty = np.zeros((2,) * n + (0, 2), dtype=np.complex128)

    def backward() -> np.ndarray:
        """Cells (q, r < q); returns every input phi_q."""
        y, tests = empty, []
        for r in range(s, 0, -1):
            if tests:
                before = _apply_gate(mats[r - 1].conj().T, gates[r - 1].qubits, y, n)
                fill(r, tests, y, before[..., 0])
                y = before
            if r in local:
                y, tests = np.concatenate([lifted(r, local[r][2]), y], axis=-2), [r] + tests
        return y[..., 0].reshape(dim, -1).T.copy()

    def forward() -> np.ndarray:
        """Cells (q, r > q); returns every test's columns after gate s."""
        z, tests = empty, []
        for r in range(1, s + 1):
            if tests:
                after = _apply_gate(mats[r - 1], gates[r - 1].qubits, z, n)
                fill(r, tests, after, z[..., 0])
                z = after
            if r in local:
                z, tests = np.concatenate([z, lifted(r, mats[r - 1] @ local[r][2])], axis=-2), tests + [r]
        return z.reshape(dim, -1, 2)

    inputs, ends = backward(), forward()
    rows = [q - 1 for q in local]
    ms = np.array([m for (_sep, _pair, _basis, m) in local.values()]).reshape(-1, 2, 2)
    amps = raw[rows] @ ms
    cells = np.full((s, s + 1, 3), np.nan)
    cells[rows] = _triplets(amps[..., 0], amps[..., 1])
    omegas = ms.transpose(0, 2, 1) @ ends.transpose(1, 2, 0)
    return cells, {
        q: _make_test(q, replace(sep, phi=inputs[j]), omegas[j, 0], omegas[j, 1], pair, convention)
        for j, (q, (sep, pair, _basis, _m)) in enumerate(local.items())
    }
