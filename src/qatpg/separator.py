"""Optimal separator input states for telling a gate from its faulty stand-in.

For a gate G and wrong unitary G_f, the product S = G^dag G_f is unitary
with eigenvalues exp(-i theta_j). An input drawn from the eigenvectors with
weights a_j makes the healthy and faulty circuits overlap by
|sum_j a_j exp(-i theta_j)|, so the best input minimizes that modulus over
the probability simplex. Geometrically this is the distance from the origin
to the convex hull of the eigenvalue points on the unit circle, which is
solved exactly: the minimum sits on a vertex, on an edge, or at the origin
when the hull contains it.

The minimizing weights spread uniformly inside each degenerate eigenvalue
class, which keeps the input state insensitive to basis choices within a
class up to a deterministic convention.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from qatpg.circuit import (
    Circuit,
    RotationConvention,
    apply_adjoint,
    gate_matrix,
    split,
)
from qatpg.faults import FaultSpec, fault_operator
from qatpg.linalg import CMatrix, CVector, as_cmatrix, eig_unitary

# Eigenphases closer than this (circularly) belong to one class.
PHASE_CLUSTER_TOL = 1e-8

# Below this the overlap is treated as exactly zero and kappa pinned to 0.
ZERO_OVERLAP_TOL = 1e-9


@dataclass(frozen=True)
class PhaseClass:
    """Eigenphases within PHASE_CLUSTER_TOL, their circular mean and simplex weight."""

    phase: float
    eigenvectors: tuple[CVector, ...]
    weight: float
    eigenphases: tuple[float, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.eigenvectors)


@dataclass(frozen=True)
class SeparatorSolution:
    """Optimal separator data for one gate inside one circuit.

    k is the residual overlap |<healthy|faulty>|, kappa its phase,
    phi_prime the gate-local input and phi the full-register input that
    reaches it through the prefix.
    """

    classes: tuple[PhaseClass, ...]
    k: float
    kappa: float
    phi_prime: CVector
    phi: CVector


def solve_opt(phases) -> tuple[np.ndarray, float, float]:
    """Minimize |sum_j a_j exp(-i theta_j)| over the probability simplex.

    Returns (weights, k, kappa) with k the attained minimum and kappa the
    argument of the attained sum (0 when k vanishes). Exact geometry: the
    target is the squared distance from the origin to the convex hull of
    unit-circle points, so the optimum lies on a vertex or an edge, or the
    hull contains the origin and k = 0.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or len(phases) == 0:
        raise ValueError("phases must be a non-empty 1-d sequence")
    pts = np.exp(-1j * phases)
    m = len(pts)
    if m == 1:
        return np.array([1.0]), 1.0, float(-phases[0])
    args = np.sort(np.angle(pts))
    gaps = np.diff(np.concatenate([args, [args[0] + 2 * math.pi]]))
    if gaps.max() < math.pi - 1e-12:
        # Origin strictly inside the hull: weights from a containing triangle.
        for i, j, k in itertools.combinations(range(m), 3):
            mat = np.array(
                [
                    [pts[i].real, pts[j].real, pts[k].real],
                    [pts[i].imag, pts[j].imag, pts[k].imag],
                    [1.0, 1.0, 1.0],
                ]
            )
            try:
                bary = np.linalg.solve(mat, np.array([0.0, 0.0, 1.0]))
            except np.linalg.LinAlgError:
                continue
            if np.all(bary >= -1e-12):
                w = np.zeros(m)
                w[[i, j, k]] = np.clip(bary, 0.0, 1.0)
                w /= w.sum()
                return w, 0.0, 0.0
        raise RuntimeError("origin inside hull but no containing triangle found")
    best_val = abs(pts[0])
    best_w = np.zeros(m)
    best_w[0] = 1.0
    for i in range(1, m):
        if abs(pts[i]) < best_val:
            best_val = abs(pts[i])
            best_w = np.zeros(m)
            best_w[i] = 1.0
    for i, j in itertools.combinations(range(m), 2):
        d = pts[j] - pts[i]
        dd = (d.conj() * d).real
        if dd < 1e-30:
            continue
        t = -((d.conj() * pts[i]).real) / dd
        t = min(1.0, max(0.0, t))
        p = (1 - t) * pts[i] + t * pts[j]
        if abs(p) < best_val:
            best_val = abs(p)
            best_w = np.zeros(m)
            best_w[i], best_w[j] = 1 - t, t
    z = np.dot(best_w, pts)
    k = abs(z)
    kappa = math.atan2(z.imag, z.real) if k >= ZERO_OVERLAP_TOL else 0.0
    return best_w, float(k), float(kappa)


def _cluster_phases(phases: np.ndarray) -> list[list[int]]:
    """Group ascending phases into classes, merging the -pi/pi wraparound."""
    classes: list[list[int]] = []
    i = 0
    while i < len(phases):
        j = i + 1
        while j < len(phases) and phases[j] - phases[j - 1] <= PHASE_CLUSTER_TOL:
            j += 1
        classes.append(list(range(i, j)))
        i = j
    if len(classes) > 1:
        lo, hi = classes[0], classes[-1]
        if (phases[lo[0]] + 2 * math.pi) - phases[hi[-1]] <= PHASE_CLUSTER_TOL:
            classes[0] = hi + lo
            classes.pop()
    return classes


def _circular_mean(phases: np.ndarray) -> float:
    zsum = np.exp(-1j * phases).sum()
    return -math.atan2(zsum.imag, zsum.real)


def _compose_input(classes, weights, vectors, dim) -> CVector:
    """Uniform spread within each class, square-root weights across classes."""
    phi = np.zeros(dim, dtype=np.complex128)
    for cw, cls in zip(weights, classes):
        if cw <= 0:
            continue
        spread = np.zeros(dim, dtype=np.complex128)
        for idx in cls:
            spread += vectors[idx]
        spread /= np.linalg.norm(spread)
        phi += math.sqrt(cw) * spread
    return phi / np.linalg.norm(phi)


def gate_separator(g: CMatrix, g_f: CMatrix, tol: float = 1e-9) -> SeparatorSolution:
    """Optimal separator input for gate G against wrong unitary G_f.

    The returned phi equals phi_prime (gate-local coordinates); use
    circuit_separator to pull the input back through a circuit prefix.
    """
    g = as_cmatrix(g)
    g_f = as_cmatrix(g_f)
    if g.shape != g_f.shape:
        raise ValueError(f"gate shapes differ: {g.shape} vs {g_f.shape}")
    s = g.conj().T @ g_f
    pairs = eig_unitary(s, tol=tol)
    phases = np.array([p.phase for p in pairs])
    vectors = [p.vector for p in pairs]

    idx_classes = _cluster_phases(phases)
    reps = np.array([_circular_mean(phases[cls]) for cls in idx_classes])
    weights, k, kappa = solve_opt(reps)
    phi_prime = _compose_input(idx_classes, weights, vectors, s.shape[0])
    classes = tuple(
        PhaseClass(
            phase=float(rep),
            eigenvectors=tuple(vectors[i] for i in cls),
            weight=float(w),
            eigenphases=tuple(float(phases[i]) for i in cls),
        )
        for rep, cls, w in zip(reps, idx_classes, weights)
    )
    return SeparatorSolution(
        classes=classes, k=float(k), kappa=float(kappa), phi_prime=phi_prime, phi=phi_prime
    )


def _lift_to_register(local: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Place a gate-local vector (or block of columns) on the gate qubits, |0> elsewhere."""
    m = len(qubits)
    gidx = np.arange(2 ** m)
    full = np.zeros(2 ** m, dtype=np.intp)
    for pos, q in enumerate(qubits):
        full |= ((gidx >> (m - 1 - pos)) & 1) << (n - 1 - q)
    lifted = np.zeros((2 ** n,) + local.shape[1:], dtype=np.complex128)
    lifted[full] = local
    return lifted


def circuit_separator(
    circuit: Circuit,
    spec: FaultSpec,
    i: int,
    convention: RotationConvention,
    tol: float = 1e-9,
) -> SeparatorSolution:
    """Separator input for gate i of a circuit under the given fault spec.

    Solves the gate-local problem and pulls the lifted phi' back through
    the gates A before i: phi = A^dag lift(phi') reaches gate i as the
    optimal input. The suffix never enters, so edits after gate i cannot
    change the input.
    """
    prefix, gate, _suffix = split(circuit, i)
    g = gate_matrix(gate, convention)
    g_f = fault_operator(circuit, spec, i)
    sol = gate_separator(g, g_f, tol=tol)
    lifted = _lift_to_register(sol.phi_prime, gate.qubits, circuit.n)
    return replace(sol, phi=apply_adjoint(prefix, lifted, convention))
