"""Shared test utilities: Haar sampling, random circuits, and a grid oracle.

Everything here is deliberately independent of the package internals it is
used to check: the Haar sampler goes through numpy's QR, the grid oracle
scans the probability simplex directly, and the random circuit generator
only touches the public constructors.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from qatpg.circuit import Circuit, GateKind, PlacedGate
from qatpg.faults import FaultModel, FaultSpec, GateFault

ARITY = {
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

ANGLED = (GateKind.RY, GateKind.RZ)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_circuit(
    rng: np.random.Generator,
    n: int | None = None,
    size: int | None = None,
    max_n: int = 5,
    max_s: int = 8,
) -> Circuit:
    """Random circuit over the built-in gate pool.

    Rotation angles stay in [0.3, 2 pi - 0.3] so no gate degenerates into
    the identity and every single-gate fault stays detectable.
    """
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    if size is None:
        size = int(rng.integers(1, max_s + 1))
    kinds = [k for k, a in ARITY.items() if a <= n]
    gates = []
    for _ in range(size):
        kind = kinds[int(rng.integers(len(kinds)))]
        qubits = tuple(int(q) for q in rng.choice(n, size=ARITY[kind], replace=False))
        angle = None
        if kind in ANGLED:
            angle = float(rng.uniform(0.3, 2.0 * math.pi - 0.3))
        gates.append(PlacedGate(kind=kind, qubits=qubits, angle=angle))
    return Circuit(n=n, gates=tuple(gates))


def random_instance(
    rng: np.random.Generator, max_n: int = 5, max_s: int = 8
) -> tuple[Circuit, FaultSpec, int]:
    """Random (circuit, fault spec, target gate index) triple.

    Half the time the target gate fault is a replacement by a Haar-random
    unitary instead of the default missing-gate fault.
    """
    circuit = random_circuit(rng, max_n=max_n, max_s=max_s)
    i = int(rng.integers(1, circuit.size + 1))
    if rng.random() < 0.5:
        dim = 2 ** circuit.gates[i - 1].arity
        fault = GateFault(kind=FaultModel.REPLACE, matrix=haar_unitary(dim, rng))
        spec = FaultSpec(overrides={i: fault})
    else:
        spec = FaultSpec()
    return circuit, spec, i


_SIMPLEX3: dict[float, np.ndarray] = {}

# Values of the first weight scanned per block by grid_min for m = 4.
_GRID_ROWS = 16


def _simplex3(step: float) -> np.ndarray:
    """All weight triples (a, b, 1-a-b) on a step-spaced 2-simplex grid."""
    if step not in _SIMPLEX3:
        ts = np.arange(0.0, 1.0 + step / 2, step)
        aa, bb = np.meshgrid(ts, ts, indexing="ij")
        keep = aa + bb <= 1.0 + 1e-12
        _SIMPLEX3[step] = np.stack(
            [aa[keep], bb[keep], 1.0 - aa[keep] - bb[keep]], axis=1
        )
    return _SIMPLEX3[step]


def grid_min(phases, step: float = 0.002) -> float:
    """Brute-force min of |sum_j a_j exp(-i phases_j)| over the simplex.

    m <= 4 scans the full simplex grid; for larger m every 3-element
    support is scanned, which is exhaustive for this objective because a
    point of a planar convex hull is a combination of at most 3 vertices.
    """
    z = np.exp(-1j * np.asarray(phases, dtype=float))
    m = len(z)
    if m == 1:
        return float(abs(z[0]))
    ts = np.arange(0.0, 1.0 + step / 2, step)
    if m == 2:
        pts = (1.0 - ts) * z[0] + ts * z[1]
        return float(np.abs(pts).min())
    w = _simplex3(step)
    if m == 3:
        return float(np.abs(w @ z).min())
    if m == 4:
        # Points a z0 + (1 - a) b for every grid a and every 3-simplex point b.
        # Expanded, |a z0 + (1 - a) b|^2 = (a^2, a (1 - a), (1 - a)^2) . coef_b,
        # so a block of a values is one small matrix product; blocks of
        # _GRID_ROWS values keep the temporary array near 16 MB.
        base = w @ z[1:]
        coef = np.stack(
            [np.full(len(base), abs(z[0]) ** 2), 2.0 * (z[0].conj() * base).real, np.abs(base) ** 2]
        )
        rem = 1.0 - ts
        mono = np.stack([ts * ts, ts * rem, rem * rem], axis=1)
        best2 = min(
            float((mono[i:i + _GRID_ROWS] @ coef).min()) for i in range(0, len(ts), _GRID_ROWS)
        )
        return math.sqrt(max(best2, 0.0))
    triples = np.array(list(itertools.combinations(range(m), 3)))
    pts = w @ z[triples].T
    return float(np.abs(pts).min())
