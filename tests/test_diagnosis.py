"""
Unit tests for diagnostic tables, outcome sampling, and campaigns.

Run:
    pytest tests/test_diagnosis.py -v

Selected table cells are pinned against hand-derived closed forms (the
benchmark circuit is small enough to work outcome amplitudes out on
paper), the full table against frozen six-decimal regression values,
the batched table fill against one simulation per cell, the table's
tests against single `build_test` calls and a three-simulation
reference, the array scheduler against a loop over survivor pairs, and
the campaign engine against its documented seeding contract.
"""
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qatpg
from qatpg import diagnosis
from qatpg._version import __version__
from qatpg.circuit import (
    Circuit,
    GateKind,
    PlacedGate,
    RotationConvention,
    apply,
    apply_adjoint,
    gate_matrix,
    parse_circuit,
    split,
)
from qatpg.diagnosis import (
    ADAPTIVE,
    CSV_HEADER,
    TIE_TOL,
    AmbiguousDiagnosis,
    CampaignConfig,
    DiagnosticTable,
    _adaptive_pick,
    build_table,
    circuit_hash,
    classify,
    fault_spec_hash,
    plan_shots,
    run_campaign,
    sample_outcome,
)
from qatpg.faults import FaultModel, FaultSpec, GateFault, fault_operator, faulty_variant
from qatpg.helstrom import OutcomeTriplet, UndetectableFault, build_test, outcome_probs
from qatpg.separator import gate_separator

from helpers import haar_unitary, random_circuit

HALF = RotationConvention.HALF_ANGLE
FULL = RotationConvention.FULL_ANGLE

# Frozen full-convention benchmark table (six decimals). The zero, one,
# 0.75-style entries follow from closed forms checked in
# TestHandDerivedCells; the remaining digits pin regressions.
REGRESSION_FULL = {
    1: [(1, 0, 0), (0, 1, 0), (0.001751, 0.560924, 0.437325),
        (0.071429, 0.5, 0.428571), (0.75, 0.035714, 0.214286),
        (0.970994, 0.009054, 0.019952), (0.553346, 0.059474, 0.387180)],
    2: [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0.5, 0, 0.5), (0.75, 0, 0.25),
        (0.980970, 0.019030, 0), (0.728553, 0.125, 0.146447)],
    3: [(1, 0, 0), (1, 0, 0), (0.5, 0, 0.5), (0, 1, 0), (0.75, 0.25, 0),
        (1, 0, 0), (1, 0, 0)],
    4: [(0.75, 0.25, 0), (0.75, 0.25, 0), (0.375, 0.125, 0.5),
        (0.933013, 0.066987, 0), (0.25, 0.75, 0), (0.75, 0.25, 0),
        (0.75, 0.25, 0)],
    5: [(0.597545, 0.402455, 0), (0.597545, 0.402455, 0), (0.5, 0.5, 0),
        (0.040028, 0.026959, 0.933013), (0.448159, 0.301841, 0.25),
        (0.402455, 0.597545, 0), (0.25, 0.25, 0.5)],
    6: [(1, 0, 0), (0.905475, 0.004489, 0.090036), (0.005221, 0.607409, 0.387370),
        (0.066987, 0, 0.933013), (0.75, 0, 0.25), (0.966169, 0.016916, 0.016916),
        (0, 1, 0)],
}


@pytest.fixture(scope="module")
def full_table(benchmark_circuit, smgf_spec):
    table, tests = build_table(benchmark_circuit, smgf_spec, FULL)
    return table, tests


def _undetectable_fixture():
    c = Circuit(
        n=1,
        gates=(
            PlacedGate(kind=GateKind.H, qubits=(0,)),
            PlacedGate(kind=GateKind.RZ, qubits=(0,), angle=0.0),
        ),
    )
    table, tests = build_table(c, FaultSpec(), HALF)
    return c, table, tests


# ═══════════════════════════════════════════════════════════════════════════
# Section 1: Table construction
# ═══════════════════════════════════════════════════════════════════════════

class TestTableBuild:
    def test_shape_and_metadata(self, full_table, benchmark_circuit, smgf_spec):
        table, tests = full_table
        assert table.s == 6
        assert table.cells.shape == (6, 7, 3)
        assert table.undetectable == frozenset()
        assert sorted(tests) == [1, 2, 3, 4, 5, 6]
        assert table.metadata["circuit_sha256"] == circuit_hash(benchmark_circuit)
        assert table.metadata["fault_spec_sha256"] == fault_spec_hash(smgf_spec)
        assert table.metadata["convention"] == "full"

    def test_row_invariants(self, full_table):
        # Column 0 is (1-delta, delta, 0); column q is (delta, 1-delta, 0).
        table, _ = full_table
        for q in range(1, 7):
            d = table.deltas[q - 1]
            np.testing.assert_allclose(
                table.cells[q - 1, 0], [1 - d, d, 0], atol=1e-9
            )
            np.testing.assert_allclose(
                table.cells[q - 1, q], [d, 1 - d, 0], atol=1e-9
            )

    def test_deltas_match_closed_forms(self, full_table):
        table, _ = full_table
        want = [0.0, 0.0, 0.0, 0.25, (1 - math.sin(math.pi / 16)) / 2, 0.0]
        np.testing.assert_allclose(table.deltas, want, atol=1e-12)

    def test_regression_table_six_decimals(self, full_table):
        table, _ = full_table
        for q in range(1, 7):
            got = table.cells[q - 1]
            want = np.array(REGRESSION_FULL[q], dtype=float)
            np.testing.assert_allclose(
                got, want, atol=1e-6,
                err_msg=f"test {q} row drifted from frozen values",
            )

    def test_cell_accessor_bounds(self, full_table):
        table, _ = full_table
        assert isinstance(table.cell(1, 0), OutcomeTriplet)
        with pytest.raises(ValueError, match="test index"):
            table.cell(0, 0)
        with pytest.raises(ValueError, match="variant index"):
            table.cell(1, 7)

    def test_empty_circuit_rejected(self, smgf_spec):
        with pytest.raises(ValueError, match="no gates"):
            build_table(Circuit(n=1), smgf_spec, HALF)

    def test_undetectable_rows_marked_not_fatal(self):
        _, table, tests = _undetectable_fixture()
        assert table.undetectable == frozenset({2})
        assert table.usable_tests == (1,)
        assert sorted(tests) == [1]
        assert np.all(np.isnan(table.cells[1]))
        assert math.isnan(table.deltas[1])

    def test_all_rows_undetectable(self):
        rz0 = PlacedGate(kind=GateKind.RZ, qubits=(0,), angle=0.0)
        table, tests = build_table(Circuit(n=2, gates=(rz0, rz0)), FaultSpec(), HALF)
        assert table.undetectable == frozenset({1, 2})
        assert tests == {}
        assert np.all(np.isnan(table.cells))

    def test_vote_separation_floor(self, benchmark_circuit, smgf_spec):
        # The healthy and target columns sit at L1 distance 2(1 - 2 delta).
        for conv in (HALF, FULL):
            table, _ = build_table(benchmark_circuit, smgf_spec, conv)
            for q in table.usable_tests:
                d = table.deltas[q - 1]
                l1 = np.abs(table.cells[q - 1, 0] - table.cells[q - 1, q]).sum()
                assert l1 >= 2 * (1 - 2 * d) - 1e-9


class TestHandDerivedCells:
    """Closed-form spot checks worked out from the gate algebra.

    All six gates of the benchmark feed a separator input through the
    circuit; when the wrong gate is missing the output state is a known
    product state, so the Born probabilities reduce to short closed
    forms (halves, quarters, cos^2 of sixteenth turns).
    """

    @pytest.mark.parametrize(
        "q,r,want,tol",
        [
            (1, 1, (0, 1, 0), 1e-9),
            (2, 1, (1, 0, 0), 1e-9),
            (3, 1, (1, 0, 0), 1e-9),
            (4, 0, (0.75, 0.25, 0), 1e-9),
            (4, 1, (0.75, 0.25, 0), 1e-9),
            (4, 2, (0.375, 0.125, 0.5), 1e-9),
            (4, 6, (0.75, 0.25, 0), 1e-9),
            (5, 2, (0.5, 0.5, 0), 1e-9),
            (2, 3, (0.5, 0, 0.5), 1e-9),
            (3, 2, (0.5, 0, 0.5), 1e-9),
        ],
    )
    def test_closed_form_cells(self, full_table, q, r, want, tol):
        table, _ = full_table
        np.testing.assert_allclose(
            table.cells[q - 1, r], want, atol=tol,
            err_msg=f"cell ({q}, {r}) deviates from its closed form",
        )

    def test_rz_row_healthy_cell(self, full_table):
        # delta for the rz gate is (1 - sin(pi/16)) / 2 under the full
        # convention, so the healthy cell is (1-delta, delta, 0).
        table, _ = full_table
        d = (1 - math.sin(math.pi / 16)) / 2
        np.testing.assert_allclose(table.cells[4, 0], [1 - d, d, 0], atol=1e-12)


def _seeded_instance(seed: int, n: int, size: int):
    """Seeded circuit where every other gate has a Haar replacement fault and
    gate 2 is replaced by itself times a global phase (undetectable)."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n=n, size=size)
    conv = HALF if seed % 2 else FULL
    overrides = {
        i: GateFault(kind=FaultModel.REPLACE,
                     matrix=haar_unitary(2 ** circuit.gates[i - 1].arity, rng))
        for i in range(1, size + 1, 2)
    }
    g2 = gate_matrix(circuit.gates[1], conv)
    overrides[2] = GateFault(kind=FaultModel.REPLACE, matrix=np.exp(0.7j) * g2)
    return circuit, FaultSpec(overrides=overrides), conv


def _reference_test(circuit, spec, i, conv):
    """A test as three full simulations give it: the prefix pullback of the
    lifted phi', psi = C phi, psi' = C_i phi, and the closed-form pair
    formed from psi and psi' in the register."""
    prefix, gate, _ = split(circuit, i)
    phi_prime = gate_separator(gate_matrix(gate, conv), fault_operator(circuit, spec, i)).phi_prime
    m, n = gate.arity, circuit.n
    lifted = np.zeros(2 ** n, dtype=np.complex128)
    for local in range(2 ** m):
        full = sum(((local >> (m - 1 - pos)) & 1) << (n - 1 - q) for pos, q in enumerate(gate.qubits))
        lifted[full] = phi_prime[local]
    phi = apply_adjoint(prefix, lifted, conv)
    psi = apply(circuit, phi, conv)
    psi_p = apply(faulty_variant(circuit, spec, i), phi, conv)
    z = np.vdot(psi, psi_p)
    k = abs(z)
    r1 = (math.sqrt(1 + k) + math.sqrt(1 - k)) / 2
    r2 = (math.sqrt(1 + k) - math.sqrt(1 - k)) / 2
    e = np.exp(-1j * math.atan2(z.imag, z.real))
    den = math.sqrt(1 - k * k)
    return {
        "input_state": phi,
        "omega_plus": (r1 * psi - r2 * e * psi_p) / den,
        "omega_minus": (-r2 * psi + r1 * e * psi_p) / den,
        "k": k,
        "delta": (1 - den) / 2,
    }


def _assert_equal_up_to_phase(got, want, atol=1e-12):
    overlap = np.vdot(want, got)
    np.testing.assert_allclose(got, want * overlap / abs(overlap), rtol=0, atol=atol)


class TestSweepFill:
    """The batched sweep against one full simulation per (test, variant)."""

    @pytest.mark.parametrize("seed,n,size", [(1, 1, 5), (2, 1, 6), (3, 3, 8), (4, 4, 10)])
    def test_cells_equal_per_cell_simulation(self, seed, n, size):
        circuit, spec, conv = _seeded_instance(seed, n, size)
        table, tests = build_table(circuit, spec, conv)
        assert 2 in table.undetectable
        assert np.all(np.isnan(table.cells[1]))
        assert sorted(tests) == list(table.usable_tests)
        for q, test in tests.items():
            for r in range(size + 1):
                want = outcome_probs(test, faulty_variant(circuit, spec, r)).as_array()
                np.testing.assert_allclose(table.cells[q - 1, r], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("conv", [HALF, FULL])
    def test_benchmark_cells_equal_per_cell_simulation(self, benchmark_circuit, smgf_spec, conv):
        table, tests = build_table(benchmark_circuit, smgf_spec, conv)
        for q, test in tests.items():
            for r in range(benchmark_circuit.size + 1):
                variant = faulty_variant(benchmark_circuit, smgf_spec, r)
                np.testing.assert_allclose(table.cells[q - 1, r],
                                           outcome_probs(test, variant).as_array(),
                                           rtol=0, atol=1e-12)

    def test_fill_does_not_simulate_per_cell(self, monkeypatch):
        # Tests and cells come from gate-local data and two sweeps, so a
        # table simulates no circuit and builds no faulty variant.
        calls = []
        for module in vars(qatpg).values():
            if getattr(module, "__name__", "").startswith("qatpg."):
                for name in ("apply", "apply_adjoint", "faulty_variant"):
                    fn = getattr(module, name, None)
                    if callable(fn):
                        def counted(*args, _fn=fn, **kwargs):
                            calls.append(1)
                            return _fn(*args, **kwargs)
                        monkeypatch.setattr(module, name, counted)
        circuit, spec, conv = _seeded_instance(5, 3, 12)
        build_table(circuit, spec, conv)
        assert len(calls) == 0
        # The counters are live: a single test does run partial passes.
        build_test(circuit, spec, 1, conv)
        assert len(calls) > 0

    @pytest.mark.parametrize("seed,n,size", [(5, 3, 12), (6, 4, 10), (7, 2, 7), (8, 5, 9)])
    def test_single_tests_match_table_tests(self, seed, n, size):
        circuit, spec, conv = _seeded_instance(seed, n, size)
        table, tests = build_table(circuit, spec, conv)
        for q in table.undetectable:
            with pytest.raises(UndetectableFault):
                build_test(circuit, spec, q, conv)
        for q, from_table in tests.items():
            single = build_test(circuit, spec, q, conv)
            reference = _reference_test(circuit, spec, q, conv)
            for got in (single, from_table):
                for name in ("input_state", "omega_plus", "omega_minus"):
                    _assert_equal_up_to_phase(getattr(got, name), reference[name])
                assert got.k == pytest.approx(reference["k"], abs=1e-12)
                assert got.delta == pytest.approx(reference["delta"], abs=1e-12)
            for name in ("input_state", "omega_plus", "omega_minus"):
                _assert_equal_up_to_phase(getattr(single, name), getattr(from_table, name))
            assert single.k == pytest.approx(from_table.k, abs=1e-12)
            assert single.delta == pytest.approx(from_table.delta, abs=1e-12)

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_sweeps_apply_each_gate_once(self, monkeypatch):
        # Each sweep applies every gate once to its batch; a fault operator
        # is applied only where it is not the identity, once in each sweep
        # whose triangle reaches its column.
        calls = self._count(monkeypatch, qatpg.helstrom, "_apply_gate")
        circuit = random_circuit(np.random.default_rng(21), n=4, size=14)
        build_table(circuit, FaultSpec(), FULL)
        assert 0 < len(calls) <= 2 * (circuit.size - 1)
        calls.clear()
        circuit, spec, conv = _seeded_instance(5, 3, 12)
        s = circuit.size
        moved = [r for r in range(1, s + 1)
                 if not np.allclose(fault_operator(circuit, spec, r), np.eye(2 ** circuit.gates[r - 1].arity))]
        assert moved
        build_table(circuit, spec, conv)
        assert len(calls) <= 2 * (s - 1) + sum((r < s) + (r > 1) for r in moved)

    @pytest.mark.parametrize("replace_one", [False, True])
    def test_each_distinct_gate_is_solved_once(self, monkeypatch, replace_one):
        calls = self._count(monkeypatch, qatpg.separator, "eig_unitary")
        layout = [(GateKind.H, (0,)), (GateKind.CNOT, (0, 1)), (GateKind.H, (2,)),
                  (GateKind.CNOT, (1, 2)), (GateKind.H, (1,)), (GateKind.CNOT, (2, 0)),
                  (GateKind.X, (1,)), (GateKind.H, (0,)), (GateKind.CNOT, (0, 1))]
        circuit = Circuit(n=3, gates=tuple(PlacedGate(kind=k, qubits=q) for k, q in layout))
        overrides = {}
        if replace_one:
            overrides[5] = GateFault(kind=FaultModel.REPLACE,
                                     matrix=haar_unitary(2, np.random.default_rng(3)))
        spec = FaultSpec(overrides=overrides)
        _table, tests = build_table(circuit, spec, HALF)
        keys = {}
        for r in range(1, circuit.size + 1):
            key = (gate_matrix(circuit.gates[r - 1], HALF).tobytes(),
                   fault_operator(circuit, spec, r).tobytes())
            keys.setdefault(key, []).append(r)
        assert len(calls) == len(keys) == (4 if replace_one else 3)
        for same in keys.values():
            for q in same[1:]:
                assert tests[q].k == tests[same[0]].k
                assert tests[q].delta == tests[same[0]].delta
                np.testing.assert_array_equal(tests[q].separator.phi_prime,
                                              tests[same[0]].separator.phi_prime)

    @pytest.mark.parametrize("case", ["haar-1", "haar-3", "haar-4", "missing-gates"])
    def test_closed_form_columns(self, case):
        # Column 0 is (1 - delta, delta, 0) and column q is (delta, 1 - delta, 0)
        # for every test, also when k = 0 (X and Z missing, where
        # G^dag omega+ is phi' to rounding, so the second column must not be
        # built from it) and when 1 - k^2 is about 1e-6 (RZ(2e-3) missing).
        if case.startswith("haar"):
            seed = int(case[-1])
            circuit, spec, conv = _seeded_instance(seed, seed, 2 * seed + 4)
        else:
            conv, spec = HALF, FaultSpec()
            layout = [(GateKind.H, (1,), None), (GateKind.X, (0,), None),
                      (GateKind.CNOT, (1, 0), None), (GateKind.Z, (1,), None),
                      (GateKind.RZ, (0,), 2e-3), (GateKind.H, (0,), None)]
            circuit = Circuit(n=2, gates=tuple(PlacedGate(kind=k, qubits=q, angle=a)
                                               for k, q, a in layout))
        table, tests = build_table(circuit, spec, conv)
        if case == "missing-gates":
            assert tests[2].k < 1e-12 and tests[4].k < 1e-12
            assert 1 - tests[5].k ** 2 == pytest.approx(1e-6, rel=1e-3)
        for q, test in tests.items():
            d = test.delta
            np.testing.assert_allclose(table.cells[q - 1, 0], [1 - d, d, 0], rtol=0, atol=1e-13)
            np.testing.assert_allclose(table.cells[q - 1, q], [d, 1 - d, 0], rtol=0, atol=1e-13)

    def test_twelve_qubit_table_fits_in_memory(self):
        # Fresh interpreter, so ru_maxrss is this table's peak alone.
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from helpers import random_circuit
            from qatpg.circuit import RotationConvention
            from qatpg.diagnosis import build_table
            from qatpg.faults import FaultSpec

            circuit = random_circuit(np.random.default_rng(12), n=12, size=32)
            table, _ = build_table(circuit, FaultSpec(), RotationConvention.FULL_ANGLE)
            assert table.cells.shape == (32, 33, 3)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """
        )
        tests_dir = Path(__file__).resolve().parent
        src = tests_dir.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{tests_dir}"),
        )
        assert out.returncode == 0, out.stderr
        peak_kib = int(out.stdout.split()[-1])
        assert peak_kib < 1024 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"


# ═══════════════════════════════════════════════════════════════════════════
# Section 2: Serialization round trips
# ═══════════════════════════════════════════════════════════════════════════

class TestSerialization:
    def test_json_round_trip(self, full_table):
        table, _ = full_table
        data = json.loads(json.dumps(table.to_json()))
        again = DiagnosticTable.from_json(data)
        assert again.s == table.s
        assert again.undetectable == table.undetectable
        assert again.metadata == table.metadata
        np.testing.assert_allclose(again.cells, table.cells, atol=0)
        np.testing.assert_allclose(again.deltas, table.deltas, atol=0)

    def test_json_envelope_fields(self, full_table):
        table, _ = full_table
        data = table.to_json()
        assert data["tool"] == "qatpg"
        assert data["version"] == __version__
        assert data["s"] == 6
        assert data["cells_rounded"][0][0] == [1.0, 0.0, 0.0]

    def test_json_round_trip_with_nan_rows(self):
        _, table, _ = _undetectable_fixture()
        data = table.to_json()
        assert data["cells"][1] == [None, None, None]
        assert data["deltas"][1] is None
        again = DiagnosticTable.from_json(json.loads(json.dumps(data)))
        assert again.undetectable == frozenset({2})
        assert np.all(np.isnan(again.cells[1]))
        np.testing.assert_allclose(again.cells[0], table.cells[0], atol=0)

    def test_csv_layout(self, full_table):
        table, _ = full_table
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 6 * 7
        q, r, p0, p1, pu = lines[1].split(",")
        assert (q, r) == ("1", "0")
        assert float(p0) == table.cells[0, 0, 0]

    def test_csv_undetectable_rows_are_empty(self):
        _, table, _ = _undetectable_fixture()
        lines = table.to_csv().strip().split("\n")
        assert "2,0,,," in lines

    def test_hashes_are_stable_and_distinct(self, benchmark_circuit):
        h1 = circuit_hash(benchmark_circuit)
        assert len(h1) == 64 and h1 == circuit_hash(benchmark_circuit)
        other = Circuit(n=1, gates=(PlacedGate(kind=GateKind.H, qubits=(0,)),))
        assert circuit_hash(other) != h1
        assert fault_spec_hash(FaultSpec()) == fault_spec_hash(FaultSpec())


# ═══════════════════════════════════════════════════════════════════════════
# Section 3: Outcome sampling
# ═══════════════════════════════════════════════════════════════════════════

class _StubGenerator:
    """Deterministic stand-in exposing the generator protocol sample_outcome uses."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def __getattr__(self, name):  # pragma: no cover - guard against misuse
        raise AssertionError(f"sample_outcome touched generator.{name}")


class TestSampling:
    def test_inverse_cdf_boundaries(self):
        trip = OutcomeTriplet(0.2, 0.3, 0.5)
        draws = [0.0, 0.19, 0.2, 0.49, 0.5, 0.999, 1.0]
        stub = _StubGenerator(draws)
        got = [sample_outcome(trip, stub) for _ in draws]
        assert got == [0, 0, 1, 1, 2, 2, 2]

    def test_one_draw_per_call(self):
        stub = _StubGenerator([0.1])
        sample_outcome(OutcomeTriplet(1.0, 0.0, 0.0), stub)
        assert stub.values == []

    def test_negative_mass_is_clipped(self):
        assert sample_outcome((-0.5, 1.0, 0.0), _StubGenerator([0.0])) == 1
        # Clipped, (-0.25, 0.75, 0.5) has CDF (0, 0.6, 1); unclipped (-0.25, 0.5, 1).
        assert sample_outcome((-0.25, 0.75, 0.5), _StubGenerator([0.55])) == 1

    def test_no_mass_rejected(self):
        with pytest.raises(ValueError, match="no probability mass"):
            sample_outcome((0.0, 0.0, 0.0), _StubGenerator([0.5]))
        with pytest.raises(ValueError, match="no probability mass"):
            sample_outcome((math.nan, 0.0, 0.0), _StubGenerator([0.5]))

    def test_empirical_frequencies_converge(self):
        rng = np.random.Generator(np.random.PCG64(7))
        trip = OutcomeTriplet(0.25, 0.5, 0.25)
        counts = np.zeros(3)
        for _ in range(20000):
            counts[sample_outcome(trip, rng)] += 1
        np.testing.assert_allclose(counts / 20000, trip.as_array(), atol=0.015)


# ═══════════════════════════════════════════════════════════════════════════
# Section 4: Classification and shot planning
# ═══════════════════════════════════════════════════════════════════════════

def _synthetic_table():
    cells = np.zeros((2, 3, 3))
    cells[0] = [[1, 0, 0], [0, 1, 0], [1, 0, 0]]
    cells[1] = [[1, 0, 0], [0, 1, 0], [1, 0, 0]]
    return DiagnosticTable(
        s=2, cells=cells, deltas=np.zeros(2), undetectable=frozenset()
    )


class TestClassify:
    def test_exact_columns_classify_to_themselves(self, full_table):
        table, _ = full_table
        for r in range(table.s + 1):
            obs = {q: table.cell(q, r) for q in table.usable_tests}
            assert classify(table, obs) == r

    def test_ties_resolve_to_the_smaller_hypothesis(self):
        table = _synthetic_table()
        assert classify(table, {1: (1.0, 0.0, 0.0)}) == 0
        assert classify(table, {1: (0.0, 1.0, 0.0)}) == 1

    def test_validation(self, full_table):
        table, _ = full_table
        with pytest.raises(ValueError, match="no observations"):
            classify(table, {})
        with pytest.raises(ValueError, match="outside"):
            classify(table, {9: (1.0, 0.0, 0.0)})
        _, und_table, _ = _undetectable_fixture()
        with pytest.raises(ValueError, match="undetectable"):
            classify(und_table, {2: (1.0, 0.0, 0.0)})


class TestPlanShots:
    @pytest.mark.parametrize(
        "delta,epsilon,want",
        [
            (0.0, 0.05, 6),
            (0.25, 0.05, 24),
            (0.45, 0.05, 600),
            (0.0, 0.99, 1),
            (0.402455, 0.05, 158),
        ],
    )
    def test_chernoff_sizing(self, delta, epsilon, want):
        assert plan_shots(delta, epsilon) == want

    def test_half_error_has_no_signal(self):
        with pytest.raises(UndetectableFault):
            plan_shots(0.5, 0.05)
        with pytest.raises(UndetectableFault):
            plan_shots(0.7, 0.05)

    def test_domain(self):
        with pytest.raises(ValueError):
            plan_shots(0.1, 0.0)
        with pytest.raises(ValueError):
            plan_shots(0.1, 1.0)
        with pytest.raises(ValueError):
            plan_shots(-0.1, 0.5)


# ═══════════════════════════════════════════════════════════════════════════
# Section 5: Campaign engine
# ═══════════════════════════════════════════════════════════════════════════

class TestCampaignConfig:
    def test_defaults(self):
        cfg = CampaignConfig()
        assert cfg.shots_per_test == 10
        assert cfg.test_order == ADAPTIVE
        assert cfg.on_ambiguous == "raise"

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(shots_per_test=0)
        with pytest.raises(ValueError):
            CampaignConfig(budget=0)
        with pytest.raises(ValueError):
            CampaignConfig(on_ambiguous="shrug")
        with pytest.raises(ValueError, match="repeats"):
            CampaignConfig(test_order=(1, 1))


def _reference_pick(table, unused, survivors):
    """The scheduler as a loop over candidate tests and survivor pairs."""
    best_q, best_score = None, -1.0
    for q in unused:
        pairs = [
            0.5 * float(np.abs(table.cells[q - 1, r1] - table.cells[q - 1, r2]).sum())
            for r1, r2 in itertools.combinations(sorted(survivors), 2)
        ]
        score = min(pairs) if pairs else 0.0
        if score > best_score + TIE_TOL:
            best_q, best_score = q, score
    return best_q


def _table_of(cells):
    s = cells.shape[0]
    return DiagnosticTable(s=s, cells=cells, deltas=np.zeros(s), undetectable=frozenset())


class TestAdaptivePick:
    """Greedy selection maximizes the worst-case pairwise separation."""

    @pytest.mark.parametrize(
        "survivors,want",
        [
            (set(range(7)), 6),
            ({0, 4, 5}, 5),
            ({0, 5}, 5),
            ({2, 3}, 2),
            ({4, 6}, 6),
        ],
    )
    def test_known_picks_on_benchmark(self, full_table, survivors, want):
        table, _ = full_table
        assert _adaptive_pick(table, list(table.usable_tests), survivors) == want

    def test_single_survivor_defaults_to_first_unused(self, full_table):
        table, _ = full_table
        assert _adaptive_pick(table, [3, 5], {2}) == 3

    @pytest.mark.parametrize(
        "pair_block", [diagnosis._PAIR_BLOCK, 1, 7], ids=["one-block", "block-1", "block-7"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_reference_on_random_tables(self, monkeypatch, seed, pair_block):
        # Seeded random tables, random survivor sets and shuffled (so
        # mostly non-ascending) candidate lists; small pair blocks split
        # the candidates into several arrays.
        monkeypatch.setattr(diagnosis, "_PAIR_BLOCK", pair_block)
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 12))
        table = _table_of(rng.dirichlet(np.ones(3), size=(s, s + 1)))
        for _ in range(30):
            unused = [int(q) for q in rng.permutation(np.arange(1, s + 1))[: rng.integers(1, s + 1)]]
            survivors = {int(r) for r in rng.choice(s + 1, rng.integers(1, s + 2), replace=False)}
            assert _adaptive_pick(table, unused, survivors) == _reference_pick(
                table, unused, survivors
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_reference_on_exact_ties(self, seed):
        # Round-number cells make many scores tie exactly; a 1e-15 nudge
        # makes ties that only TIE_TOL settles.
        rng = np.random.default_rng(100 + seed)
        rounds = np.array([[1, 0, 0], [0, 1, 0], [0.5, 0, 0.5], [0.75, 0.25, 0], [0.25, 0.25, 0.5]])
        s = 6
        cells = rounds[rng.integers(0, len(rounds), size=(s, s + 1))]
        cells = cells + 1e-15 * rng.integers(-1, 2, size=cells.shape)
        table = _table_of(cells)
        for _ in range(40):
            unused = [int(q) for q in rng.permutation(np.arange(1, s + 1))]
            survivors = {int(r) for r in rng.choice(s + 1, rng.integers(1, s + 2), replace=False)}
            assert _adaptive_pick(table, unused, survivors) == _reference_pick(
                table, unused, survivors
            )


class TestRunCampaign:
    def test_deterministic_repetition(self, full_table):
        table, _ = full_table
        cfg = CampaignConfig(rng_seed=42, budget=20, on_ambiguous="decide")
        a = run_campaign(table, 3, cfg)
        b = run_campaign(table, 3, cfg)
        assert a.verdict == b.verdict
        assert a.evaluations_used == b.evaluations_used
        assert a.tests_used == b.tests_used
        assert a.survivors_history == b.survivors_history
        for q in a.empirical:
            np.testing.assert_allclose(
                a.empirical[q].as_array(), b.empirical[q].as_array(), atol=0
            )

    @pytest.mark.parametrize("shots", [1, 7, 10])
    @pytest.mark.parametrize(
        "truth",
        [None, (0.5, 0.0, 0.5), (-0.25, 0.75, 0.5)],
        ids=["benchmark", "zero-entry", "negative-mass"],
    )
    def test_documented_seeding_contract(self, full_table, truth, shots):
        # Shots for test q come from PCG64 seeded with (rng_seed, spawn_key=(q,)):
        # the campaign's counts equal sequential sample_outcome draws bit for bit.
        table, _ = full_table
        if truth is not None:
            cells = table.cells.copy()
            cells[3, 0] = truth
            table = DiagnosticTable(
                s=table.s, cells=cells, deltas=table.deltas, undetectable=table.undetectable
            )
        cfg = CampaignConfig(
            shots_per_test=shots, rng_seed=123, test_order=(4,), budget=shots,
            on_ambiguous="decide",
        )
        result = run_campaign(table, 0, cfg)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(123, spawn_key=(4,)))
        )
        counts = np.zeros(3)
        for _ in range(shots):
            counts[sample_outcome(table.cells[3, 0], rng)] += 1
        np.testing.assert_array_equal(result.empirical[4].as_array(), counts / shots)

    def test_substreams_make_order_irrelevant(self, full_table):
        table, _ = full_table
        results = {}
        for order in ((2, 6), (6, 2)):
            cfg = CampaignConfig(
                rng_seed=9, test_order=order, elimination_margin=2.0,
                on_ambiguous="decide",
            )
            results[order] = run_campaign(table, 1, cfg)
        for q in (2, 6):
            np.testing.assert_allclose(
                results[(2, 6)].empirical[q].as_array(),
                results[(6, 2)].empirical[q].as_array(),
                atol=0,
                err_msg=f"test {q} shots depend on scheduling order",
            )

    def test_first_adaptive_pick_is_the_cnot_test(self, full_table):
        table, _ = full_table
        cfg = CampaignConfig(rng_seed=0, budget=20, on_ambiguous="decide")
        result = run_campaign(table, 0, cfg)
        assert result.tests_used[0] == 6

    def test_healthy_circuit_diagnosed_healthy(self, full_table):
        table, _ = full_table
        for seed in range(5):
            cfg = CampaignConfig(rng_seed=seed, budget=20, on_ambiguous="decide")
            assert run_campaign(table, 0, cfg).verdict == 0

    def test_budget_is_respected_and_split(self, full_table):
        table, _ = full_table
        cfg = CampaignConfig(
            rng_seed=1, budget=15, elimination_margin=2.0, on_ambiguous="decide"
        )
        result = run_campaign(table, 0, cfg)
        assert result.evaluations_used == 15
        assert len(result.tests_used) == 2

    def test_ambiguity_raises_with_survivors(self, full_table):
        table, _ = full_table
        cfg = CampaignConfig(rng_seed=0, budget=1)
        with pytest.raises(AmbiguousDiagnosis) as exc:
            run_campaign(table, 0, cfg)
        assert len(exc.value.survivors) > 1
        assert exc.value.result.verdict is None
        assert exc.value.result.evaluations_used == 1
        assert len(exc.value.result.survivors_history) == len(
            exc.value.result.tests_used
        )

    def test_decide_mode_settles_ambiguity(self, full_table):
        table, _ = full_table
        cfg = CampaignConfig(rng_seed=0, budget=1, on_ambiguous="decide")
        result = run_campaign(table, 0, cfg)
        assert result.verdict is not None
        assert result.evaluations_used == 1

    def test_survivor_history_shrinks_monotonically(self, full_table):
        table, _ = full_table
        cfg = CampaignConfig(
            rng_seed=5, budget=60, elimination_margin=2.0, on_ambiguous="decide"
        )
        result = run_campaign(table, 2, cfg)
        history = result.survivors_history
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_validation(self, full_table):
        table, _ = full_table
        with pytest.raises(ValueError, match="true class"):
            run_campaign(table, 9, CampaignConfig())
        with pytest.raises(ValueError, match="outside"):
            run_campaign(table, 0, CampaignConfig(test_order=(99,)))

    def test_undetectable_tests_cannot_be_scheduled(self):
        _, table, _ = _undetectable_fixture()
        with pytest.raises(ValueError, match="undetectable"):
            run_campaign(table, 0, CampaignConfig(test_order=(2,)))

    def test_exact_distributions_give_exact_verdicts(self):
        # The single usable test of this circuit has deterministic
        # outcome triplets, so campaigns settle in one test.
        _, table, _ = _undetectable_fixture()
        cfg = CampaignConfig(rng_seed=0, budget=10)
        assert run_campaign(table, 1, cfg).verdict == 1
        with pytest.raises(AmbiguousDiagnosis) as exc:
            run_campaign(table, 2, cfg)
        assert exc.value.survivors == frozenset({0, 2})
        cfg = CampaignConfig(rng_seed=0, budget=10, on_ambiguous="decide")
        assert run_campaign(table, 2, cfg).verdict == 0

    def test_result_json_shape(self, full_table):
        table, _ = full_table
        cfg = CampaignConfig(rng_seed=0, budget=20, on_ambiguous="decide")
        data = run_campaign(table, 6, cfg).to_json()
        assert data["tool"] == "qatpg"
        assert data["version"] == __version__
        assert set(data) >= {
            "verdict", "evaluations_used", "tests_used", "empirical",
            "per_class_l1", "survivors_history",
        }

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), true_class=st.integers(0, 6))
    def test_campaign_invariants(self, full_table, seed, true_class):
        table, _ = full_table
        cfg = CampaignConfig(rng_seed=seed, budget=20, on_ambiguous="decide")
        result = run_campaign(table, true_class, cfg)
        assert 0 <= result.verdict <= table.s
        assert result.evaluations_used <= 20
        assert len(set(result.tests_used)) == len(result.tests_used)
        for q, trip in result.empirical.items():
            assert q in table.usable_tests
            assert trip.as_array().sum() == pytest.approx(1.0, abs=1e-12)
