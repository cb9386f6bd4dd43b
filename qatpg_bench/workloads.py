"""The benchmark's four workloads: seeded inputs, operations and checks.

Every input is made here from the workload seed and handed to qatpg the
way a user would: circuit text for `parse_circuit`, a fault spec as JSON
for `FaultSpec.from_json`, and `CampaignConfig` values. One round is the
same list of operations every time; the runner repeats rounds. Checks
use `refsim`, which shares no code with qatpg.
"""
from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refsim

# Absolute tolerance of the checks on probabilities, overlaps and norms:
# a hundred times the 1e-13 to which qatpg's Jacobi eigensolver converges.
# Identities that go through delta or the measurement pair lose accuracy
# as 1 / (1 - k^2) when k nears 1, so their tolerance is TOL / (1 - k^2).
TOL = 1e-11

# Per-check false-alarm probability of the pooled binomial checks.
ALPHA = 1e-9

PAPER_CIRCUIT = Path("circuits") / "3qubitcnot.qc"


@dataclass
class Instance:
    """One circuit and its fault hypotheses, kept as the text qatpg reads."""

    text: str
    spec_json: dict
    convention: str
    n: int = field(init=False)
    gates: list = field(init=False)
    replacements: dict = field(init=False)

    def __post_init__(self):
        self.n, self.gates = refsim.parse_text(self.text)
        self.replacements = {
            int(q): np.array([[complex(*e) for e in row] for row in entry["matrix"]])
            for q, entry in self.spec_json["overrides"].items()
        }

    def fault_matrix(self, q: int) -> np.ndarray:
        """Gate-local stand-in for gate q: its replacement, or the identity."""
        if q in self.replacements:
            return self.replacements[q]
        return np.eye(2 ** len(self.gates[q - 1].qubits), dtype=complex)

    def gate(self, q: int) -> np.ndarray:
        return refsim.gate_matrix(self.gates[q - 1], self.convention)

    def simulate(self, state, faulty: int = 0) -> np.ndarray:
        return refsim.simulate(self.gates, self.n, state, self.convention,
                               faulty, self.replacements.get(faulty))

    def load(self, qatpg):
        """The program's own objects for this instance."""
        return (qatpg.circuit.parse_circuit(self.text),
                qatpg.faults.FaultSpec.from_json(self.spec_json),
                qatpg.circuit.RotationConvention(self.convention))


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def random_instance(rng, n: int, kinds, convention: str,
                    haar=(), phase_copy=()) -> Instance:
    """A circuit over a fixed multiset of gate kinds, shuffled and placed.

    `haar` and `phase_copy` list positions in `kinds`; those gates get a
    Haar-random replacement, or the gate times a global phase (which no
    test can detect). Every other gate has the missing-gate fault.
    """
    order = rng.permutation(len(kinds))
    gates, overrides = [], {}
    for pos, idx in enumerate(order, start=1):
        name = kinds[idx]
        qubits = tuple(int(q) for q in rng.choice(n, refsim.ARITY[name], replace=False))
        angle = float(rng.uniform(-math.pi, math.pi)) if name in refsim.ANGLED else None
        gate = refsim.Gate(name, qubits, angle)
        gates.append(gate)
        if idx in haar:
            matrix = refsim.haar_unitary(2 ** len(qubits), rng)
        elif idx in phase_copy:
            alpha = float(rng.uniform(-math.pi, math.pi))
            matrix = np.exp(1j * alpha) * refsim.gate_matrix(gate, convention)
        else:
            continue
        overrides[str(pos)] = {"kind": "replace", "matrix": _matrix_json(matrix)}
    spec = {"default": "smgf", "overrides": overrides}
    return Instance(refsim.render_text(n, gates), spec, convention)


def array_bytes(obj, seen=None) -> int:
    """Summed nbytes of the distinct numpy arrays reachable through dataclass fields."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item, seen) for item in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


class Checker:
    """Counts checks and failures; keeps per check the worst deviation as a
    share of its tolerance."""

    def __init__(self):
        self.checks = 0
        self.failures = 0
        self.messages: list[str] = []
        self.worst: dict[str, float] = defaultdict(float)

    def true(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {detail}")

    def close(self, name: str, got: float, want: float, tol: float = TOL) -> None:
        dev = abs(float(got) - float(want))
        if math.isfinite(dev):
            self.worst[name] = max(self.worst[name], dev / tol)
        self.true(name, dev <= tol, f"got {got!r}, expected {want!r} within {tol:.3g}")


def check_test(inst: Instance, test, q: int, k: float, checker: Checker) -> None:
    """One Helstrom test against the oracle's k and an independent simulation."""
    delta = refsim.error_probability(k)
    tol_k = TOL / (1 - k * k)
    checker.close("test k equals oracle k", test.k, k)
    checker.close("test delta from oracle k", test.delta, delta, tol_k)
    checker.close("input state norm", np.linalg.norm(test.input_state), 1.0)
    psi = inst.simulate(test.input_state)
    psi_f = inst.simulate(test.input_state, faulty=q)
    checker.close("|<psi|psi'>| equals oracle k", abs(np.vdot(psi, psi_f)), k)
    wp, wm = test.omega_plus, test.omega_minus
    gram = np.array([[np.vdot(wp, wp), np.vdot(wp, wm)],
                     [np.vdot(wm, wp), np.vdot(wm, wm)]])
    checker.close("omega pair orthonormal", np.abs(gram - np.eye(2)).max(), 0.0)
    checker.close("healthy output votes healthy", abs(np.vdot(wp, psi)) ** 2, 1 - delta, tol_k)
    checker.close("faulty output votes faulty", abs(np.vdot(wm, psi_f)) ** 2, 1 - delta, tol_k)


def check_table(inst: Instance, table, tests, cells, checker: Checker) -> None:
    """A diagnostic table and its tests; `cells` are (q, r) pairs to re-simulate."""
    s = len(inst.gates)
    checker.true("table shape", table.cells.shape == (s, s + 1, 3),
                 f"shape {table.cells.shape}")
    for q in range(1, s + 1):
        k = refsim.optimal_overlap(inst.gate(q), inst.fault_matrix(q))
        undetectable = k >= refsim.UNDETECTABLE_K
        checker.true("undetectable exactly when oracle k >= 1 - 1e-9",
                     (q in table.undetectable) == undetectable,
                     f"row {q}, oracle k = {k!r}")
        if undetectable or q in table.undetectable:
            checker.true("undetectable row is NaN", bool(np.isnan(table.cells[q - 1]).all()))
            continue
        row = table.cells[q - 1]
        delta = refsim.error_probability(k)
        tol_k = TOL / (1 - k * k)
        checker.close("cell sums to 1", np.abs(row.sum(axis=1) - 1).max(), 0.0)
        checker.true("cell entries in [0, 1]",
                     bool(row.min() >= -TOL and row.max() <= 1 + TOL), f"row {q}")
        checker.close("table delta from oracle k", table.deltas[q - 1], delta, tol_k)
        checker.close("column 0 is (1-d, d, 0)",
                      np.abs(row[0] - [1 - delta, delta, 0]).max(), 0.0, tol_k)
        checker.close("column q is (d, 1-d, 0)",
                      np.abs(row[q] - [delta, 1 - delta, 0]).max(), 0.0, tol_k)
        check_test(inst, tests[q], q, k, checker)
    for q, r in cells:
        if q in table.undetectable:
            continue
        test = tests[q]
        sigma = inst.simulate(test.input_state, faulty=r)
        p0 = abs(np.vdot(test.omega_plus, sigma)) ** 2
        p1 = abs(np.vdot(test.omega_minus, sigma)) ** 2
        checker.close("cell equals independent simulation",
                      np.abs(table.cells[q - 1, r] - [p0, p1, 1 - p0 - p1]).max(), 0.0)


class Workload:
    """Inputs for one seed, the operations of a round, and their checks."""

    name = ""

    def __init__(self, root: Path, seed: int, index: int):
        self.root = root
        self.seed_seq = np.random.SeedSequence([seed % 2 ** 63, index])
        self.seed = seed
        self.ops: list[tuple] = []
        self.test_bytes: list[int] = []  # per test returned in the first round

    def setup(self, qatpg) -> None:
        """Make this seed's inputs and operations; the same on every call."""
        raise NotImplementedError

    def check_setup(self, checker: Checker) -> None:
        pass

    def check(self, index: int, out, checker: Checker) -> bool:
        """Check one operation's output; False means the operation failed."""
        raise NotImplementedError

    def digest(self, out) -> tuple:
        """What a repeat of the operation must return again, exactly."""
        if isinstance(out, Exception):
            return ("raised", type(out).__name__, str(out))
        return self._digest(out)

    def _digest(self, out) -> tuple:
        raise NotImplementedError

    def finish(self, checker: Checker) -> dict:
        return {}


class TableWorkload(Workload):
    """One `build_table` per operation on a seeded circuit, every fault missing-gate."""

    n = 0
    kinds: tuple = ()
    sampled_cells = 0

    def setup(self, qatpg) -> None:
        rng = np.random.default_rng(self.seed_seq)
        self.inst = random_instance(rng, self.n, self.kinds, "full")
        circuit, spec, conv = self.inst.load(qatpg)
        s = len(self.kinds)
        pairs = [(q, r) for q in range(1, s + 1) for r in range(s + 1)]
        if self.sampled_cells and self.sampled_cells < len(pairs):
            chosen = rng.choice(len(pairs), self.sampled_cells, replace=False)
            pairs = [pairs[i] for i in sorted(chosen)]
        self.cells = pairs
        self.ops = [(qatpg.diagnosis, "build_table", (circuit, spec, conv))]

    def check(self, index, out, checker) -> bool:
        if isinstance(out, Exception):
            return False
        table, tests = out
        check_table(self.inst, table, tests, self.cells, checker)
        self.test_bytes += [array_bytes(t) for t in tests.values()]
        return True

    def _digest(self, out) -> tuple:
        table, _tests = out
        return table.cells.tobytes(), tuple(sorted(table.undetectable))


class TableFill(TableWorkload):
    name = "table-fill"
    n = 8
    # 40 one-qubit gates, 16 CNOTs and 8 Toffolis in a seeded order.
    kinds = (("h",) * 6 + ("x", "y", "z", "phase") * 5 + ("ry", "rz") * 7
             + ("cnot",) * 16 + ("toffoli",) * 8)
    sampled_cells = 16


class WideRegister(TableWorkload):
    name = "wide-register"
    n = 11
    kinds = ("h", "ry", "cnot", "toffoli")


class Atpg(Workload):
    """One `build_test` per operation: every gate of 24 small circuits."""

    name = "atpg"
    circuits = 24
    # Positions 0-7 are one-qubit gates, 8-10 CNOTs, 11 the Toffoli.
    kinds = ("h", "x", "y", "z", "phase", "ry", "rz", "ry",
             "cnot", "cnot", "cnot", "toffoli")
    haar = (0, 2, 4, 5, 8, 11)
    phase_copy = (6,)

    def setup(self, qatpg) -> None:
        rng = np.random.default_rng(self.seed_seq)
        self.cases, self.ops = [], []
        for c in range(self.circuits):
            conv = "full" if c % 2 == 0 else "half"
            inst = random_instance(rng, 3 + c % 3, self.kinds, conv,
                                   haar=self.haar, phase_copy=self.phase_copy)
            circuit, spec, rc = inst.load(qatpg)
            for q in range(1, len(self.kinds) + 1):
                self.cases.append((inst, q))
                self.ops.append((qatpg.helstrom, "build_test", (circuit, spec, q, rc)))
        self.undetectable_type = qatpg.helstrom.UndetectableFault

    def check(self, index, out, checker) -> bool:
        inst, q = self.cases[index]
        k = refsim.optimal_overlap(inst.gate(q), inst.fault_matrix(q))
        undetectable = k >= refsim.UNDETECTABLE_K
        if isinstance(out, self.undetectable_type):
            checker.true("undetectable exactly when oracle k >= 1 - 1e-9", undetectable,
                         f"gate {q}: oracle k = {k!r}")
            return undetectable
        if isinstance(out, Exception):
            return False
        checker.true("undetectable exactly when oracle k >= 1 - 1e-9", not undetectable,
                     f"gate {q}: oracle k = {k!r}, but a test was built")
        check_test(inst, out, q, k, checker)
        self.test_bytes.append(array_bytes(out))
        return True

    def _digest(self, out) -> tuple:
        return (out.k, out.delta, out.input_state.tobytes(),
                out.omega_plus.tobytes(), out.omega_minus.tobytes())


@dataclass
class CampaignSet:
    """Campaigns of one protocol over one table."""

    label: str
    inst: Instance
    shots: int
    budget: int
    seeds: list  # one list of campaign seeds per true class
    table: object = None
    tests: dict = None


class Campaign(Workload):
    """One `run_campaign` per operation over two tables built in set-up."""

    name = "campaign"
    # Campaigns per fault class on each table. A round stays near 2 s, so
    # ops_per_s is a median over about ten rounds.
    paper_trials = 100
    larger_trials = 1
    larger_kinds = (("h", "x", "y", "z", "phase") * 2 + ("ry", "rz") * 2
                    + ("cnot",) * 7 + ("toffoli",) * 3)
    # The larger circuit is the same for every workload seed, like the paper
    # circuit: scheduling cost depends on the table's structure, and seeded
    # tables moved it by up to 15% from seed to seed. The workload seed
    # picks the campaign seeds on both tables.
    larger_circuit_seed = 24

    def __init__(self, root: Path, seed: int, index: int):
        super().__init__(root, seed, index)
        self.pooled = defaultdict(lambda: np.zeros(3, dtype=np.int64))
        self.hits = defaultdict(int)
        self.evaluations = 0

    def setup(self, qatpg) -> None:
        rng = np.random.default_rng(self.seed_seq)
        paper_text = (self.root / PAPER_CIRCUIT).read_text(encoding="utf-8")
        paper = Instance(paper_text, {"default": "smgf", "overrides": {}}, "full")
        base = 100000 + (self.seed % 10 ** 6) * self.paper_trials
        trials = [base + t for t in range(self.paper_trials)]
        larger = random_instance(np.random.default_rng(self.larger_circuit_seed), 5,
                                 self.larger_kinds, "full")
        self.sets = [
            CampaignSet("paper", paper, shots=10, budget=20,
                        seeds=[trials] * (len(paper.gates) + 1)),
            CampaignSet("larger", larger, shots=10, budget=60,
                        seeds=[[int(x) for x in rng.integers(0, 2 ** 31, self.larger_trials)]
                               for _ in range(len(larger.gates) + 1)]),
        ]
        self.meta, self.ops = [], []
        for cs in self.sets:
            circuit, spec, conv = cs.inst.load(qatpg)
            cs.table, cs.tests = qatpg.diagnosis.build_table(circuit, spec, conv)
            for r, seeds in enumerate(cs.seeds):
                for seed in seeds:
                    cfg = qatpg.diagnosis.CampaignConfig(
                        shots_per_test=cs.shots, rng_seed=seed, budget=cs.budget,
                        on_ambiguous="decide")
                    self.meta.append((cs, r))
                    self.ops.append((qatpg.diagnosis, "run_campaign", (cs.table, r, cfg)))

    def check_setup(self, checker) -> None:
        for cs in self.sets:
            s = len(cs.inst.gates)
            cells = [(q, r) for q in range(1, s + 1) for r in range(s + 1)]
            check_table(cs.inst, cs.table, cs.tests, cells, checker)

    def _digest(self, result) -> tuple:
        return (result.verdict, result.evaluations_used, result.tests_used,
                tuple(tuple(t.as_array()) for t in result.empirical.values()))

    def check(self, index, out, checker) -> bool:
        if isinstance(out, Exception):
            return False
        cs, r = self.meta[index]
        table = cs.table
        checker.true("verdict in 0..s", out.verdict in range(table.s + 1),
                     f"verdict {out.verdict!r}")
        checker.true("evaluations within budget", out.evaluations_used <= cs.budget,
                     f"{out.evaluations_used} > {cs.budget}")
        used = out.tests_used
        checker.true("tests distinct and usable",
                     len(set(used)) == len(used) and set(used) <= set(table.usable_tests),
                     f"tests {used}")
        checker.true("evaluations are shots per test",
                     out.evaluations_used == cs.shots * len(used),
                     f"{out.evaluations_used} for {len(used)} tests")
        for q in used:
            counts = out.empirical[q].as_array() * cs.shots
            whole = np.rint(counts)
            checker.close("frequencies are multiples of 1/shots",
                          np.abs(counts - whole).max(), 0.0)
            checker.true("counts add up to shots", int(whole.sum()) == cs.shots)
            self.pooled[(cs.label, q, r)] += whole.astype(np.int64)
        self.hits[(cs.label, r)] += out.verdict == r
        self.evaluations += out.evaluations_used
        return True

    def finish(self, checker) -> dict:
        # Pooled frequencies of every (test, true class) pair against its cell,
        # within Bernstein's bound for the pooled shot count.
        log_term = math.log(2 / ALPHA)
        tables = {cs.label: cs.table for cs in self.sets}
        for (label, q, r), counts in self.pooled.items():
            total = int(counts.sum())
            p = tables[label].cells[q - 1, r]
            bound = (np.sqrt(2 * p * (1 - p) * log_term / total)
                     + 2 * log_term / (3 * total))
            checker.true("pooled frequencies match the table cell",
                         bool(np.all(np.abs(counts / total - p) <= bound + TOL)),
                         f"{label} test {q} class {r}: {counts / total} vs {p}")
        rates = {}
        for cs in self.sets:
            per_class = [self.hits[(cs.label, r)] / len(seeds)
                         for r, seeds in enumerate(cs.seeds)]
            rates[cs.label] = per_class
        return {"verdict_rates": rates,
                "evaluations_per_campaign": self.evaluations / len(self.ops)}


WORKLOADS = {w.name: w for w in (TableFill, Atpg, WideRegister, Campaign)}
