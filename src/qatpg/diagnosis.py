"""Fault tables, outcome sampling, and diagnostic measurement campaigns.

The diagnostic table holds one row per gate test and one column per
hypothesis: column 0 is the healthy circuit, column r > 0 the variant
with gate r faulty. Cell (q, r) is the exact outcome triplet of test q
run on variant r. Diagnosis samples shots from the true column, compares
empirical frequencies against every column, and eliminates hypotheses
whose total-variation distance is not competitive.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from qatpg._version import __version__ as _tool_version
from qatpg.circuit import Circuit, RotationConvention, serialize_circuit
from qatpg.faults import FaultSpec
from qatpg.helstrom import HelstromTest, OutcomeTriplet, UndetectableFault, table_cells

# Sentinel for CampaignConfig.test_order: pick tests greedily at run time.
ADAPTIVE = "adaptive"

# A hypothesis survives while its distance is within this of the best one.
ELIMINATION_MARGIN = 0.25

# Scores closer than this count as tied. Empirical frequencies are
# multiples of 1/shots and many cells are round numbers, so exact
# mathematical ties are common; without a tolerance the last ulp of a
# cell would decide eliminations, verdicts and test order.
TIE_TOL = 1e-12

# Survivor pairs times candidate tests scored in one array by the scheduler,
# which bounds its scratch memory on large tables.
_PAIR_BLOCK = 1 << 18

CSV_HEADER = "test,variant,p0,p1,punknown"


def circuit_hash(circuit: Circuit) -> str:
    return hashlib.sha256(serialize_circuit(circuit).encode("utf-8")).hexdigest()


def fault_spec_hash(spec: FaultSpec) -> str:
    return hashlib.sha256(spec.canonical_json().encode("utf-8")).hexdigest()


class AmbiguousDiagnosis(RuntimeError):
    """More than one hypothesis survived the evaluation budget."""

    def __init__(self, survivors, result: "DiagnosisResult"):
        names = ", ".join(str(r) for r in sorted(survivors))
        super().__init__(
            f"budget exhausted with {len(survivors)} surviving hypotheses: {names}"
        )
        self.survivors = frozenset(survivors)
        self.result = result


@dataclass(frozen=True)
class DiagnosticTable:
    """Exact outcome triplets for every (test, hypothesis) pair.

    cells has shape (s, s + 1, 3); rows for undetectable gates are NaN
    and listed in `undetectable`. deltas[q - 1] is the per-test
    misclassification floor, NaN for undetectable rows.
    """

    s: int
    cells: np.ndarray
    deltas: np.ndarray
    undetectable: frozenset[int]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if cells.shape != (self.s, self.s + 1, 3):
            raise ValueError(
                f"cells shape {cells.shape} does not match {(self.s, self.s + 1, 3)}"
            )
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "deltas", np.asarray(self.deltas, dtype=float))
        object.__setattr__(self, "undetectable", frozenset(int(q) for q in self.undetectable))

    def cell(self, q: int, r: int) -> OutcomeTriplet:
        if not 1 <= q <= self.s:
            raise ValueError(f"test index {q} outside 1..{self.s}")
        if not 0 <= r <= self.s:
            raise ValueError(f"variant index {r} outside 0..{self.s}")
        return OutcomeTriplet.from_array(self.cells[q - 1, r])

    @property
    def usable_tests(self) -> tuple[int, ...]:
        return tuple(q for q in range(1, self.s + 1) if q not in self.undetectable)

    def to_json(self) -> dict:
        def cell_list(q, r):
            if q + 1 in self.undetectable:
                return None
            return [float(v) for v in self.cells[q, r]]

        return {
            "tool": "qatpg",
            "version": _tool_version,
            "s": self.s,
            "metadata": dict(self.metadata),
            "undetectable": sorted(self.undetectable),
            "deltas": [
                None if q in self.undetectable else float(self.deltas[q - 1])
                for q in range(1, self.s + 1)
            ],
            "cells": [
                [cell_list(q, r) for r in range(self.s + 1)] for q in range(self.s)
            ],
            "cells_rounded": [
                [
                    None if q + 1 in self.undetectable
                    else [round(float(v), 2) for v in self.cells[q, r]]
                    for r in range(self.s + 1)
                ]
                for q in range(self.s)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiagnosticTable":
        s = int(data["s"])
        undetectable = frozenset(int(q) for q in data.get("undetectable", []))
        cells = np.full((s, s + 1, 3), np.nan)
        for q in range(s):
            for r in range(s + 1):
                entry = data["cells"][q][r]
                if entry is not None:
                    cells[q, r] = entry
        deltas = np.array(
            [
                np.nan if d is None else float(d)
                for d in data.get("deltas", [np.nan] * s)
            ]
        )
        return cls(
            s=s,
            cells=cells,
            deltas=deltas,
            undetectable=undetectable,
            metadata=dict(data.get("metadata", {})),
        )

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for q in range(1, self.s + 1):
            for r in range(self.s + 1):
                if q in self.undetectable:
                    lines.append(f"{q},{r},,,")
                else:
                    p0, p1, pu = (float(x) for x in self.cells[q - 1, r])
                    lines.append(f"{q},{r},{p0!r},{p1!r},{pu!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Fixed-width grid of rounded triplets, one line per test."""
        lines = ["      " + "  ".join(f"{'C' + str(r):>16}" for r in range(self.s + 1))]
        for q in range(1, self.s + 1):
            if q in self.undetectable:
                lines.append(f"T{q:<4} (undetectable fault, no test)")
                continue
            cells = (f"({p0:.2f},{p1:.2f},{pu:.2f})" for p0, p1, pu in self.cells[q - 1])
            lines.append(f"T{q:<4} " + "  ".join(f"{c:>16}" for c in cells))
        return "\n".join(lines)


def build_table(
    circuit: Circuit,
    spec: FaultSpec,
    convention: RotationConvention,
    tol: float = 1e-9,
) -> tuple[DiagnosticTable, dict[int, HelstromTest]]:
    """Build the full diagnostic table plus the per-gate tests that fill it.

    Gates whose fault cannot be observed get a NaN row and are recorded in
    the table's `undetectable` set instead of aborting the build. Tests and
    cells come from one backward and one forward sweep
    (`helstrom.table_cells`).
    """
    s = circuit.size
    if s < 1:
        raise ValueError("cannot build a table for a circuit with no gates")
    cells, tests = table_cells(circuit, spec, convention, tol=tol)
    deltas = np.full(s, np.nan)
    for q, test in tests.items():
        deltas[q - 1] = test.delta
    undetectable = set(range(1, s + 1)) - set(tests)
    table = DiagnosticTable(
        s=s,
        cells=cells,
        deltas=deltas,
        undetectable=frozenset(undetectable),
        metadata={
            "circuit_sha256": circuit_hash(circuit),
            "fault_spec_sha256": fault_spec_hash(spec),
            "convention": convention.value,
        },
    )
    return table, tests


def _outcomes(triplet, draws):
    """Outcome indexes (0, 1, or 2) for uniform draws, by inverse CDF.

    Negative entries of the triplet are clipped to zero and the rest is
    normalised; `draws` is one value or an array of them.
    """
    p = np.clip(np.asarray(triplet, float), 0.0, None)
    total = p.sum()
    if not math.isfinite(total) or total <= 0:
        raise ValueError(f"triplet {p} has no probability mass")
    cdf = np.cumsum(p / total)
    return np.minimum(np.searchsorted(cdf, draws, side="right"), 2)


def sample_outcome(triplet, generator: np.random.Generator) -> int:
    """Draw one outcome index (0, 1, or 2) using the generator's next value."""
    p = triplet.as_array() if isinstance(triplet, OutcomeTriplet) else triplet
    return int(_outcomes(p, generator.random()))


def _l1_to_columns(emp: np.ndarray, row: np.ndarray) -> np.ndarray:
    """L1 distance from one empirical triplet to every cell of a table row."""
    return np.abs(emp - row).sum(axis=-1)


def classify(table: DiagnosticTable, observations) -> int:
    """Most plausible hypothesis for empirical triplets keyed by test index.

    Scores every column by the summed L1 distance to the observed
    frequencies and returns the argmin, breaking ties (within TIE_TOL)
    toward the smaller index, so healthy wins over any fault it ties with.
    """
    if not observations:
        raise ValueError("no observations to classify")
    obs = {}
    for q, trip in observations.items():
        qi = int(q)
        if not 1 <= qi <= table.s:
            raise ValueError(f"test index {qi} outside 1..{table.s}")
        if qi in table.undetectable:
            raise ValueError(f"test {qi} is undetectable and produced no data")
        arr = trip.as_array() if isinstance(trip, OutcomeTriplet) else np.asarray(trip, float)
        obs[qi] = arr
    scores = sum(_l1_to_columns(emp, table.cells[q - 1]) for q, emp in obs.items())
    return _tolerant_argmin(scores)


def _tolerant_argmin(scores: np.ndarray) -> int:
    """First position whose score is within TIE_TOL of the minimum."""
    return int(np.flatnonzero(scores <= scores.min() + TIE_TOL)[0])


def plan_shots(delta: float, epsilon: float) -> int:
    """Shots per test so one test misleads with probability at most epsilon.

    Chernoff sizing for a vote with per-shot error delta < 1/2:
    n = ceil(ln(1/eps) / (2 (1/2 - delta)^2)), at least 1.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon {epsilon} outside (0, 1)")
    if delta < 0:
        raise ValueError(f"error probability {delta} is negative")
    if delta >= 0.5:
        raise UndetectableFault(
            f"per-shot error {delta} leaves no statistical signal", k=None
        )
    n = math.ceil(math.log(1.0 / epsilon) / (2.0 * (0.5 - delta) ** 2))
    return max(1, n)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for a diagnostic campaign.

    test_order is either ADAPTIVE or an explicit tuple of test indexes.
    budget caps total circuit evaluations (shots) across all tests; None
    means one pass through the available tests. on_ambiguous picks what
    happens when the budget runs out with several survivors: "raise"
    raises AmbiguousDiagnosis, "decide" returns the surviving hypothesis
    with the smallest aggregate L1 score.
    """

    shots_per_test: int = 10
    rng_seed: int = 0
    test_order: object = ADAPTIVE
    budget: int | None = None
    elimination_margin: float = ELIMINATION_MARGIN
    on_ambiguous: str = "raise"

    def __post_init__(self):
        if int(self.shots_per_test) < 1:
            raise ValueError("shots_per_test must be at least 1")
        object.__setattr__(self, "shots_per_test", int(self.shots_per_test))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
        if self.budget is not None and int(self.budget) < 1:
            raise ValueError("budget must be at least 1 when set")
        if self.budget is not None:
            object.__setattr__(self, "budget", int(self.budget))
        if self.on_ambiguous not in ("raise", "decide"):
            raise ValueError("on_ambiguous must be 'raise' or 'decide'")
        if self.test_order != ADAPTIVE:
            order = tuple(int(q) for q in self.test_order)
            if len(set(order)) != len(order):
                raise ValueError("explicit test order repeats a test")
            object.__setattr__(self, "test_order", order)


@dataclass(frozen=True)
class DiagnosisResult:
    """Outcome of one campaign.

    verdict is the surviving hypothesis (None inside an AmbiguousDiagnosis
    carrier). empirical maps each executed test to its frequency triplet;
    per_class_l1 aggregates distances over executed tests for every
    hypothesis; survivors_history records the surviving set after each
    test, newest last.
    """

    verdict: int | None
    evaluations_used: int
    tests_used: tuple[int, ...]
    empirical: dict[int, OutcomeTriplet]
    per_class_l1: dict[int, float]
    survivors_history: tuple[frozenset[int], ...]

    def to_json(self) -> dict:
        return {
            "tool": "qatpg",
            "version": _tool_version,
            "verdict": self.verdict,
            "evaluations_used": self.evaluations_used,
            "tests_used": list(self.tests_used),
            "empirical": {
                str(q): [t.p0, t.p1, t.p_unknown] for q, t in self.empirical.items()
            },
            "per_class_l1": {str(r): v for r, v in sorted(self.per_class_l1.items())},
            "survivors_history": [sorted(sv) for sv in self.survivors_history],
        }


def _adaptive_pick(table: DiagnosticTable, unused, survivors) -> int:
    """Unused test with the largest minimum pairwise TV among survivors.

    Scores every candidate test at once, then keeps a running best over
    `unused` in order that only an improvement of more than TIE_TOL
    replaces, so ties resolve toward the earlier test.
    """
    ordered = sorted(survivors)
    if len(ordered) < 2:
        return unused[0]
    cells = table.cells[np.asarray(unused) - 1][:, ordered]
    i, j = np.triu_indices(len(ordered), 1)
    step = max(1, _PAIR_BLOCK // len(i))
    scores = np.concatenate([
        (0.5 * np.abs(block[:, i] - block[:, j]).sum(axis=2)).min(axis=1)
        for block in (cells[k:k + step] for k in range(0, len(cells), step))
    ])
    best_q, best_score = None, -1.0
    for q, score in zip(unused, scores.tolist()):
        if score > best_score + TIE_TOL:
            best_q, best_score = q, score
    return best_q


def run_campaign(
    table: DiagnosticTable, true_class: int, config: CampaignConfig
) -> DiagnosisResult:
    """Simulate a diagnostic campaign against the hypothesis `true_class`.

    Shots for each executed test are drawn from the exact triplet of the
    true column with a per-test random substream, so outcomes do not
    depend on the order in which tests are chosen. After each test, every
    hypothesis whose TV distance to the empirical triplet exceeds the best
    survivor's by more than the elimination margin is discarded. The
    campaign stops when one hypothesis survives, or when the budget or
    test supply runs out (then see config.on_ambiguous).
    """
    if not 0 <= true_class <= table.s:
        raise ValueError(f"true class {true_class} outside 0..{table.s}")
    available = list(table.usable_tests)
    if config.test_order != ADAPTIVE:
        for q in config.test_order:
            if not 1 <= q <= table.s:
                raise ValueError(f"test index {q} outside 1..{table.s}")
            if q in table.undetectable:
                raise ValueError(f"test {q} is undetectable and cannot be scheduled")
        available = [q for q in config.test_order]
    if not available:
        raise ValueError("no usable tests: every gate fault is undetectable")

    survivors = np.arange(table.s + 1)
    l1_total = np.zeros(table.s + 1)
    unused = list(available)
    budget_left = config.budget if config.budget is not None else math.inf
    executed: list[tuple[int, np.ndarray]] = []
    history: list[frozenset[int]] = []
    evaluations = 0

    while len(survivors) > 1 and unused and budget_left > 0:
        if config.test_order == ADAPTIVE:
            q = _adaptive_pick(table, unused, survivors)
        else:
            q = unused[0]
        unused.remove(q)
        shots = int(min(config.shots_per_test, budget_left))
        budget_left -= shots
        evaluations += shots
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(config.rng_seed, spawn_key=(q,)))
        )
        outcomes = _outcomes(table.cells[q - 1, true_class], rng.random(shots))
        emp = np.bincount(outcomes, minlength=3) / shots
        executed.append((q, emp))
        l1 = _l1_to_columns(emp, table.cells[q - 1])
        l1_total += l1
        tv = 0.5 * l1[survivors]
        survivors = survivors[tv <= tv.min() + config.elimination_margin + TIE_TOL]
        history.append(frozenset(survivors.tolist()))

    base = dict(
        evaluations_used=evaluations,
        tests_used=tuple(q for q, _ in executed),
        empirical={q: OutcomeTriplet.from_array(emp) for q, emp in executed},
        per_class_l1=dict(enumerate(l1_total.tolist())),
        survivors_history=tuple(history),
    )
    if len(survivors) == 1:
        return DiagnosisResult(verdict=int(survivors[0]), **base)
    if config.on_ambiguous == "raise":
        raise AmbiguousDiagnosis(survivors.tolist(), DiagnosisResult(verdict=None, **base))
    verdict = int(survivors[_tolerant_argmin(l1_total[survivors])])
    return DiagnosisResult(verdict=verdict, **base)
