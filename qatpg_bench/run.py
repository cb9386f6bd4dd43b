"""Run one qatpg benchmark workload and print its metrics as JSON.

Usage, from the repository root:

    python3 qatpg_bench/run.py --workload table-fill --seed 1 --seconds 20 --trace 0

The workload is a closed loop with one caller: it repeats whole rounds of
the same operations until the timed phase reaches --seconds. With
--trace 0 the last line of output reports the end-to-end metrics
(ops_per_s, peak_rss_mib, setup_s); with --trace 1 it alternates
untraced and traced rounds and reports the per-layer metrics. Both check
every output with computations made apart from qatpg. Details go to
.bench_out/<workload>-seed<n>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Before every round, set-up runs at least once and until SETUP_BURST_S
# have passed (at most SETUP_BURST_MAX times); setup_s is the median of
# all of them. Spreading set-ups over the run exposes them to the same
# machine conditions as the rounds.
SETUP_BURST_S = 0.02
SETUP_BURST_MAX = 100


def load_program():
    """Import qatpg from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qatpg" / "__init__.py").is_file():
        raise SystemExit(f"error: no qatpg sources under {src}")
    # One BLAS thread, set before numpy loads, so timings measure the
    # program rather than thread scheduling on a small machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import qatpg

    if Path(qatpg.__file__).resolve().parent != (src / "qatpg").resolve():
        raise SystemExit(f"error: qatpg was imported from {qatpg.__file__}")
    return qatpg


class Runner:
    """Runs rounds of a workload's operations and checks every output.

    The first round's outputs get the full checks; every later round must
    return exactly what the first one did.
    """

    def __init__(self, workload, checker):
        self.workload = workload
        self.checker = checker
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.first: list[tuple[bool, tuple]] = []

    def round(self) -> float:
        """One round; returns the time spent inside the operations."""
        elapsed = 0.0
        first_round = self.rounds == 0
        clock = time.perf_counter
        for index, (module, fn, args) in enumerate(self.workload.ops):
            start = clock()
            try:
                out = getattr(module, fn)(*args)
            except Exception as exc:  # an operation's failure is counted, not fatal
                out = exc
            elapsed += clock() - start
            if first_round:
                ok = self.workload.check(index, out, self.checker)
                self.first.append((ok, self.workload.digest(out)))
            else:
                ok, digest = self.first[index]
                same = self.workload.digest(out) == digest
                self.checker.true("output equals the first round's", same,
                                  f"operation {index}, round {self.rounds + 1}")
                ok = ok and (same or not isinstance(out, Exception))
            if not ok:
                self.failed += 1
                if isinstance(out, Exception) and self.failed <= 3:
                    traceback.print_exception(out, file=sys.stderr)
            del out
        self.rounds += 1
        self.attempted += len(self.workload.ops)
        return elapsed


def per_layer(tracer, ops: int, traced, untraced, test_bytes: float,
              evaluations: float) -> dict:
    """Per-layer metrics from the traced rounds, per operation unless named."""
    def per_op(x):
        return x / ops

    metrics = {
        "circuit.apply_calls": (per_op(tracer.calls("circuit.apply", "circuit.apply_adjoint")), "count/op"),
        "circuit.apply_s": (per_op(tracer.total_s("circuit.apply", "circuit.apply_adjoint")), "s/op"),
        "circuit.gate_matrix_calls": (per_op(tracer.calls("circuit.gate_matrix")), "count/op"),
        "circuit.self_s": (per_op(tracer.layer_self_s("circuit")), "s/op"),
        "linalg.eig_calls": (per_op(tracer.calls("linalg.eig_unitary")), "count/op"),
        "linalg.eig_s": (per_op(tracer.total_s("linalg.eig_unitary")), "s/op"),
        "linalg.eig_calls_per_test": (
            tracer.calls("linalg.eig_unitary") / max(1, tracer.calls("helstrom.build_test")), "count/test"),
        "linalg.self_s": (per_op(tracer.layer_self_s("linalg")), "s/op"),
        "separator.solve_opt_s": (per_op(tracer.total_s("separator.solve_opt")), "s/op"),
        "separator.self_s": (per_op(tracer.layer_self_s("separator")), "s/op"),
        "faults.faulty_variant_calls": (per_op(tracer.calls("faults.faulty_variant")), "count/op"),
        "faults.self_s": (per_op(tracer.layer_self_s("faults")), "s/op"),
        "helstrom.build_test_self_s": (per_op(tracer.self_s("helstrom.build_test")), "s/op"),
        "helstrom.test_bytes": (test_bytes, "B/test"),
        "helstrom.outcome_probs_calls": (per_op(tracer.calls("helstrom.outcome_probs")), "count/op"),
        "helstrom.outcome_probs_s": (per_op(tracer.total_s("helstrom.outcome_probs")), "s/op"),
        "helstrom.self_s": (per_op(tracer.layer_self_s("helstrom")), "s/op"),
        "diagnosis.build_table_self_s": (per_op(tracer.self_s("diagnosis.build_table")), "s/op"),
        "diagnosis.sample_outcome_calls": (per_op(tracer.calls("diagnosis.sample_outcome")), "count/op"),
        "diagnosis.sample_outcome_s": (per_op(tracer.total_s("diagnosis.sample_outcome")), "s/op"),
        "diagnosis.campaign_self_s": (per_op(tracer.self_s("diagnosis.run_campaign")), "s/op"),
        "diagnosis.evaluations_per_campaign": (evaluations, "count/campaign"),
        "diagnosis.self_s": (per_op(tracer.layer_self_s("diagnosis")), "s/op"),
        "trace.uncovered_share": (100.0 * (1 - tracer.covered_s() / sum(traced)), "%"),
        "trace.overhead": (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1), "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qatpg = load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    from workloads import WORKLOADS, Checker

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    index = list(WORKLOADS).index(args.workload)
    workload = WORKLOADS[args.workload](ROOT, args.seed, index)

    setup_times = []

    def set_up() -> None:
        burst = []
        while not burst or (sum(burst) < SETUP_BURST_S and len(burst) < SETUP_BURST_MAX):
            start = time.perf_counter()
            workload.setup(qatpg)
            burst.append(time.perf_counter() - start)
        setup_times.extend(burst)

    checker = Checker()
    set_up()
    workload.check_setup(checker)

    runner = Runner(workload, checker)
    untraced, traced = [], []
    tracer = Tracer(qatpg)
    if args.trace:
        while sum(untraced) + sum(traced) < args.seconds or not traced:
            if runner.rounds:
                set_up()
            untraced.append(runner.round())
            set_up()
            tracer.install()
            try:
                traced.append(runner.round())
            finally:
                tracer.uninstall()
    else:
        while sum(untraced) < args.seconds or len(untraced) < 2:
            if runner.rounds:
                set_up()
            untraced.append(runner.round())
    extra = workload.finish(checker)

    ops = len(workload.ops)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        test_bytes = statistics.mean(workload.test_bytes) if workload.test_bytes else 0.0
        metrics = per_layer(tracer, ops * len(traced), traced, untraced, test_bytes,
                            extra.get("evaluations_per_campaign", 0.0))
    else:
        completed = ops - runner.failed / runner.rounds
        metrics = {
            "ops_per_s": {"value": completed / statistics.median(untraced), "unit": "1/s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_round": ops, "rounds": runner.rounds,
        "untraced_round_s": untraced, "traced_round_s": traced,
        "setup_s": setup_times, "peak_rss_mib": rss_mib,
        "checks": checker.checks, "check_failures": checker.failures,
        "check_messages": checker.messages, "worst_share_of_tolerance": dict(checker.worst),
        "functions": {name: vars(stat) for name, stat in sorted(tracer.stats.items())},
        **extra,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {runner.rounds} rounds of {ops} "
          f"operations, {runner.failed} failed; {checker.checks} checks, "
          f"{checker.failures} failed")
    for message in checker.messages:
        print(f"  check failed: {message}")
    for label, rates in extra.get("verdict_rates", {}).items():
        print(f"  correct-verdict rate per class, {label} table: "
              + " ".join(f"{r}:{v:.3f}" for r, v in enumerate(rates)))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": checker.failures == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
