"""Build the benchmark diagnostic table and sweep seeded campaigns over it.

Usage:
    python scripts/run_benchmark.py
    python scripts/run_benchmark.py --convention half --campaigns 500
"""
import argparse
from pathlib import Path

from qatpg import (
    CampaignConfig,
    FaultSpec,
    RotationConvention,
    build_table,
    parse_circuit,
    run_campaign,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "circuits" / "3qubitcnot.qc"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", default=str(BENCHMARK), help="circuit file")
    parser.add_argument("--convention", choices=("half", "full"), default="full")
    parser.add_argument("--campaigns", type=int, default=200,
                        help="seeded campaigns per injected fault class")
    parser.add_argument("--shots", type=int, default=10)
    parser.add_argument("--budget", type=int, default=20)
    parser.add_argument("--seed", type=int, default=100000,
                        help="first campaign seed; trial t uses seed + t")
    args = parser.parse_args()

    conv = (RotationConvention.FULL_ANGLE if args.convention == "full"
            else RotationConvention.HALF_ANGLE)
    circuit = parse_circuit(Path(args.circuit).read_text(encoding="utf-8"))
    table, tests = build_table(circuit, FaultSpec(), conv)

    print(f"circuit: {args.circuit} ({circuit.n} qubits, {circuit.size} gates)")
    print(f"convention: {args.convention}")
    print()
    print("per-gate error probabilities:")
    for q in range(1, table.s + 1):
        if q in table.undetectable:
            print(f"  gate {q}: undetectable")
        else:
            print(f"  gate {q}: delta = {table.deltas[q - 1]:.6f} "
                  f"(k = {tests[q].k:.6f})")
    print()

    print(table.to_text())
    print()

    print(f"campaign sweep: {args.campaigns} campaigns per class, "
          f"{args.shots} shots/test, budget {args.budget}, decisive mode")
    for r in range(table.s + 1):
        hits = 0
        used = 0
        for trial in range(args.campaigns):
            cfg = CampaignConfig(
                shots_per_test=args.shots,
                rng_seed=args.seed + trial,
                budget=args.budget,
                on_ambiguous="decide",
            )
            result = run_campaign(table, r, cfg)
            hits += result.verdict == r
            used += result.evaluations_used
        print(f"  inject {r}: correct {hits / args.campaigns:6.1%}   "
              f"mean evaluations {used / args.campaigns:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
