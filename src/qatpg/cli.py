"""Command-line frontend: gate catalog, separators, tables, and diagnosis.

Exit codes: 0 success, 1 input parse error, 2 usage error,
3 undetectable fault (without --allow-undetectable), 4 table/circuit
consistency mismatch, 5 ambiguous diagnosis.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from qatpg._version import __version__
from qatpg.circuit import (
    Circuit,
    CircuitParseError,
    GateKind,
    PlacedGate,
    RotationConvention,
    gate_matrix,
    parse_circuit,
)
from qatpg.diagnosis import (
    ADAPTIVE,
    AmbiguousDiagnosis,
    CampaignConfig,
    DiagnosticTable,
    build_table,
    circuit_hash,
    fault_spec_hash,
    run_campaign,
)
from qatpg.faults import FaultSpec
from qatpg.helstrom import UndetectableFault, error_probability
from qatpg.separator import circuit_separator, gate_separator

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_USAGE = 2
EXIT_UNDETECTABLE = 3
EXIT_MISMATCH = 4
EXIT_AMBIGUOUS = 5

# Built-in catalog: gate name -> construction (kind, qubits, angle).
_CATALOG_GATES = [
    ("h", GateKind.H, 1, None),
    ("x", GateKind.X, 1, None),
    ("y", GateKind.Y, 1, None),
    ("z", GateKind.Z, 1, None),
    ("phase", GateKind.PHASE, 1, None),
    ("cnot", GateKind.CNOT, 2, None),
    ("toffoli", GateKind.TOFFOLI, 3, None),
    ("ry(pi/6)", GateKind.RY, 1, math.pi / 6),
    ("rz(pi/16)", GateKind.RZ, 1, math.pi / 16),
]


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--convention",
        choices=["half", "full"],
        default="half",
        help="rotation angle convention (default: half)",
    )
    parser.add_argument(
        "--format",
        choices=["json", "csv", "text"],
        default="text",
        help="output format (default: text)",
    )


def _convention(args) -> RotationConvention:
    return (
        RotationConvention.HALF_ANGLE
        if args.convention == "half"
        else RotationConvention.FULL_ANGLE
    )


def _load_circuit(path: str) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read circuit file: {exc}", EXIT_PARSE) from None
    try:
        return parse_circuit(text)
    except CircuitParseError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_PARSE) from None


def _load_fault_spec(value: str | None) -> FaultSpec:
    """`--fault` accepts the name 'smgf' or a path to a fault spec JSON file."""
    if value is None or value.lower() == "smgf":
        return FaultSpec()
    try:
        data = json.loads(Path(value).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _CliError(f"cannot read fault spec: {exc}", EXIT_PARSE) from None
    except json.JSONDecodeError as exc:
        raise _CliError(f"fault spec is not valid JSON: {exc}", EXIT_PARSE) from None
    try:
        return FaultSpec.from_json(data)
    except ValueError as exc:
        raise _CliError(f"bad fault spec: {exc}", EXIT_PARSE) from None


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_envelope(args, extra: dict, circuit: Circuit | None = None, spec: FaultSpec | None = None) -> dict:
    body = {"tool": "qatpg", "version": __version__, "convention": args.convention}
    if "seed" in args:
        body["seed"] = args.seed
    if circuit is not None:
        body["circuit_sha256"] = circuit_hash(circuit)
    if spec is not None:
        body["fault_spec_sha256"] = fault_spec_hash(spec)
    body.update(extra)
    return body


def _vector_json(vec) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(vec)]


def cmd_catalog(args) -> int:
    conv = _convention(args)
    only = args.gate.lower() if args.gate else None
    entries = []
    for name, kind, arity, angle in _CATALOG_GATES:
        if only and only not in (name, kind.value):
            continue
        gate = PlacedGate(kind=kind, qubits=tuple(range(arity)), angle=angle)
        g = gate_matrix(gate, conv)
        sol = gate_separator(g, np.eye(g.shape[0], dtype=np.complex128))
        entries.append(
            {
                "gate": name,
                "k": sol.k,
                "delta": error_probability(sol.k),
                "kappa": sol.kappa,
                "phases": [c.phase for c in sol.classes],
                "weights": [c.weight for c in sol.classes],
                "phi_prime": _vector_json(sol.phi_prime),
            }
        )
    if only and not entries:
        raise _CliError(f"unknown catalog gate '{args.gate}'", EXIT_USAGE)
    if args.format == "json":
        _emit(json.dumps(_json_envelope(args, {"catalog": entries}), indent=2), None)
    elif args.format == "csv":
        lines = ["gate,k,delta,kappa"]
        for e in entries:
            lines.append(f"{e['gate']},{e['k']!r},{e['delta']!r},{e['kappa']!r}")
        _emit("\n".join(lines), None)
    else:
        lines = [f"{'gate':<12} {'k':>10} {'delta':>10} {'kappa':>10}"]
        for e in entries:
            lines.append(
                f"{e['gate']:<12} {e['k']:>10.6f} {e['delta']:>10.6f} {e['kappa']:>10.6f}"
            )
        _emit("\n".join(lines), None)
    return EXIT_OK


def cmd_separator(args) -> int:
    conv = _convention(args)
    circuit = _load_circuit(args.circuit)
    spec = _load_fault_spec(args.fault)
    if not 1 <= args.gate_index <= circuit.size:
        raise _CliError(
            f"gate index {args.gate_index} outside 1..{circuit.size}", EXIT_USAGE
        )
    sol = circuit_separator(circuit, spec, args.gate_index, conv)
    delta = error_probability(min(sol.k, 1.0))
    undetectable = sol.k >= 1.0 - 1e-9
    if undetectable and not args.allow_undetectable:
        print(
            f"gate {args.gate_index}: fault undetectable (k = {sol.k:.9f}); "
            "pass --allow-undetectable to print anyway",
            file=sys.stderr,
        )
        return EXIT_UNDETECTABLE
    if args.format == "json":
        body = _json_envelope(
            args,
            {
                "gate_index": args.gate_index,
                "k": sol.k,
                "kappa": sol.kappa,
                "delta": delta,
                "undetectable": bool(undetectable),
                "phases": [c.phase for c in sol.classes],
                "weights": [c.weight for c in sol.classes],
                "phi_prime": _vector_json(sol.phi_prime),
                "phi": _vector_json(sol.phi),
            },
            circuit=circuit,
            spec=spec,
        )
        _emit(json.dumps(body, indent=2), None)
    elif args.format == "csv":
        lines = ["key,value", f"gate_index,{args.gate_index}", f"k,{sol.k!r}"]
        lines.append(f"kappa,{sol.kappa!r}")
        lines.append(f"delta,{delta!r}")
        _emit("\n".join(lines), None)
    else:
        lines = [
            f"gate {args.gate_index}: k = {sol.k:.6f}  kappa = {sol.kappa:.6f}  delta = {delta:.6f}"
        ]
        lines.append("eigenphase classes: " + ", ".join(
            f"(phase {c.phase:+.6f}, weight {c.weight:.6f}, x{c.multiplicity})"
            for c in sol.classes
        ))
        amp = ", ".join(f"{v.real:+.4f}{v.imag:+.4f}j" for v in sol.phi_prime)
        lines.append(f"phi' = [{amp}]")
        amp = ", ".join(f"{v.real:+.4f}{v.imag:+.4f}j" for v in sol.phi)
        lines.append(f"phi  = [{amp}]")
        _emit("\n".join(lines), None)
    return EXIT_OK


def cmd_table(args) -> int:
    conv = _convention(args)
    circuit = _load_circuit(args.circuit)
    if circuit.size < 1:
        raise _CliError("circuit has no gates to test", EXIT_PARSE)
    spec = _load_fault_spec(args.fault)
    table, _tests = build_table(circuit, spec, conv)
    if table.undetectable and not args.allow_undetectable:
        rows = ", ".join(str(q) for q in sorted(table.undetectable))
        print(
            f"undetectable fault rows: {rows}; pass --allow-undetectable to keep them",
            file=sys.stderr,
        )
        return EXIT_UNDETECTABLE
    if args.format == "json":
        body = table.to_json()
        body["convention"] = args.convention
        _emit(json.dumps(body, indent=2), args.output)
    elif args.format == "csv":
        _emit(table.to_csv(), args.output)
    else:
        _emit(table.to_text(), args.output)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    conv = _convention(args)
    circuit = _load_circuit(args.circuit)
    if circuit.size < 1:
        raise _CliError("circuit has no gates to test", EXIT_PARSE)
    spec = _load_fault_spec(args.fault)
    if not 0 <= args.inject_fault <= circuit.size:
        raise _CliError(
            f"--inject-fault {args.inject_fault} outside 0..{circuit.size}", EXIT_USAGE
        )
    if args.table:
        try:
            data = json.loads(Path(args.table).read_text(encoding="utf-8"))
            table = DiagnosticTable.from_json(data)
        except OSError as exc:
            raise _CliError(f"cannot read table: {exc}", EXIT_PARSE) from None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise _CliError(f"table file is not valid: {exc}", EXIT_PARSE) from None
        meta = table.metadata
        expect = {
            "circuit_sha256": circuit_hash(circuit),
            "fault_spec_sha256": fault_spec_hash(spec),
            "convention": args.convention,
        }
        for key, want in expect.items():
            have = meta.get(key)
            if have != want:
                print(
                    f"table/circuit mismatch on {key}: table has {have!r}, "
                    f"inputs give {want!r}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
    else:
        table, _tests = build_table(circuit, spec, conv)
    if not table.usable_tests:
        print("every gate fault is undetectable; nothing to diagnose", file=sys.stderr)
        return EXIT_UNDETECTABLE
    order = ADAPTIVE
    if args.order and args.order.lower() != ADAPTIVE:
        try:
            order = tuple(int(tok) for tok in args.order.split(",") if tok.strip())
        except ValueError:
            raise _CliError(f"bad --order value '{args.order}'", EXIT_USAGE) from None
    try:
        config = CampaignConfig(
            shots_per_test=args.shots,
            rng_seed=args.seed,
            test_order=order,
            budget=args.budget,
            on_ambiguous="decide" if args.decide else "raise",
        )
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    try:
        result = run_campaign(table, args.inject_fault, config)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    except AmbiguousDiagnosis as exc:
        survivors = ", ".join(str(r) for r in sorted(exc.survivors))
        print(f"ambiguous diagnosis; survivors: {survivors}", file=sys.stderr)
        if args.format == "json":
            body = _json_envelope(args, exc.result.to_json(), circuit=circuit, spec=spec)
            body["survivors"] = sorted(exc.survivors)
            _emit(json.dumps(body, indent=2), None)
        return EXIT_AMBIGUOUS
    if args.format == "json":
        body = _json_envelope(args, result.to_json(), circuit=circuit, spec=spec)
        _emit(json.dumps(body, indent=2), None)
    elif args.format == "csv":
        lines = ["test,p0,p1,punknown"]
        for q in result.tests_used:
            t = result.empirical[q]
            lines.append(f"{q},{t.p0!r},{t.p1!r},{t.p_unknown!r}")
        lines.append(f"verdict,{result.verdict},,")
        _emit("\n".join(lines), None)
    else:
        lines = [f"verdict: {result.verdict}"]
        lines.append(f"evaluations used: {result.evaluations_used}")
        for q, sv in zip(result.tests_used, result.survivors_history):
            t = result.empirical[q]
            lines.append(
                f"  test {q}: empirical ({t.p0:.3f},{t.p1:.3f},{t.p_unknown:.3f}) "
                f"-> survivors {sorted(sv)}"
            )
        _emit("\n".join(lines), None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qatpg",
        description="Test pattern generation and fault diagnosis for quantum circuits",
    )
    parser.add_argument("--version", action="version", version=f"qatpg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="separator catalog for the built-in gates")
    _common_flags(p)
    p.add_argument("--gate", help="only this catalog gate")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("separator", help="separator input state for one gate")
    _common_flags(p)
    p.add_argument("-c", "--circuit", required=True, help="circuit file")
    p.add_argument("-i", "--gate-index", type=int, required=True, help="1-based gate index")
    p.add_argument("--fault", default="smgf", help="'smgf' or a fault spec JSON file")
    p.add_argument("--allow-undetectable", action="store_true")
    p.set_defaults(func=cmd_separator)

    p = sub.add_parser("table", help="diagnostic outcome table for a circuit")
    _common_flags(p)
    p.add_argument("-c", "--circuit", required=True, help="circuit file")
    p.add_argument("--fault", default="smgf", help="'smgf' or a fault spec JSON file")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.add_argument("--allow-undetectable", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("diagnose", help="seeded diagnosis campaign")
    _common_flags(p)
    p.add_argument("-c", "--circuit", required=True, help="golden circuit file")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument("--inject-fault", type=int, required=True, metavar="R",
                   help="simulate the circuit-under-test with fault R (0 = healthy)")
    p.add_argument("--fault", default="smgf", help="'smgf' or a fault spec JSON file")
    p.add_argument("--table", help="reuse a table JSON (hash-checked against -c)")
    p.add_argument("--budget", type=int, default=20, help="total evaluation budget")
    p.add_argument("--shots", type=int, default=10, help="shots per executed test")
    p.add_argument("--order", default=ADAPTIVE,
                   help="'adaptive' or comma-separated test indexes")
    p.add_argument("--decide", action="store_true",
                   help="on ambiguity, return the best-scoring survivor instead of failing")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except UndetectableFault as exc:
        print(f"undetectable fault: {exc}", file=sys.stderr)
        return EXIT_UNDETECTABLE
    except CircuitParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
