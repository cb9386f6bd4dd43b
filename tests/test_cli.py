"""
End-to-end tests for the command line interface.

Run:
    pytest tests/test_cli.py -v

Every test drives ``qatpg.cli.main`` with an argv list and asserts on
exit codes, stdout/stderr text, and generated files, so the full
argparse wiring is exercised rather than the command functions alone.
"""
import json
import math

import numpy as np
import pytest

from qatpg._version import __version__
from qatpg.circuit import RotationConvention, parse_circuit
from qatpg.cli import (
    EXIT_AMBIGUOUS,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNDETECTABLE,
    EXIT_USAGE,
    main,
)
from qatpg.diagnosis import build_table
from qatpg.faults import FaultSpec

UNDETECTABLE_QC = "qubits 1\ngate h q0\ngate rz(0) q0\n"


@pytest.fixture()
def und_path(tmp_path):
    path = tmp_path / "und.qc"
    path.write_text(UNDETECTABLE_QC)
    return str(path)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ═══════════════════════════════════════════════════════════════════════════
# Section 1: Parser plumbing
# ═══════════════════════════════════════════════════════════════════════════

class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["catalog"],
        ["separator", "-c", "circuit.qc", "-i", "1"],
        ["table", "-c", "circuit.qc"],
    ])
    def test_seed_is_a_diagnose_flag_only(self, capsys, command):
        # Only campaigns sample; the other commands do not parse --seed.
        with pytest.raises(SystemExit) as exc:
            main(command + ["--seed", "1"])
        assert exc.value.code == 2

    def test_missing_circuit_file(self, capsys):
        code, _, err = run(capsys, "separator", "-c", "/nonexistent.qc", "-i", "1")
        assert code == EXIT_PARSE
        assert "cannot read circuit file" in err

    def test_empty_circuit_file(self, capsys, tmp_path):
        path = tmp_path / "empty.qc"
        path.write_text("")
        code, _, err = run(capsys, "separator", "-c", str(path), "-i", "1")
        assert code == EXIT_PARSE
        assert "empty circuit text" in err


# ═══════════════════════════════════════════════════════════════════════════
# Section 2: catalog
# ═══════════════════════════════════════════════════════════════════════════

class TestCatalog:
    def test_json_envelope_and_half_deltas(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "json")
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["tool"] == "qatpg"
        assert body["version"] == __version__
        assert body["convention"] == "half"
        assert "seed" not in body
        deltas = {e["gate"]: e["delta"] for e in body["catalog"]}
        assert set(deltas) == {
            "h", "x", "y", "z", "phase", "cnot", "toffoli",
            "ry(pi/6)", "rz(pi/16)",
        }
        for gate in ("h", "x", "y", "z", "cnot", "toffoli"):
            assert abs(deltas[gate]) <= 1e-9
        np.testing.assert_allclose(
            deltas["phase"], (1 - math.sqrt(2) / 2) / 2, atol=1e-12
        )
        np.testing.assert_allclose(
            deltas["ry(pi/6)"], (1 - math.sin(math.pi / 12)) / 2, atol=1e-12
        )
        np.testing.assert_allclose(
            deltas["rz(pi/16)"], (1 - math.sin(math.pi / 32)) / 2, atol=1e-12
        )

    def test_rounded_half_deltas_match_published_style(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "json")
        rounded = {
            e["gate"]: round(e["delta"], 2) for e in json.loads(out)["catalog"]
        }
        assert rounded["phase"] == 0.15
        assert rounded["ry(pi/6)"] == 0.37
        assert rounded["rz(pi/16)"] == 0.45

    def test_full_convention_rotation_deltas(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "--convention", "full", "--format", "json"
        )
        deltas = {e["gate"]: e["delta"] for e in json.loads(out)["catalog"]}
        np.testing.assert_allclose(deltas["ry(pi/6)"], 0.25, atol=1e-12)
        np.testing.assert_allclose(
            deltas["rz(pi/16)"], (1 - math.sin(math.pi / 16)) / 2, atol=1e-12
        )

    def test_phase_gate_kappa(self, capsys):
        _, out, _ = run(capsys, "catalog", "--gate", "phase", "--format", "json")
        entry = json.loads(out)["catalog"][0]
        np.testing.assert_allclose(entry["k"], math.sqrt(0.5), atol=1e-12)
        np.testing.assert_allclose(entry["kappa"], -math.pi / 4, atol=1e-12)

    def test_gate_filter_accepts_kind_alias(self, capsys):
        _, out, _ = run(capsys, "catalog", "--gate", "ry", "--format", "json")
        body = json.loads(out)
        assert [e["gate"] for e in body["catalog"]] == ["ry(pi/6)"]

    def test_unknown_gate_is_usage_error(self, capsys):
        code, _, err = run(capsys, "catalog", "--gate", "qft")
        assert code == EXIT_USAGE
        assert "unknown catalog gate 'qft'" in err

    def test_text_and_csv_layouts(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].split() == ["gate", "k", "delta", "kappa"]
        assert len(lines) == 10
        code, out, _ = run(capsys, "catalog", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "gate,k,delta,kappa"
        assert lines[1].startswith("h,")


# ═══════════════════════════════════════════════════════════════════════════
# Section 3: separator
# ═══════════════════════════════════════════════════════════════════════════

class TestSeparator:
    def test_perfectly_detectable_gate(self, capsys, benchmark_path):
        code, out, _ = run(
            capsys, "separator", "-c", benchmark_path, "-i", "1",
            "--format", "json",
        )
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["gate_index"] == 1
        assert abs(body["k"]) <= 1e-9
        assert abs(body["delta"]) <= 1e-9
        assert body["undetectable"] is False
        assert "circuit_sha256" in body and "fault_spec_sha256" in body
        assert "seed" not in body
        phi = np.array([complex(re, im) for re, im in body["phi"]])
        np.testing.assert_allclose(np.linalg.norm(phi), 1.0, atol=1e-9)

    def test_text_output_line(self, capsys, benchmark_path):
        code, out, _ = run(capsys, "separator", "-c", benchmark_path, "-i", "6")
        assert code == EXIT_OK
        assert out.startswith("gate 6: k = 0.000000")
        assert "phi' = [" in out

    def test_csv_output(self, capsys, benchmark_path):
        code, out, _ = run(
            capsys, "separator", "-c", benchmark_path, "-i", "4",
            "--convention", "full", "--format", "csv",
        )
        rows = dict(
            line.split(",", 1) for line in out.strip().split("\n")[1:]
        )
        assert rows["gate_index"] == "4"
        np.testing.assert_allclose(float(rows["delta"]), 0.25, atol=1e-9)

    def test_full_convention_changes_rotation_gate(self, capsys, benchmark_path):
        _, out, _ = run(
            capsys, "separator", "-c", benchmark_path, "-i", "5",
            "--convention", "full", "--format", "json",
        )
        body = json.loads(out)
        np.testing.assert_allclose(body["k"], math.cos(math.pi / 16), atol=1e-9)

    @pytest.mark.parametrize("idx", ["0", "7", "-2"])
    def test_gate_index_bounds(self, capsys, benchmark_path, idx):
        code, _, err = run(capsys, "separator", "-c", benchmark_path, "-i", idx)
        assert code == EXIT_USAGE
        assert "outside 1..6" in err

    def test_undetectable_requires_opt_in(self, capsys, und_path):
        code, out, err = run(capsys, "separator", "-c", und_path, "-i", "2")
        assert code == EXIT_UNDETECTABLE
        assert "undetectable" in err
        assert out == ""
        code, out, _ = run(
            capsys, "separator", "-c", und_path, "-i", "2",
            "--allow-undetectable", "--format", "json",
        )
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["undetectable"] is True
        np.testing.assert_allclose(body["k"], 1.0, atol=1e-9)

    def test_replacement_fault_spec_file(self, capsys, benchmark_path, tmp_path):
        spec_path = tmp_path / "fault.json"
        spec_path.write_text(json.dumps({
            "default": "smgf",
            "overrides": {
                "2": {"kind": "replace",
                      "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
            },
        }))
        code, out, _ = run(
            capsys, "separator", "-c", benchmark_path, "-i", "2",
            "--fault", str(spec_path), "--format", "json",
        )
        assert code == EXIT_OK
        body = json.loads(out)
        assert 0.0 <= body["k"] < 1.0 - 1e-9

    def test_bad_fault_spec_file(self, capsys, benchmark_path, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{not json")
        code, _, err = run(
            capsys, "separator", "-c", benchmark_path, "-i", "1",
            "--fault", str(spec_path),
        )
        assert code == EXIT_PARSE
        assert "not valid JSON" in err


# ═══════════════════════════════════════════════════════════════════════════
# Section 4: table
# ═══════════════════════════════════════════════════════════════════════════

class TestTable:
    def test_json_to_file_matches_library(self, capsys, benchmark_path, tmp_path):
        out_path = tmp_path / "table.json"
        code, out, _ = run(
            capsys, "table", "-c", benchmark_path, "--convention", "full",
            "--format", "json", "-o", str(out_path),
        )
        assert code == EXIT_OK
        body = json.loads(out_path.read_text())
        assert body["convention"] == "full"
        assert "seed" not in body
        assert body["s"] == 6
        circuit = parse_circuit(open(benchmark_path).read())
        table, _ = build_table(circuit, FaultSpec(), RotationConvention.FULL_ANGLE)
        np.testing.assert_allclose(
            np.array(body["cells"], dtype=float), table.cells, atol=1e-12
        )

    def test_text_grid(self, capsys, benchmark_path):
        code, out, _ = run(capsys, "table", "-c", benchmark_path)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].split() == [f"C{r}" for r in range(7)]
        assert len(lines) == 7
        assert lines[1].startswith("T1")
        assert "(1.00,0.00,0.00)" in lines[1]

    def test_csv_format(self, capsys, benchmark_path):
        code, out, _ = run(capsys, "table", "-c", benchmark_path, "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "test,variant,p0,p1,punknown"
        assert len(lines) == 1 + 42

    def test_undetectable_rows_gate_exit(self, capsys, und_path):
        code, out, err = run(capsys, "table", "-c", und_path)
        assert code == EXIT_UNDETECTABLE
        assert "undetectable fault rows: 2" in err
        code, out, _ = run(
            capsys, "table", "-c", und_path, "--allow-undetectable"
        )
        assert code == EXIT_OK
        assert "T2    (undetectable fault, no test)" in out


# ═══════════════════════════════════════════════════════════════════════════
# Section 5: diagnose
# ═══════════════════════════════════════════════════════════════════════════

class TestDiagnose:
    def test_healthy_verdict_text(self, capsys, benchmark_path):
        code, out, _ = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--convention", "full", "--decide",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "verdict: 0"
        assert lines[1].startswith("evaluations used:")
        assert "-> survivors" in lines[2]

    def test_json_body(self, capsys, benchmark_path):
        code, out, _ = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "6",
            "--convention", "full", "--format", "json", "--decide",
        )
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["verdict"] == 6
        assert body["convention"] == "full"
        assert body["seed"] == 0
        assert "circuit_sha256" in body
        assert body["evaluations_used"] <= 20

    def test_csv_body(self, capsys, benchmark_path):
        code, out, _ = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--convention", "full", "--format", "csv", "--decide",
        )
        lines = out.strip().split("\n")
        assert lines[0] == "test,p0,p1,punknown"
        assert lines[-1] == "verdict,0,,"

    def test_inject_fault_range(self, capsys, benchmark_path):
        code, _, err = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "7"
        )
        assert code == EXIT_USAGE
        assert "outside 0..6" in err

    def test_tiny_budget_is_ambiguous(self, capsys, benchmark_path):
        code, _, err = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--budget", "1",
        )
        assert code == EXIT_AMBIGUOUS
        assert err.startswith("ambiguous diagnosis; survivors:")

    def test_tiny_budget_with_decide(self, capsys, benchmark_path):
        code, out, _ = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--budget", "1", "--decide",
        )
        assert code == EXIT_OK
        assert out.startswith("verdict:")

    def test_ambiguous_json_lists_survivors(self, capsys, benchmark_path):
        code, out, err = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--budget", "1", "--format", "json",
        )
        assert code == EXIT_AMBIGUOUS
        body = json.loads(out)
        assert body["verdict"] is None
        assert len(body["survivors"]) > 1

    def test_explicit_order(self, capsys, benchmark_path):
        code, out, _ = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--convention", "full", "--order", "6,2", "--decide",
            "--format", "json",
        )
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["tests_used"][0] == 6

    def test_bad_order_token(self, capsys, benchmark_path):
        code, _, err = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--order", "6,banana",
        )
        assert code == EXIT_USAGE
        assert "bad --order value" in err

    def test_precomputed_table_round_trip(self, capsys, benchmark_path, tmp_path):
        table_path = tmp_path / "table.json"
        code, _, _ = run(
            capsys, "table", "-c", benchmark_path, "--convention", "full",
            "--format", "json", "-o", str(table_path),
        )
        assert code == EXIT_OK
        for r in range(7):
            direct = run(
                capsys, "diagnose", "-c", benchmark_path, "--inject-fault",
                str(r), "--convention", "full", "--seed", "3", "--decide",
                "--format", "json",
            )
            cached = run(
                capsys, "diagnose", "-c", benchmark_path, "--inject-fault",
                str(r), "--convention", "full", "--seed", "3", "--decide",
                "--format", "json", "--table", str(table_path),
            )
            assert direct[0] == cached[0] == EXIT_OK
            assert (
                json.loads(direct[1])["verdict"]
                == json.loads(cached[1])["verdict"]
            )

    def test_table_convention_mismatch(self, capsys, benchmark_path, tmp_path):
        table_path = tmp_path / "table.json"
        run(
            capsys, "table", "-c", benchmark_path, "--convention", "full",
            "--format", "json", "-o", str(table_path),
        )
        code, _, err = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--table", str(table_path),
        )
        assert code == EXIT_MISMATCH
        assert "table/circuit mismatch on convention" in err

    def test_table_circuit_mismatch(self, capsys, und_path, benchmark_path, tmp_path):
        table_path = tmp_path / "table.json"
        run(
            capsys, "table", "-c", und_path, "--allow-undetectable",
            "--format", "json", "-o", str(table_path),
        )
        code, _, err = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--table", str(table_path),
        )
        assert code == EXIT_MISMATCH
        assert "table/circuit mismatch on circuit_sha256" in err

    def test_garbage_table_file(self, capsys, benchmark_path, tmp_path):
        table_path = tmp_path / "table.json"
        table_path.write_text("[1, 2, 3]")
        code, _, err = run(
            capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "0",
            "--table", str(table_path),
        )
        assert code == EXIT_PARSE
        assert "table file is not valid" in err

    def test_seed_changes_the_transcript(self, capsys, benchmark_path):
        outs = []
        for seed in ("0", "1"):
            _, out, _ = run(
                capsys, "diagnose", "-c", benchmark_path, "--inject-fault", "4",
                "--convention", "full", "--seed", seed, "--decide",
                "--format", "json",
            )
            outs.append(json.loads(out)["empirical"])
        assert outs[0] != outs[1]
