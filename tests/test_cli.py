"""CLI contract: exit codes, JSON schema conformance, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from polyorbit.cli import (
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    REPORT_SCHEMA,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--output", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    return code, doc


class TestCertify:
    def test_consistent_exit_zero(self, capsys):
        code, doc = run_json(capsys, "certify", "-u", "x+1", "-r", "1",
                             "--primes", "100")
        assert code == EXIT_OK
        assert doc["result"]["status"] == "ConsistentUpTo(100)"
        for cert in doc["result"]["certificates"]:
            assert cert["m_p"] == cert["p"] - 1

    def test_refuted_exit_two(self, capsys):
        code, doc = run_json(capsys, "certify", "-u", "4x-2", "-r", "1",
                             "--primes", "100")
        assert code == EXIT_REFUTED
        assert doc["result"]["status"] == "RefutedAt(5)"
        assert doc["result"]["refuted_at"] == 5

    def test_coefficient_list_input(self, capsys):
        code, doc = run_json(capsys, "certify", "-u", "-2,4", "-r", "0",
                             "--primes", "50")
        assert code == EXIT_OK
        assert doc["inputs"]["poly"] == "4x-2"
        by_p = {c["p"]: c for c in doc["result"]["certificates"]}
        assert by_p[2]["m_p"] == 1 and by_p[3]["m_p"] == 3


class TestClassify:
    def test_citation_carried(self, capsys):
        code, doc = run_json(capsys, "classify", "-u", "-2x-1", "-r", "1",
                             "-A", "2")
        assert code == EXIT_OK
        assert doc["result"]["result"] == "InL"
        assert doc["result"]["citation"] == "Thm3.4"
        assert doc["citations"] == ["Thm3.4"]

    def test_undecidable_exit_three(self, capsys):
        code, doc = run_json(capsys, "classify", "-u", "x+1", "-r", "5",
                             "-A", "2")
        assert code == EXIT_UNDECIDED
        assert doc["result"]["decidable"] is False

    def test_nonprime_A_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "-u", "x+1", "-r", "1",
                               "-A", "4")
        assert code == EXIT_USAGE
        assert "prime" in err


class TestOrbit:
    def test_reached_zero(self, capsys):
        code, doc = run_json(capsys, "orbit", "-u", "-x^3+9x^2-25x+25",
                             "-r", "2")
        assert code == EXIT_OK
        assert doc["result"]["kind"] == "reached-zero"
        assert doc["result"]["index"] == 4

    def test_cycle_witness(self, capsys):
        code, doc = run_json(capsys, "orbit", "-u", "-x+5", "-r", "2")
        assert code == EXIT_OK
        assert doc["result"]["cycle_witness"] == {
            "tail_length": 0, "cycle_values": [2, 3],
        }

    def test_exhausted_exit_three(self, capsys):
        code, doc = run_json(capsys, "orbit", "-u", "x^2", "-r", "3",
                             "--max-bits", "64", "--max-steps", "1")
        assert code in (EXIT_OK, EXIT_UNDECIDED)  # escape wins at step 1
        code, doc = run_json(capsys, "orbit", "-u", "x^2-2", "-r", "0",
                             "--max-steps", "2")
        assert code == EXIT_UNDECIDED
        assert doc["result"]["kind"] == "exhausted"


class TestOtherCommands:
    def test_reduce(self, capsys):
        code, doc = run_json(capsys, "reduce", "-u", "-2x-6", "-r", "6")
        assert code == EXIT_OK and doc["result"]["reduced"] == "-2x-1"

    def test_reduce_undefined_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "-u", "2x+3", "-r", "2")
        assert code == EXIT_USAGE and "divide" in err

    def test_lemma1(self, capsys):
        code, doc = run_json(capsys, "lemma1", "--alpha", "-2", "--beta", "1",
                             "--gamma", "2", "--primes", "100")
        assert code == EXIT_OK
        assert doc["result"]["witnesses"][0] == 3

    def test_lemma1_precondition_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lemma1", "--alpha", "2", "--beta", "2",
                               "--gamma", "1")
        assert code == EXIT_USAGE

    def test_trap(self, capsys):
        code, doc = run_json(capsys, "trap", "--primes", "13")
        assert code == EXIT_OK
        assert doc["result"]["all_ok"] is True
        assert [entry["p"] for entry in doc["result"]["primes"]] == [2, 3, 5, 7, 11, 13]
        for entry in doc["result"]["primes"]:
            assert entry["max_first_hit"] <= entry["p"]
            assert entry["fixed_points"] == [[0, 0]]

    def test_explore_nilpotent_window(self, capsys):
        code, doc = run_json(capsys, "explore", "-u", "x-1", "--set", "N",
                             "--r-bound", "4")
        assert code == EXIT_OK
        assert doc["result"]["entries"] == [
            {"r": r, "index": r} for r in range(1, 5)
        ]

    def test_explore_local_window(self, capsys):
        code, doc = run_json(capsys, "explore", "-u", "4x-2", "--set", "LN",
                             "--r-bound", "1", "--primes", "100")
        assert code == EXIT_OK
        by_r = {e["r"]: e for e in doc["result"]["entries"]}
        assert by_r[1]["status"] == "refuted" and by_r[1]["refuted_at"] == 5
        assert by_r[0]["status"] == "consistent" and by_r[0]["exact_member"] is True

    def test_verify_theorem_clean_run(self, capsys):
        code, doc = run_json(capsys, "verify-theorem", "-r", "1",
                             "--degree", "2", "--coeff-bound", "2",
                             "--primes", "50")
        assert code == EXIT_OK
        assert doc["result"]["discrepancies"] == []
        assert doc["result"]["candidates_checked"] == 5**3 - 1
        assert doc["citations"] == sorted(doc["result"]["per_item_citations"])


class TestPlumbing:
    def test_usage_error_on_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_usage_error_on_bad_polynomial(self, capsys):
        code, _, err = run_cli(capsys, "orbit", "-u", "x^^2", "-r", "1")
        assert code == EXIT_USAGE and "bad polynomial" in err

    def test_usage_error_on_unknown_flag(self, capsys):
        assert run_cli(capsys, "orbit", "--nope")[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_OK

    def test_print_schema(self, capsys):
        code, out, _ = run_cli(capsys, "--print-schema")
        assert code == EXIT_OK
        assert json.loads(out)["title"] == "polyorbit report"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "classify", "-u", "x+1", "-r", "1",
                             "--out", str(target))
        assert code == EXIT_OK
        doc = json.loads(target.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["result"]["citation"] == "Thm1.4"

    def test_unwritable_out_file_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "orbit", "-u", "x+1", "-r", "1",
                                 "--out", str(target))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.exists()

    def test_closed_stdout_ends_cleanly(self):
        """A reader that closed the pipe gets no traceback and the report's
        own exit code, even for a document small enough to sit in the
        buffer until exit."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "polyorbit", "trap", "--primes", "7",
                 "--trap-cap", "5", "--output", "json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "" and proc.returncode == EXIT_OK

    def test_human_output_carries_citation(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "-u", "x+1", "-r", "1")
        assert code == EXIT_OK
        assert "Thm1.4" in out and "strictly-local" in out

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYORBIT_PRIME_BOUND", "10")
        code, doc = run_json(capsys, "certify", "-u", "x+1", "-r", "1")
        assert code == EXIT_OK
        assert doc["result"]["prime_bound"] == 10

    def test_result_fields_deterministic(self, capsys):
        _, first = run_json(capsys, "certify", "-u", "x+1", "-r", "1",
                            "--primes", "60")
        _, second = run_json(capsys, "certify", "-u", "x+1", "-r", "1",
                             "--primes", "60")
        first.pop("timings"), second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestCapsAndBounds:
    @pytest.mark.parametrize("name", [
        "POLYORBIT_PRIME_BOUND", "POLYORBIT_MAX_STEPS",
        "POLYORBIT_MAX_BITS", "POLYORBIT_TRAP_CAP",
    ])
    def test_malformed_env_is_usage_error(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code, out, err = run_cli(capsys, "orbit", "-u", "x+1", "-r", "1")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error:") and name in err

    def test_classify_honours_max_steps(self, capsys):
        code, doc = run_json(capsys, "classify", "-u", "-x^3+9x^2-25x+25",
                             "-r", "2", "--max-steps", "1")
        assert code == EXIT_UNDECIDED
        assert doc["result"]["decidable"] is False

    def test_verify_theorem_honours_max_steps(self, capsys):
        code, doc = run_json(capsys, "verify-theorem", "-r", "2", "--degree", "2",
                             "--coeff-bound", "1", "--primes", "20",
                             "--max-steps", "1")
        assert code == EXIT_OK
        assert doc["result"]["discrepancies"] == []
        assert doc["result"]["review_flags"]

    @pytest.mark.parametrize("command", [
        ["certify", "-u", "x+1", "-r", "1"], ["trap"], ["reduce", "-u", "x", "-r", "1"],
        ["lemma1", "--alpha", "2", "--beta", "3", "--gamma", "5"],
    ])
    @pytest.mark.parametrize("cap", ["--max-steps", "--max-bits"])
    def test_caps_refused_where_no_integer_orbit_runs(self, capsys, command, cap):
        assert run_cli(capsys, *command, cap, "5")[0] == EXIT_USAGE

    def test_trap_reports_the_bound_it_swept(self, capsys):
        code, doc = run_json(capsys, "trap", "--primes", "7", "--trap-cap", "5")
        assert code == EXIT_OK
        assert doc["inputs"] == {"prime_bound": 5}
        assert [entry["p"] for entry in doc["result"]["primes"]] == [2, 3, 5]

    @pytest.mark.parametrize("command", [
        ["verify-theorem", "-r", "1", "--degree", "1", "--coeff-bound", "1"],
        ["verify-theorem", "-r", "1", "--degree", "1", "--coeff-bound", "0"],
        ["verify-theorem", "-r", "2", "-A", "3", "--degree", "1",
         "--coeff-bound", "1"],
        ["explore", "-u", "x", "--set", "LN", "--r-bound", "0"],
        ["explore", "-u", "x-1", "--set", "LN", "--r-bound", "0"],
    ])
    @pytest.mark.parametrize("bound", ["1", "0", "-5"])
    def test_prime_bound_below_two_refused_whatever_the_box(self, capsys,
                                                            command, bound):
        code, out, err = run_cli(capsys, *command, "--primes", bound)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: prime bound must be >= 2, got {bound}\n"

    @pytest.mark.parametrize("command, bound", [
        (["lemma1", "--alpha", "2", "--beta", "3", "--gamma", "5",
          "--primes", "1"], 1),
        (["lemma1", "--alpha", "2", "--beta", "3", "--gamma", "5",
          "--primes", "-5"], -5),
        (["trap", "--primes", "1"], 1),
        (["trap", "--trap-cap", "1"], 1),
        (["trap", "--primes", "7", "--trap-cap", "0"], 0),
    ])
    def test_lemma1_and_trap_refuse_a_prime_bound_below_two(self, capsys,
                                                            command, bound):
        code, out, err = run_cli(capsys, *command)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: prime bound must be >= 2, got {bound}\n"
