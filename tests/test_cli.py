"""CLI contract: exit codes, JSON schema conformance, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import polyorbit.cli
import polyorbit.modular
from polyorbit.cli import (
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    REPORT_SCHEMA,
    main,
)
from polyorbit.modular import PRIME_BOUND_MAX
from polyorbit.trap import TRAP_CAP_MAX


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

    def test_exponent_over_the_degree_budget_is_usage_error(self, capsys,
                                                              small_peak):
        code, out, err = run_cli(capsys, "orbit", "-u", "x^1000000000", "-r", "1")
        assert code == EXIT_USAGE and out == ""
        assert "bad polynomial: exponent exceeds the degree budget" in err

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
    ])
    def test_lemma1_and_trap_refuse_a_prime_bound_below_two(self, capsys,
                                                            command, bound):
        code, out, err = run_cli(capsys, *command)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: prime bound must be >= 2, got {bound}\n"

    @pytest.mark.parametrize("command", [
        ["trap", "--trap-cap", "1"], ["trap", "--primes", "7", "--trap-cap", "0"],
        ["trap", "--primes", "1", "--trap-cap", "1"],
    ])
    def test_trap_cap_below_two_is_named_in_its_error(self, capsys, command):
        code, out, err = run_cli(capsys, *command)
        cap = command[-1]
        assert code == EXIT_USAGE
        assert out == ""
        assert err.endswith(f"error: argument --trap-cap: must be >= 2, got {cap}\n")

    def test_trap_cap_variable_below_two_is_named_in_its_error(self, capsys,
                                                               monkeypatch):
        monkeypatch.setenv("POLYORBIT_TRAP_CAP", "1")
        code, out, err = run_cli(capsys, "trap", "--primes", "7")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: environment variable POLYORBIT_TRAP_CAP must be >= 2, got 1\n"

    @pytest.mark.parametrize("command", [
        ["orbit", "-u", "x+1", "-r", "1"], ["classify", "-u", "2x+6", "-r", "6"],
    ])
    @pytest.mark.parametrize("cap", ["--max-steps", "--max-bits"])
    def test_caps_below_one_refused(self, capsys, command, cap):
        code, out, err = run_cli(capsys, *command, cap, "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.endswith(f"error: argument {cap}: must be >= 1, got 0\n")
        assert run_cli(capsys, *command, cap, "1")[0] in (EXIT_OK, EXIT_UNDECIDED)

    @pytest.mark.parametrize("name", ["POLYORBIT_MAX_STEPS", "POLYORBIT_MAX_BITS"])
    def test_cap_variables_below_one_refused(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "0")
        code, out, err = run_cli(capsys, "orbit", "-u", "x+1", "-r", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: environment variable {name} must be >= 1, got 0\n"
        monkeypatch.setenv(name, "1")
        assert run_cli(capsys, "orbit", "-u", "x+1", "-r", "1")[0] == EXIT_OK

    @pytest.mark.parametrize("bound", ["1", "0", "-5"])
    def test_prime_bound_variable_below_two_refused(self, capsys, monkeypatch, bound):
        monkeypatch.setenv("POLYORBIT_PRIME_BOUND", bound)
        code, out, err = run_cli(capsys, "certify", "-u", "x+1", "-r", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == ("error: environment variable POLYORBIT_PRIME_BOUND must "
                       f"be >= 2, got {bound}\n")
        monkeypatch.setenv("POLYORBIT_PRIME_BOUND", "2")
        assert run_cli(capsys, "certify", "-u", "x+1", "-r", "1")[0] == EXIT_OK

    @pytest.mark.parametrize("name, command, line", [
        ("POLYORBIT_PRIME_BOUND", "certify", "prime bound (default 50)"),
        ("POLYORBIT_TRAP_CAP", "trap", "p^2 points each (default 50)"),
        ("POLYORBIT_MAX_STEPS", "orbit", "before undecided (default 50)"),
    ])
    def test_help_shows_the_default_in_force(self, capsys, monkeypatch, name,
                                             command, line):
        monkeypatch.setenv(name, "50")
        code, out, _ = run_cli(capsys, command, "-h")
        assert code == EXIT_OK
        assert line in " ".join(out.split())

    @pytest.mark.parametrize("command", [
        ["certify", "-u", "x+1", "-r", "1"],
        ["lemma1", "--alpha", "2", "--beta", "3", "--gamma", "5"],
        ["verify-theorem", "-r", "1", "--degree", "1", "--coeff-bound", "1"],
        ["verify-theorem", "-r", "1", "--degree", "1", "--coeff-bound", "0"],
        ["verify-theorem", "-r", "2", "-A", "3", "--degree", "1",
         "--coeff-bound", "1"],
        ["explore", "-u", "x+1", "--set", "LN", "--r-bound", "1"],
        ["explore", "-u", "x", "--set", "LN", "--r-bound", "0"],
    ])
    @pytest.mark.parametrize("bound", [PRIME_BOUND_MAX + 1, 10**9])
    def test_prime_bound_over_the_sieve_budget(self, capsys, small_peak,
                                               command, bound):
        code, out, err = run_cli(capsys, *command, "--primes", str(bound))
        assert code == EXIT_UNDECIDED
        assert out == ""
        assert err == (f"budget exhausted: prime bound {bound} exceeds the "
                       f"sieve budget of {PRIME_BOUND_MAX}\n")

    @pytest.mark.parametrize("bound", [TRAP_CAP_MAX + 9, 10**9])
    @pytest.mark.parametrize("via_env", [False, True])
    def test_trap_bound_over_the_trap_budget(self, capsys, monkeypatch,
                                             small_peak, bound, via_env):
        if via_env:
            monkeypatch.setenv("POLYORBIT_TRAP_CAP", str(bound))
            command = ["trap", "--primes", str(bound)]
        else:
            command = ["trap", "--primes", str(bound), "--trap-cap", str(bound)]
        code, out, err = run_cli(capsys, *command)
        assert code == EXIT_UNDECIDED
        assert out == ""
        assert err == (f"budget exhausted: trap bound {bound} exceeds the "
                       f"budget of {TRAP_CAP_MAX} (p^2 points per prime p)\n")

    def test_trap_cap_alone_may_exceed_the_trap_budget(self, capsys):
        code, doc = run_json(capsys, "trap", "--primes", "7",
                             "--trap-cap", "1000000000")
        assert code == EXIT_OK
        assert doc["inputs"] == {"prime_bound": 7}

    @pytest.mark.parametrize("command", [
        ["classify", "-u", "x+1", "-r", "1", "-A", str(10**15 + 37)],
    ])
    def test_trial_division_over_the_divisor_budget(self, capsys, command):
        code, out, err = run_cli(capsys, *command)
        assert code == EXIT_UNDECIDED
        assert out == ""
        assert err == (f"budget exhausted: trial division of {10**15 + 37} would "
                       f"pass the divisor budget of {PRIME_BOUND_MAX}\n")

    @pytest.mark.parametrize("command, result, citation", [
        (["-u", "2x+1", "-r", str(10**15 + 37)], "NotInL", "Thm4"),
        (["-u", f"x+{10**20 + 39}", "-r", "1", "-A", "2"], "NotInL", "Thm3"),
    ], ids=["large-r", "large-b"])
    def test_linear_rule_factors_no_coefficient(self, capsys, command, result,
                                                citation):
        # The linear rule decides membership by gcds alone, so an r or a b
        # with no divisor inside the trial-division budget needs none.
        code, doc = run_json(capsys, "classify", *command)
        assert code == EXIT_OK
        assert doc["result"]["result"] == result
        assert doc["result"]["citation"] == citation

    def test_linear_box_at_a_large_r_factors_nothing(self, capsys):
        code, doc = run_json(capsys, "verify-theorem", "-r", str(10**15 + 37),
                             "--degree", "1", "--coeff-bound", "2")
        assert code == EXIT_OK
        assert doc["result"]["candidates_checked"] == 24
        assert doc["result"]["discrepancies"] == []

    def test_trial_division_within_the_divisor_budget(self, capsys):
        code, doc = run_json(capsys, "classify", "-u", "x+1", "-r", "1",
                             "-A", str(10**14 + 31))
        assert code == EXIT_OK
        assert doc["inputs"]["A"] == [10**14 + 31]

    @pytest.mark.parametrize("text, position", [
        ("1" * 5000 + "x", 0), ("1," + "2" * 5000, 2), ("x+" + "3" * 5000, 2),
    ], ids=["leading-term", "coefficient-list", "constant-term"])
    def test_oversized_coefficient_is_usage_error(self, capsys, text, position):
        code, out, err = run_cli(capsys, "orbit", "-u", text, "-r", "1")
        assert code == EXIT_USAGE and out == ""
        assert "bad polynomial: coefficient of 5000 digits exceeds the " \
            f"integer conversion limit (at position {position})" in err


class TestLargeIntegerReports:
    """x^2 - 10^4000 escapes from 0 at step 2 with a value of 8,001 digits,
    more than str() converts: the decided report cannot be printed, so it
    ends as a budget error before anything is written."""

    ARGV = ("orbit", "-u", "x^2-1" + "0" * 4000, "-r", "0")

    @pytest.mark.parametrize("mode", ["json", "human"])
    def test_report_too_long_to_print_is_budget_exhausted(self, capsys, mode):
        code, out, err = run_cli(capsys, *self.ARGV, "--output", mode)
        assert code == EXIT_UNDECIDED and out == ""
        assert err.startswith("budget exhausted: the report holds an integer of more "
                              f"than {sys.get_int_max_str_digits()} digits")

    def test_no_out_file_is_written(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, *self.ARGV, "--out", str(path))
        assert code == EXIT_UNDECIDED and out == ""
        assert err.startswith("budget exhausted: ")
        assert not path.exists()


class TestExcludedPrimes:
    """Each -A entry is trial-divided once, in input order."""

    def test_one_primality_test_per_entry(self, capsys, monkeypatch):
        calls = []

        def counting_is_prime(n, real=polyorbit.modular.is_prime):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(polyorbit.cli, "is_prime", counting_is_prime)
        monkeypatch.setattr(polyorbit.modular, "is_prime", counting_is_prime)
        code, doc = run_json(capsys, "classify", "-u", "x+1", "-r", "1",
                             "-A", "7", "3", "7", "101")
        assert code == EXIT_OK
        assert doc["inputs"]["A"] == [3, 7, 101]
        assert sorted(n for n in calls if n in (3, 7, 101)) == [3, 7, 101]

    @pytest.mark.parametrize("entries, code, message", [
        (["9", "4"], EXIT_USAGE, "entries must be prime; 9 is not"),
        (["4", str(10**15 + 37)], EXIT_USAGE, "entries must be prime; 4 is not"),
        ([str(10**15 + 37), "4"], EXIT_UNDECIDED,
         f"budget exhausted: trial division of {10**15 + 37} would pass the "
         f"divisor budget of {PRIME_BOUND_MAX}"),
        (["3", str(10**15 + 37)], EXIT_UNDECIDED,
         f"budget exhausted: trial division of {10**15 + 37} would pass the "
         f"divisor budget of {PRIME_BOUND_MAX}"),
    ])
    def test_first_bad_entry_in_input_order_is_reported(self, capsys, entries,
                                                        code, message):
        got, out, err = run_cli(capsys, "classify", "-u", "x+1", "-r", "1",
                                "-A", *entries)
        assert got == code
        assert out == ""
        assert message in err


@pytest.mark.parametrize("window", ["N", "LN"])
def test_explore_window_over_the_budget(capsys, small_peak, window):
    code, out, err = run_cli(capsys, "explore", "-u", "x^2+1", "--set", window,
                             "--r-bound", "1000000000", "--primes", "5")
    assert code == EXIT_UNDECIDED
    assert out == ""
    assert err == ("budget exhausted: 2000000001 start points exceed the "
                   "budget of 10000000\n")


@pytest.mark.parametrize("degree, coeff_bound, message", [
    ("100000", "1", "degree 100000 exceeds the degree budget of 10000"),
    ("10000000", "0", "degree 10000000 exceeds the degree budget of 10000"),
    ("1000000000", "0", "degree 1000000000 exceeds the degree budget of 10000"),
    ("10000", "1", "at least 2^15851 candidates exceed the budget of 10000000"),
    ("10000", str(2 * 10**4299),
     "at least 2^142834282 candidates exceed the budget of 10000000"),
])
def test_verify_theorem_box_over_the_budget(capsys, small_peak, degree,
                                            coeff_bound, message):
    code, out, err = run_cli(capsys, "verify-theorem", "-r", "1", "--degree", degree,
                             "--coeff-bound", coeff_bound)
    assert code == EXIT_UNDECIDED
    assert out == ""
    assert err == f"budget exhausted: {message}\n"
