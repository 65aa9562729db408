"""Seeded fuzzing of the CLI in process: every subcommand, with malformed,
huge and boundary arguments, must end in a documented exit code (0-3) and
never print a traceback.

The argument pools hold only inputs that are cheap to answer or that a
budget refuses before any work starts (a prime bound, trap bound, box or
window one past its budget), so the whole run takes a few seconds and
never allocates a huge case.
"""

import random
import sys

import pytest

from polyorbit.cli import EXIT_UNDECIDED, main
from polyorbit.modular import PRIME_BOUND_MAX
from polyorbit.trap import TRAP_CAP_MAX

DIGITS = sys.get_int_max_str_digits()
COMMANDS = ["orbit", "classify", "certify", "verify-theorem", "explore", "trap",
            "lemma1", "reduce"]

# Each pool is (inputs the command accepts, inputs it must refuse).
POLYS = (["x^2+1", "-2x^2+7x-3", "x+1", "4x-2", "-x+5", "x^3-2", "x^2-x-1",
          "-2x-1", "x", "5", "1,2,3", "-2,4", "x^10000", "x^2-1" + "0" * 4000],
         ["0", "", "x^", "2x^-1", "abc", "x**2", "1,,2", "+", "x^10001",
          "1" * (DIGITS + 1) + "x"])
STARTS = (["-8", "-1", "0", "1", "2", "3", "7", "10" + "0" * 40, "1" + "0" * 2500],
          ["", "x", "1.5", "10^2500"])
# Excluded primes stay small enough to trial-divide at once: the divisor
# budget itself is tested in test_cli.py.
EXCLUDED = ([[], ["2"], ["2", "3"], ["3", "5", "7"], [str(10**9 + 7)]],
            [["9"], ["-3"], ["abc"], ["4", "1"]])
PRIME_BOUNDS = (["2", "3", "50", "300"],
                ["-5", "0", "1", "abc", str(PRIME_BOUND_MAX + 1), str(10**40)])
CAPS = (["1", "3", "1000"], ["-1", "0", "abc"])
SMALL = (["-1", "1", "2", "3", "6", "-7", "10" + "0" * 30], ["0", "abc", ""])


def _pick(rng, flag, pool, required=True):
    """[flag, value] from pool, the value now and then one to refuse; a
    required flag is now and then dropped, an optional one half the time."""
    if rng.random() < (0.03 if required else 0.5):
        return []
    good, bad = pool
    value = rng.choice(bad if rng.random() < 0.1 else good)
    return [flag, *value] if isinstance(value, list) else [flag, value]


def _argv(rng):
    command = rng.choice(COMMANDS)
    argv = [command]
    if command not in ("verify-theorem", "trap", "lemma1"):
        argv += _pick(rng, "-u", POLYS)
    if command in ("orbit", "classify", "certify", "verify-theorem", "reduce"):
        argv += _pick(rng, "-r", STARTS)
    if command in ("classify", "certify", "verify-theorem"):
        argv += _pick(rng, "-A", EXCLUDED, required=False)
    if command in ("orbit", "classify", "verify-theorem", "explore"):
        argv += _pick(rng, "--max-steps", CAPS, required=False)
        argv += _pick(rng, "--max-bits", CAPS, required=False)
    if command == "verify-theorem":
        argv += _pick(rng, "--degree", (["1", "2", "10000"],
                                        ["-1", "0", "100000", "abc"]), required=False)
        argv += _pick(rng, "--coeff-bound", (["0", "1", "2", str(10**7)],
                                             ["-1", "abc"]), required=False)
        if "--degree" not in argv:  # the default degree, 3, with a small box
            argv += ["--coeff-bound", rng.choice(["0", "1", str(10**7)])]
        elif argv[argv.index("--degree") + 1] == "2" and "--coeff-bound" not in argv:
            argv += ["--coeff-bound", "1"]
    if command == "explore":
        argv += _pick(rng, "--set", (["N", "LN"], ["X"]), required=False)
        argv += _pick(rng, "--r-bound", (["0", "3", "5", "5000001", "1000000000"],
                                         ["-1", "abc"]))
    if command in ("certify", "verify-theorem", "explore", "lemma1"):
        argv += _pick(rng, "--primes", PRIME_BOUNDS, required=False)
    if command == "trap":
        # A sweep to 300 takes about 0.05 s and one to 997 takes 3-4 s: the
        # largest bound swept here is 61, or one past TRAP_CAP_MAX, which
        # is refused.
        argv += _pick(rng, "--primes", (["2", "13", "61", str(TRAP_CAP_MAX + 1)],
                                        ["-5", "0", "1", "abc"]))
        if "--primes" not in argv:
            argv += ["--primes", "61"]
    if command == "lemma1":
        for flag in ("--alpha", "--beta", "--gamma"):
            argv += _pick(rng, flag, SMALL)
    argv += _pick(rng, "--output", (["json", "human"], ["xml"]), required=False)
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(
            ["--bogus", "-h", "--", "-r", "--print-schema"]))
    return argv


def test_every_exit_is_documented_and_clean(capsys):
    rng = random.Random(2021)
    calls = [[], ["--print-schema"], ["nonsense"], ["-h"]]
    calls += [_argv(rng) for _ in range(600)]
    seen = set()
    for argv in calls:
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        seen.add((argv[0] if argv else None, code))
    assert set(COMMANDS) <= {command for command, _ in seen}
    assert {code for _, code in seen} == {0, 1, 2, 3}
    assert {("reduce", 0), ("reduce", 1), ("reduce", 3)} <= seen


@pytest.mark.parametrize("exponent, code", [
    ((DIGITS - 1) // 2, 0), ((DIGITS + 1) // 2, EXIT_UNDECIDED)])
def test_reduce_just_over_the_digit_limit(capsys, tmp_path, exponent, code):
    """x^3 reduced at r = 10^k has the coefficient r^2 = 10^(2k), of 2k + 1
    digits: one over the limit, the report cannot be printed, so the
    command ends as a budget error and writes no --out file."""
    path = tmp_path / "report.json"
    got = main(["reduce", "-u", "x^3", "-r", "1" + "0" * exponent,
                "--out", str(path)])
    out, err = capsys.readouterr()
    assert got == code
    if code == EXIT_UNDECIDED:
        assert out == "" and not path.exists()
        assert err.startswith("budget exhausted: the report holds an integer of "
                              f"more than {DIGITS} digits")
    else:
        assert err == "" and path.exists()


def test_reduce_refuses_a_huge_power_before_computing_it(capsys, small_peak):
    """x^10000 reduced at r = 10^2500 has the coefficient r^9999, of about
    25 million digits: it is refused from the bit lengths alone."""
    code = main(["reduce", "-u", "x^10000", "-r", "1" + "0" * 2500])
    out, err = capsys.readouterr()
    assert code == EXIT_UNDECIDED and out == ""
    assert err.startswith("budget exhausted: the report holds an integer of "
                          f"more than {DIGITS} digits")
