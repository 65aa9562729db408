"""Hand-written command-line requests with answers known independently.

Each entry is (arguments after the subcommand, expected exit code,
{dotted path into the JSON document's "result": expected value}). The
answers come from the paper's worked examples and from arithmetic done by
hand, for instance:

* lemma1 2,3,5 to 30: 3/5 mod p lies in <2> for every p <= 29 except 23,
  where <2> has order 11 and misses 3/5 = 19.
* trap: off the axes the ratio y/x grows by 1 per step, so the slowest
  point needs p steps and max_first_hit is p.
* verify-theorem r=0, degree 1, |c| <= 2: nilpotent are ax (4) and -x+b
  (4); strictly local are x+b (4) and +-2x+-2 (4); the rest (8) are not
  members.

Expected exit 1 marks a request the program must refuse as a usage error.
"""

from __future__ import annotations

REQUESTS: dict[str, list[tuple[list[str], int, dict]]] = {
    "orbit": [
        (["-u", "-2x^2+7x-3", "-r", "1"], 0, {"kind": "reached-zero", "index": 3}),
        (["-u", "-x+5", "-r", "2"], 0,
         {"kind": "cycle", "cycle_witness.tail_length": 0,
          "cycle_witness.cycle_values": [2, 3]}),
        (["-u", "x+1", "-r", "1"], 0, {"kind": "escaped"}),
        (["-u", "x-1", "-r", "4"], 0, {"kind": "reached-zero", "index": 4}),
        (["-u", "2x", "-r", "3"], 0, {"kind": "escaped", "escape_data.bound": 6}),
        (["-u", "x^2-1", "-r", "0"], 0, {"kind": "reached-zero", "index": 2}),
    ],
    "classify": [
        (["-u", "x+1", "-r", "1"], 0,
         {"result": "InL", "subclass": "strictly-local", "citation": "Thm1.4"}),
        (["-u", "-2x-1", "-r", "1", "-A", "2"], 0,
         {"result": "InL", "subclass": "strictly-local", "citation": "Thm3.4"}),
        (["-u", "x-1", "-r", "1"], 0,
         {"result": "InL", "subclass": "nilpotent", "index": 1, "citation": "Thm1.1"}),
        (["-u", "x^2+1", "-r", "1"], 0, {"result": "NotInL", "citation": "Thm1"}),
        (["-u", "2x+6", "-r", "6"], 0,
         {"result": "InL", "subclass": "strictly-local", "citation": "Thm4.3"}),
        (["-u", "2x+2", "-r", "6"], 0,
         {"result": "InL", "subclass": "strictly-local", "citation": "Rem3"}),
        (["-u", "x+3", "-r", "-3"], 0,
         {"result": "InL", "subclass": "nilpotent", "index": 1, "citation": "Def.N"}),
        (["-u", "x-2", "-r", "-4"], 0,
         {"result": "InL", "subclass": "strictly-local", "citation": "Cor4.1"}),
    ],
    "certify": [
        (["-u", "4x-2", "-r", "1", "--primes", "100"], 2,
         {"status": "RefutedAt(5)", "consistent": False, "refuted_at": 5}),
        (["-u", "4x-2", "-r", "0", "--primes", "100"], 0,
         {"status": "ConsistentUpTo(100)", "consistent": True}),
        (["-u", "x+1", "-r", "1", "--primes", "50"], 0,
         {"consistent": True, "certificates.#": 15, "certificates.-1.p": 47,
          "certificates.-1.m_p": 46}),
        (["-u", "x-1", "-r", "2", "--primes", "30"], 0,
         {"consistent": True, "certificates.#": 10, "certificates.0.m_p": 2}),
    ],
    "reduce": [
        (["-u", "2x+6", "-r", "6"], 0, {"reduced": "2x+1"}),
        (["-u", "x^2+3x+6", "-r", "3"], 0, {"reduced": "3x^2+3x+2"}),
        (["-u", "x+5", "-r", "2"], 1, {}),
    ],
    "lemma1": [
        (["--alpha", "2", "--beta", "3", "--gamma", "5", "--primes", "30"], 0,
         {"witnesses": [23]}),
        (["--alpha", "3", "--beta", "1", "--gamma", "2", "--primes", "20"], 0,
         {"witnesses": [11, 13]}),
        (["--alpha", "2", "--beta", "4", "--gamma", "1", "--primes", "20"], 1, {}),
    ],
    "explore": [
        (["-u", "x-1", "--r-bound", "3"], 0,
         {"entries": [{"r": 1, "index": 1}, {"r": 2, "index": 2},
                      {"r": 3, "index": 3}]}),
        (["-u", "-x+5", "--r-bound", "3"], 0, {"entries": [{"r": 0, "index": 2}]}),
    ],
    "trap": [
        (["--primes", "7"], 0,
         {"all_ok": True, "primes.#": 4, "primes.-1.p": 7,
          "primes.-1.max_first_hit": 7, "primes.-1.fixed_points": [[0, 0]]}),
        (["--primes", "13"], 0,
         {"all_ok": True, "primes.#": 6, "primes.-1.max_first_hit": 13}),
    ],
    "verify-theorem": [
        (["-r", "1", "--degree", "1", "--coeff-bound", "3", "--primes", "50"], 0,
         {"cardinality": 48, "candidates_checked": 48, "discrepancies": [],
          "totals": {"nilpotent": 6, "non-member": 41, "strictly-local": 1}}),
        (["-r", "0", "--degree", "1", "--coeff-bound", "2", "--primes", "50"], 0,
         {"cardinality": 24, "candidates_checked": 24, "discrepancies": [],
          "totals": {"nilpotent": 8, "non-member": 8, "strictly-local": 8}}),
    ],
}
