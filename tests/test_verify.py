"""Enumeration harness, window explorers, and catalog-member generators."""

import json
import re

import pytest

from polyorbit import (
    BudgetExceededError,
    OrbitKind,
    PrimeSet,
    SearchSpace,
    certify_local,
    classify,
    decide_nilpotency,
    explore_LN_of_u,
    explore_N_of_u,
    first_refuting_prime,
    generate_list_members,
    linear,
    nilpotency_index,
    parse_poly,
    verify_theorem,
)
from polyorbit import verify
from polyorbit.classify import CATALOG_FAMILIES, NILPOTENT, Verdict
from polyorbit.classify import CATALOG
from polyorbit.polynomials import DEGREE_MAX


class TestSearchSpace:
    def test_cardinality(self):
        assert SearchSpace(degree=3, coeff_bound=5, r=1).cardinality == 11**4 - 1
        assert SearchSpace(degree=1, coeff_bound=0, r=1).cardinality == 0

    def test_candidates_are_unique_and_complete(self):
        space = SearchSpace(degree=2, coeff_bound=1, r=0)
        seen = list(space.candidates())
        assert len(seen) == space.cardinality == 26
        assert len(set(seen)) == len(seen)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(degree=0, coeff_bound=5, r=1)

    @pytest.mark.parametrize("coeff_bound", [0, 1])
    @pytest.mark.parametrize("bound", [1, 0, -3])
    def test_prime_bound_below_two_refused_up_front(self, coeff_bound, bound):
        with pytest.raises(ValueError, match=f"prime bound must be >= 2, got {bound}"):
            SearchSpace(degree=1, coeff_bound=coeff_bound, r=1, prime_bound=bound)

    @pytest.mark.parametrize("degree", [DEGREE_MAX + 1, 10**7, 10**9])
    @pytest.mark.parametrize("coeff_bound", [0, 1])
    def test_degree_over_the_budget_refused_before_allocation(self, small_peak,
                                                              degree, coeff_bound):
        with pytest.raises(BudgetExceededError, match=f"degree {degree} exceeds "
                           f"the degree budget of {DEGREE_MAX}"):
            SearchSpace(degree=degree, coeff_bound=coeff_bound, r=1)

    def test_unprintable_count_over_the_budget(self, small_peak):
        """3^10001 - 1 candidates has 4,772 digits, past what str() converts."""
        with pytest.raises(BudgetExceededError, match=re.escape(
                "at least 2^15851 candidates exceed the budget of 10000000")):
            verify_theorem(SearchSpace(degree=DEGREE_MAX, coeff_bound=1, r=1))

    def test_huge_coefficient_bound_refused_without_the_power(self, small_peak):
        """(4*10^4299 + 1)^10001 has about 1.4*10^8 bits: the box is refused
        after one factor, and the message gives a lower bound."""
        with pytest.raises(BudgetExceededError, match=re.escape(
                "at least 2^142834282 candidates exceed the budget of 10000000")):
            verify_theorem(SearchSpace(degree=DEGREE_MAX, coeff_bound=2 * 10**4299, r=1))

    @pytest.mark.parametrize("coeff_bound, exponent", [(100, 70007), (10**6, 200020)])
    def test_count_past_the_exact_size_gives_a_lower_bound(self, coeff_bound, exponent):
        with pytest.raises(BudgetExceededError, match=re.escape(
                f"at least 2^{exponent} candidates exceed the budget of 10000000")):
            verify_theorem(SearchSpace(degree=DEGREE_MAX, coeff_bound=coeff_bound, r=1))

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("coeff_bound", [1, 2, 3, 7, 8, 100, 2**20])
    def test_lower_bound_is_below_the_exact_count(self, monkeypatch, degree,
                                                  coeff_bound):
        """With no count computed in full, every message is a true bound."""
        monkeypatch.setattr(verify, "EXACT_COUNT_BITS", 0)
        monkeypatch.setattr(verify, "CANDIDATE_BUDGET_DEFAULT", 0)
        space = SearchSpace(degree=degree, coeff_bound=coeff_bound, r=1)
        with pytest.raises(BudgetExceededError) as caught:
            verify_theorem(space)
        exponent = int(re.match(r"at least 2\^(\d+) ", str(caught.value)).group(1))
        assert 2**exponent <= space.cardinality

    @pytest.mark.parametrize("degree, coeff_bound", [(1, 1), (3, 2), (2, 9)])
    def test_budget_admits_its_own_count(self, monkeypatch, degree, coeff_bound):
        space = SearchSpace(degree=degree, coeff_bound=coeff_bound, r=1)
        count = space.cardinality
        monkeypatch.setattr(verify, "CANDIDATE_BUDGET_DEFAULT", count)
        assert verify_theorem(space).candidates_checked == count
        monkeypatch.setattr(verify, "CANDIDATE_BUDGET_DEFAULT", count - 1)
        with pytest.raises(BudgetExceededError, match=re.escape(
                f"{count} candidates exceed the budget of {count - 1}")):
            verify_theorem(space)

    def test_degree_at_the_budget_with_no_candidates(self):
        report = verify_theorem(SearchSpace(degree=DEGREE_MAX, coeff_bound=0, r=1))
        assert report.candidates_checked == 0

    def test_to_dict_keys_and_excluded_primes(self):
        space = SearchSpace(degree=2, coeff_bound=1, r=2, A=[5, 3], prime_bound=40)
        assert space.to_dict() == {
            "degree": 2, "coeff_bound": 1, "r": 2, "A": [3, 5], "prime_bound": 40,
        }
        assert list(space.to_dict()) == ["degree", "coeff_bound", "r", "A",
                                         "prime_bound"]


class TestVerifyTheorem:
    def test_degenerate_space(self):
        report = verify_theorem(SearchSpace(degree=1, coeff_bound=0, r=1))
        assert report.candidates_checked == 0
        assert not report.discrepancies and not report.review_flags

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(verify, "CANDIDATE_BUDGET_DEFAULT", 10)
        with pytest.raises(BudgetExceededError):
            verify_theorem(SearchSpace(degree=3, coeff_bound=5, r=1))

    def test_small_box_at_one(self):
        space = SearchSpace(degree=2, coeff_bound=3, r=1, prime_bound=100)
        report = verify_theorem(space)
        assert report.candidates_checked == 7**3 - 1
        assert report.discrepancies == []
        assert report.review_flags == []
        assert report.per_item_citations.get("Thm1.4") == 1
        assert report.totals["non-member"] > 0

    def test_small_box_at_zero(self):
        space = SearchSpace(degree=2, coeff_bound=3, r=0, prime_bound=100)
        report = verify_theorem(space)
        assert report.discrepancies == []
        assert report.review_flags == []

    def test_small_box_at_large_r(self):
        space = SearchSpace(degree=1, coeff_bound=6, r=6, prime_bound=300)
        report = verify_theorem(space)
        assert report.discrepancies == []
        assert report.review_flags == []
        # the power-condition members outside the cataloged shapes show up
        assert report.per_item_citations.get("Rem3", 0) >= 2

    def test_determinism(self):
        space = SearchSpace(degree=2, coeff_bound=2, r=1, prime_bound=50)
        first = verify_theorem(space).to_dict()
        second = verify_theorem(space).to_dict()
        first.pop("wall_time_s"), second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestExploreN:
    def test_descending_line(self):
        assert explore_N_of_u(linear(1, -1), 5) == [(r, r) for r in range(1, 6)]

    def test_ascending_line_mirror(self):
        assert explore_N_of_u(linear(1, 1), 5) == [(-r, r) for r in range(5, 0, -1)]

    def test_strictly_positive_quadratic(self):
        assert explore_N_of_u(parse_poly("x^2+1"), 3) == []

    def test_window_is_exact(self):
        u = parse_poly("x^2-5x+6")
        found = dict(explore_N_of_u(u, 6))
        for r in range(-6, 7):
            idx = nilpotency_index(u, r)
            if idx is None:
                assert r not in found
            else:
                assert found[r] == idx


class TestExploreLN:
    def test_x_minus_one_window(self):
        entries = {e.r: e for e in explore_LN_of_u(linear(1, -1), 2, 100)}
        assert entries[1].status == "nilpotent" and entries[1].index == 1
        assert entries[2].status == "nilpotent" and entries[2].index == 2
        # u^(n)(0) = -n hits every prime at n = p: consistent, exact member
        assert entries[0].status == "consistent" and entries[0].exact_member is True
        assert entries[0].citation == "Thm2.2"
        assert entries[-1].status == "consistent" and entries[-1].exact_member is True
        assert entries[-2].status == "consistent" and entries[-2].exact_member is True
        assert entries[-2].citation == "Cor4.1"

    def test_four_x_minus_two_window(self):
        entries = {e.r: e for e in explore_LN_of_u(linear(4, -2), 1, 100)}
        assert entries[1].status == "refuted" and entries[1].refuted_at == 5
        assert entries[1].exact_member is False
        assert entries[0].status == "consistent" and entries[0].exact_member is True
        assert entries[0].citation == "Thm2.3"

    def test_zero_poly_rejected(self):
        from polyorbit import Polynomial

        with pytest.raises(ValueError):
            explore_LN_of_u(Polynomial(), 1, 100)

    @pytest.mark.parametrize("u", [linear(1, 0), linear(1, -1)])
    def test_prime_bound_below_two_refused_whatever_the_window(self, u):
        with pytest.raises(ValueError, match="prime bound must be >= 2, got 1"):
            explore_LN_of_u(u, 0, 1)


EXPLORERS = [explore_N_of_u, lambda u, r_bound: explore_LN_of_u(u, r_bound, 5)]


class TestExploreBudget:
    """Both explore functions refuse a window over CANDIDATE_BUDGET_DEFAULT
    start points before visiting any."""

    @pytest.mark.parametrize("explore", EXPLORERS, ids=["N", "LN"])
    def test_window_over_the_budget_refused(self, explore, small_peak):
        with pytest.raises(BudgetExceededError,
                           match="10000001 start points exceed the budget of 10000000"):
            explore(parse_poly("x^2+1"), 5 * 10**6)

    @pytest.mark.parametrize("explore", EXPLORERS, ids=["N", "LN"])
    def test_budget_admits_its_own_bound(self, explore, monkeypatch):
        monkeypatch.setattr("polyorbit.verify.CANDIDATE_BUDGET_DEFAULT", 7)
        explore(linear(1, -1), 3)
        with pytest.raises(BudgetExceededError,
                           match="9 start points exceed the budget of 7"):
            explore(linear(1, -1), 4)


class TestGenerators:
    def test_index_two_family(self):
        members = generate_list_members("Thm1.2")
        assert members == [
            parse_poly("-2x+4"),
            parse_poly("x^2-5x+6"),
            parse_poly("x^3-3x^2+4"),
        ]
        for u in members:
            assert nilpotency_index(u, 1) == 2

    def test_slope_family_at_six(self):
        members = generate_list_members("Thm4.3", r=6, exponent_sum=2)
        assert members == [
            linear(2, 6), linear(-2, 6), linear(3, 6), linear(-3, 6),
            linear(4, 6), linear(-4, 6), linear(6, 6), linear(-6, 6),
            linear(9, 6), linear(-9, 6),
        ]
        with pytest.raises(TypeError):  # no per-exponent cap
            generate_list_members("Thm4.3", r=6, exponent_sum=2, exponent_cap=1)

    def test_index_two_at_zero(self):
        """Thm2.5 is (x-a)p(x) with p(0) = -1: p is x-1 or x^2-1 here."""
        members = generate_list_members("Thm2.5", coeff_bound=2)
        assert [str(u) for u in members] == [
            "x^2+x-2", "x^3+2x^2-x-2", "x^2-1", "x^3+x^2-x-1",
            "x^2-2x+1", "x^3-x^2-x+1", "x^2-3x+2", "x^3-2x^2-x+2",
        ]
        for u in members:
            assert classify(u, 0) == Verdict(True, True, NILPOTENT, 2, "Thm2.5")

    def test_singleton_items(self):
        assert generate_list_members("Thm3.4", A=PrimeSet([2])) == [linear(-2, -1)]
        assert generate_list_members("Thm3.4", A=PrimeSet([3])) == []
        assert generate_list_members("Thm4.4", r=6) == [linear(-2, -6)]
        assert generate_list_members("Thm4.4", r=9) == []

    def test_excess_exponent_item(self):
        members = generate_list_members("Thm4.2", r=4, exponent_sum=3)
        assert members == [linear(1, -8)]
        members = generate_list_members("Thm4.2", r=8, exponent_sum=3)
        assert members == []

    def test_family_expansion_deduplicates(self):
        members = generate_list_members("Thm3", A=PrimeSet([2]), exponent_sum=2)
        assert len(members) == len(set(members))
        assert linear(1, -1) in members  # x-1 appears in two items, kept once

    @pytest.mark.parametrize("family, params, repeats", [
        ("Thm1", {}, 0),
        ("Thm2", {}, 1),
        ("Thm3", {"A": PrimeSet([2, 3, 5, 7]), "exponent_sum": 4}, 1),
        ("Thm4", {"r": 12, "exponent_sum": 3}, 0),
        ("Cor4", {"r": -6}, 0),
    ])
    def test_family_is_its_items_concatenated_first_occurrence_kept(self, family,
                                                                    params, repeats):
        concatenated = [u for ident in CATALOG_FAMILIES[family]
                        for u in generate_list_members(ident, **params)]
        kept = []
        for u in concatenated:
            if u not in kept:
                kept.append(u)
        assert len(concatenated) - len(kept) == repeats
        assert generate_list_members(family, **params) == kept

    def test_mirror_family(self):
        members = generate_list_members("Cor4.4", r=-6)
        assert members == [linear(-2, 6)]

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError):
            generate_list_members("Thm9.1")
        with pytest.raises(ValueError):
            generate_list_members("Thm4.9", r=6)

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError):
            generate_list_members("Thm3.1")
        with pytest.raises(ValueError):
            generate_list_members("Thm4.1")
        with pytest.raises(ValueError):
            generate_list_members("Cor4.1", r=6)

    def test_refuses_an_r_or_A_outside_its_family(self):
        """An r or a nonempty A that the family does not cover is refused
        with the family's coverage; the spellings that the tests and the
        benchmark use still answer."""
        for ident, params in [
            ("Thm4", {"r": 6, "A": PrimeSet([2])}),
            ("Cor4.1", {"r": -6, "A": [3]}),
            ("Thm3.1", {"A": [2], "r": 5}),
            ("Thm2.1", {"r": 1}),
            ("Thm1.4", {"A": [3]}),
        ]:
            family = ident.partition(".")[0]
            with pytest.raises(ValueError) as refused:
                generate_list_members(ident, **params)
            assert str(refused.value).startswith(
                f"{family}.* covers {CATALOG[family].text}; got r="), ident
        assert generate_list_members("Thm4", r=6, A=PrimeSet()) == \
            generate_list_members("Thm4", r=6) != []
        assert generate_list_members("Thm3", A=[2], r=1) == \
            generate_list_members("Thm3", A=[2]) != []
        assert generate_list_members("Thm1.1", r=1) == generate_list_members("Thm1.1") != []
        assert generate_list_members("Thm2.1", r=0) == generate_list_members("Thm2.1") != []

    def test_positive_direction_small(self):
        """Every generated member certifies cleanly at a modest bound."""
        for item in ("Thm1.1", "Thm1.2", "Thm1.3", "Thm1.4"):
            for u in generate_list_members(item):
                assert certify_local(u, 1, None, 100).consistent, str(u)
        for item in ("Thm2.1", "Thm2.2", "Thm2.3", "Thm2.4", "Thm2.5"):
            for u in generate_list_members(item, coeff_bound=4):
                assert certify_local(u, 0, None, 100).consistent, str(u)
        for u in generate_list_members("Thm3", A=PrimeSet([2, 3]), exponent_sum=2):
            assert certify_local(u, 1, PrimeSet([2, 3]), 100).consistent, str(u)
        for u in generate_list_members("Thm4", r=6, exponent_sum=2):
            assert certify_local(u, 6, None, 100).consistent, str(u)
        for u in generate_list_members("Cor4", r=-6, exponent_sum=2):
            assert certify_local(u, -6, None, 100).consistent, str(u)

    def test_generated_nilpotent_items_have_stated_indices(self):
        for u in generate_list_members("Thm1.1"):
            assert nilpotency_index(u, 1) == 1
        for u in generate_list_members("Thm2.5", coeff_bound=3):
            assert nilpotency_index(u, 0) == 2
        for u in generate_list_members("Thm3.2", coeff_bound=4):
            assert nilpotency_index(u, 1) == 1


def test_generated_members_classify_in_their_own_family():
    """The generator and the classifiers read one catalog: every member
    generated over this grid is a decidable member cited in its family."""
    cases = [(f"Thm1.{i}", 1, None, {"coeff_bound": 4}) for i in range(1, 5)]
    cases += [(f"Thm2.{i}", 0, None, {"coeff_bound": 4}) for i in range(1, 6)]
    cases += [(f"Thm3.{i}", 1, PrimeSet(A), {"A": PrimeSet(A)})
              for A in ([2], [3], [2, 3], [2, 5]) for i in range(1, 6)]
    cases += [(f"{family}.{i}", r, None, {"r": r})
              for m in range(2, 13) for family, r in (("Thm4", m), ("Cor4", -m))
              for i in range(1, 5)]
    checked = 0
    yielding = set()
    for item, r, A, kwargs in cases:
        for u in generate_list_members(item, **kwargs):
            yielding.add(item)
            v = classify(u, r, A)
            assert v.decidable and v.member, (item, str(u), v)
            family = item.partition(".")[0]
            assert v.citation.partition(".")[0] == family, (item, str(u), v)
            checked += 1
    assert yielding == {item for item, *_ in cases}
    assert checked == 618


def test_negative_direction_on_refuted_candidates():
    """Every empirically refuted candidate in a run is classified NotInL."""
    space = SearchSpace(degree=2, coeff_bound=2, r=1, prime_bound=50)
    for u in space.candidates():
        report = certify_local(u, 1, None, 50)
        if not report.consistent:
            from polyorbit import classify

            v = classify(u, 1)
            assert v.decidable and v.member is False


def test_exhausted_orbit_becomes_undecided_entry():
    entries = explore_N_of_u(parse_poly("x^2-2"), 0, max_steps=2)
    assert entries == [(0, None)]


def _counting_first_refuting_prime(monkeypatch):
    """Route the harness's first_refuting_prime through a recorder of
    (u, r)."""
    import polyorbit.verify

    calls = []

    def counted(u, r, A, prime_bound):
        calls.append((u, r))
        return first_refuting_prime(u, r, A, prime_bound)

    monkeypatch.setattr(polyorbit.verify, "first_refuting_prime", counted)
    return calls


def _open_and_decided(u, r, A=None, **caps):
    v = classify(u, r, A, **caps)
    kind = decide_nilpotency(u, r, **caps).kind
    return v.decidable and kind in (OrbitKind.CYCLE, OrbitKind.ESCAPED)


@pytest.mark.parametrize("r,A,caps", [
    (1, None, {}), (0, None, {}), (3, None, {}), (-2, None, {}),
    (2, [3], {}), (1, [2], {}), (2, None, {"max_steps": 2}),
])
def test_harness_certifies_only_decided_open_orbits(monkeypatch, r, A, caps):
    """Orbits reaching 0 hit 0 mod every prime, undecidable verdicts and
    undecided orbits are not compared: none of them is certified."""
    calls = _counting_first_refuting_prime(monkeypatch)
    space = SearchSpace(degree=2, coeff_bound=1, r=r, A=A or (), prime_bound=30)
    verify_theorem(space, **caps)
    expected = [(u, r) for u in space.candidates()
                if _open_and_decided(u, r, space.A, **caps)]
    assert calls == expected


@pytest.mark.parametrize("text", ["x-1", "x^2-5x+6", "4x-2", "x^2-2", "2x"])
@pytest.mark.parametrize("caps", [{}, {"max_steps": 2}])
def test_local_window_certifies_only_decided_open_orbits(monkeypatch, text, caps):
    calls = _counting_first_refuting_prime(monkeypatch)
    u = parse_poly(text)
    explore_LN_of_u(u, 4, 50, **caps)
    expected = [(u, r) for r in range(-4, 5) if _open_and_decided(u, r, **caps)]
    assert calls == expected


def _counting_decide_nilpotency(monkeypatch):
    """Route every decide_nilpotency the harness reaches, its own and the
    dispatcher's, through a recorder of (u, r)."""
    import sys

    import polyorbit.verify

    calls = []

    def counted(u, r, **caps):
        calls.append((u, r))
        return decide_nilpotency(u, r, **caps)

    monkeypatch.setattr(polyorbit.verify, "decide_nilpotency", counted)
    monkeypatch.setattr(sys.modules["polyorbit.classify"], "decide_nilpotency",
                        counted)
    return calls


@pytest.mark.parametrize("r,A,caps", [
    (1, None, {}), (0, None, {}), (3, None, {}), (-2, None, {}),
    (2, [3], {}), (1, [2], {}), (2, None, {"max_steps": 2}),
])
def test_harness_decides_each_orbit_once(monkeypatch, r, A, caps):
    calls = _counting_decide_nilpotency(monkeypatch)
    space = SearchSpace(degree=2, coeff_bound=1, r=r, A=A or (), prime_bound=30)
    verify_theorem(space, **caps)
    assert calls == [(u, r) for u in space.candidates()]


@pytest.mark.parametrize("caps", [{}, {"max_steps": 2}])
def test_local_window_decides_each_orbit_once(monkeypatch, caps):
    calls = _counting_decide_nilpotency(monkeypatch)
    u = parse_poly("x^2-5x+6")
    explore_LN_of_u(u, 4, 50, **caps)
    assert calls == [(u, r) for r in range(-4, 5)]


def _counting_classify(monkeypatch):
    """Route the harness's classify through a recorder of (u, r)."""
    import polyorbit.verify

    calls = []

    def counted(u, r, A=None, **caps):
        calls.append((u, r))
        return classify(u, r, A, **caps)

    monkeypatch.setattr(polyorbit.verify, "classify", counted)
    return calls


@pytest.mark.parametrize("r,A,caps", [
    (1, None, {}), (0, None, {}), (3, None, {}), (-2, None, {}),
    (2, [3], {}), (1, [2], {}), (2, None, {"max_steps": 2}),
])
def test_harness_classifies_each_candidate_once(monkeypatch, r, A, caps):
    calls = _counting_classify(monkeypatch)
    space = SearchSpace(degree=2, coeff_bound=1, r=r, A=A or (), prime_bound=30)
    verify_theorem(space, **caps)
    assert calls == [(u, r) for u in space.candidates()]


@pytest.mark.parametrize("caps", [{}, {"max_steps": 2}])
def test_local_window_classifies_each_start_once(monkeypatch, caps):
    calls = _counting_classify(monkeypatch)
    u = parse_poly("x^2-5x+6")
    explore_LN_of_u(u, 4, 50, **caps)
    assert calls == [(u, r) for r in range(-4, 5)]


def test_benchmark_tracer_sees_the_harness_classify():
    """perfbench's classify span wraps polyorbit.verify.classify, so a
    traced box counts one classify call per candidate."""
    from spans import Tracer

    space = SearchSpace(degree=1, coeff_bound=2, r=3, prime_bound=30)
    tracer = Tracer()
    tracer.install()
    try:
        verify_theorem(space)
    finally:
        tracer.uninstall()
    assert tracer.calls["classify.classify"] == space.cardinality
    assert tracer.counters["classify.classify.decidable"] == space.cardinality
