"""The exact classifiers and the dispatcher, cross-checked against the
orbit engine and the residue certificates."""

import random
from itertools import product

import pytest

from polyorbit import (
    NILPOTENT,
    STRICTLY_LOCAL,
    OrbitKind,
    Polynomial,
    PrimeSet,
    certify_local,
    classify,
    classify_L0,
    classify_L1,
    classify_L1A_linear,
    classify_Sr_linear,
    decide_nilpotency,
    linear,
    nilpotency_index,
    parse_poly,
)
from polyorbit.classify import THM1_SHAPES


def expect(v, member, subclass=None, index=None, citation=None):
    assert v.decidable
    assert v.member is member
    assert v.subclass == subclass
    assert v.index == index
    if citation is not None:
        assert v.citation == citation


class TestClassifyL1:
    def test_strictly_local_singleton(self):
        expect(classify_L1(linear(1, 1)), True, STRICTLY_LOCAL, citation="Thm1.4")

    def test_multiples_of_x_minus_one(self):
        for p in [Polynomial((1,)), linear(3, 1), parse_poly("x^2+x-5")]:
            u = linear(1, -1) * p
            expect(classify_L1(u), True, NILPOTENT, 1, "Thm1.1")

    def test_index_two_item(self):
        expect(classify_L1(parse_poly("x^2-5x+6")), True, NILPOTENT, 2, "Thm1.2")
        expect(classify_L1(linear(-2, 4)), True, NILPOTENT, 2, "Thm1.2")

    def test_index_three_item(self):
        expect(classify_L1(parse_poly("-2x^2+7x-3")), True, NILPOTENT, 3, "Thm1.3")
        u = parse_poly("-2x^2+7x-3") + parse_poly("x+1") * (
            linear(1, -1) * linear(1, -2) * linear(1, -3)
        )
        expect(classify_L1(u), True, NILPOTENT, 3, "Thm1.3")

    def test_non_members(self):
        for text in ["4x-2", "x^2+1", "2x+1", "x^2"]:
            expect(classify_L1(parse_poly(text)), False, citation="Thm1")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_L1(Polynomial())

    def test_indices_agree_with_orbit(self):
        for vec in product(range(-4, 5), repeat=3):
            if not any(vec):
                continue
            v = classify_L1(Polynomial(vec))
            if v.is_nilpotent:
                assert nilpotency_index(Polynomial(vec), 1) == v.index

    def test_thm1_shapes_match_exact_division(self):
        """The rule by exact division by each modulus (x-1)...(x-k)."""
        for vec in product(range(-3, 4), repeat=4):
            if not any(vec):
                continue
            u = Polynomial(vec)
            v = classify_L1(u)
            for citation, index, base, modulus in THM1_SHAPES:
                if modulus.divides(u - base):
                    expect(v, True, NILPOTENT, index, citation)
                    break
            else:
                if u == linear(1, 1):
                    expect(v, True, STRICTLY_LOCAL, citation="Thm1.4")
                else:
                    expect(v, False, citation="Thm1")


class TestClassifyL0:
    def test_support_condition(self):
        expect(classify_L0(linear(3, 6)), True, STRICTLY_LOCAL, citation="Thm2.3")
        expect(classify_L0(linear(4, -2)), True, STRICTLY_LOCAL, citation="Thm2.3")
        expect(classify_L0(linear(6, 3)), False, citation="Thm2")

    def test_shift_strictly_local(self):
        expect(classify_L0(linear(1, 5)), True, STRICTLY_LOCAL, citation="Thm2.2")
        expect(classify_L0(linear(1, -1)), True, STRICTLY_LOCAL, citation="Thm2.2")

    def test_negated_shift_is_nilpotent_with_note(self):
        v = classify_L0(linear(-1, 7))
        expect(v, True, NILPOTENT, 2, "Thm2.2")
        assert v.note

    def test_multiples_of_x(self):
        v = classify_L0(linear(5, 0))
        expect(v, True, NILPOTENT, 1, "Thm2.4")
        assert "Thm2.1" in v.note
        expect(classify_L0(parse_poly("x^3-2x")), True, NILPOTENT, 1, "Thm2.4")

    def test_root_at_constant_term(self):
        u = linear(1, -2) * parse_poly("x^2-1")  # (x-2)(x^2-1), p(0) = -1
        expect(classify_L0(u), True, NILPOTENT, 2, "Thm2.5")

    def test_constants_not_members(self):
        expect(classify_L0(Polynomial((4,))), False, citation="Thm2")

    def test_non_members(self):
        for text in ["x^2+1", "2x+3", "3x-7", "x^2+x+1"]:
            expect(classify_L0(parse_poly(text)), False, citation="Thm2")

    def test_indices_agree_with_orbit(self):
        for vec in product(range(-4, 5), repeat=3):
            if not any(vec):
                continue
            u = Polynomial(vec)
            v = classify_L0(u)
            outcome = decide_nilpotency(u, 0)
            if v.is_nilpotent:
                assert outcome.kind is OrbitKind.REACHED_ZERO
                assert outcome.index == v.index
            else:
                assert outcome.kind is not OrbitKind.REACHED_ZERO


class TestClassifyL1A:
    def test_minus_2x_minus_1_needs_2(self):
        expect(classify_L1A_linear(linear(-2, -1), PrimeSet([2])),
               True, STRICTLY_LOCAL, citation="Thm3.4")
        expect(classify_L1A_linear(linear(-2, -1), PrimeSet([3])),
               False, citation="Thm3")

    def test_supported_slope(self):
        expect(classify_L1A_linear(linear(6, 1), PrimeSet([2, 3])),
               True, STRICTLY_LOCAL, citation="Thm3.3")
        expect(classify_L1A_linear(linear(6, 1), PrimeSet([2])),
               False, citation="Thm3")

    def test_supported_shift(self):
        expect(classify_L1A_linear(linear(1, 8), PrimeSet([2])),
               True, STRICTLY_LOCAL, citation="Thm3.1")
        expect(classify_L1A_linear(linear(1, -8), PrimeSet([2])),
               True, STRICTLY_LOCAL, citation="Thm3.1")
        expect(classify_L1A_linear(linear(1, 6), PrimeSet([2])),
               False, citation="Thm3")

    def test_x_minus_one_under_item_one(self):
        expect(classify_L1A_linear(linear(1, -1), PrimeSet([5])),
               True, NILPOTENT, 1, "Thm3.1")

    def test_scaled_root(self):
        expect(classify_L1A_linear(linear(-7, 7), PrimeSet()),
               True, NILPOTENT, 1, "Thm3.2")

    def test_index_two_item(self):
        expect(classify_L1A_linear(linear(-2, 4), PrimeSet([7])),
               True, NILPOTENT, 2, "Thm3.5")

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            classify_L1A_linear(parse_poly("x^2+1"), PrimeSet())

    def test_empty_A_matches_theorem_one_on_linear(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                if a == 0:
                    continue
                u = linear(a, b)
                lhs = classify_L1A_linear(u, PrimeSet())
                rhs = classify_L1(u)
                assert (lhs.member, lhs.subclass, lhs.index) == (
                    rhs.member, rhs.subclass, rhs.index,
                ), str(u)


class TestClassifySr:
    def test_supported_positive_shift(self):
        expect(classify_Sr_linear(linear(1, 5), 10), True, STRICTLY_LOCAL,
               citation="Thm4.1")

    def test_negative_shift_needs_excess_exponent(self):
        expect(classify_Sr_linear(linear(1, -4), 6), True, STRICTLY_LOCAL,
               citation="Thm4.2")
        v = classify_Sr_linear(linear(1, -2), 6)
        expect(v, False, citation="Thm4")
        assert "nilpotent" in v.note

    def test_slope_item(self):
        expect(classify_Sr_linear(linear(-2, 6), 6), True, STRICTLY_LOCAL,
               citation="Thm4.3")
        expect(classify_Sr_linear(linear(9, 6), 6), True, STRICTLY_LOCAL,
               citation="Thm4.3")

    def test_minus_2x_minus_r_even_only(self):
        expect(classify_Sr_linear(linear(-2, -6), 6), True, STRICTLY_LOCAL,
               citation="Thm4.4")
        expect(classify_Sr_linear(linear(-2, -9), 9), False, citation="Thm4")

    def test_negative_r_mirrors(self):
        expect(classify_Sr_linear(linear(-2, 6), -6), True, STRICTLY_LOCAL,
               citation="Cor4.4")
        expect(classify_Sr_linear(linear(1, -5), -10), True, STRICTLY_LOCAL,
               citation="Cor4.1")

    def test_non_member(self):
        expect(classify_Sr_linear(linear(2, -3), 6), False, citation="Thm4")

    def test_power_condition_members_outside_cataloged_shapes(self):
        """Genuine strictly-local members the four-shape catalog misses;
        certificate sweeps to 10^4 found no refuting prime for any."""
        for a, b in [(2, 2), (-2, 2), (-3, -3), (-4, -2)]:
            v = classify_Sr_linear(linear(a, b), 6)
            expect(v, True, STRICTLY_LOCAL, citation="Rem3")
            assert "power condition" in v.note
        # the mirrors at r=-6, via negate-conjugation
        for a, b in [(2, -2), (-2, -2), (-3, 3), (-4, 2)]:
            expect(classify_Sr_linear(linear(a, b), -6), True, STRICTLY_LOCAL,
                   citation="Rem3")

    def test_power_condition_members_never_refuted(self):
        for a, b in [(2, 2), (-2, 2), (-3, -3), (-4, -2)]:
            report = certify_local(linear(a, b), 6, None, 1000)
            assert report.consistent

    def test_guards(self):
        with pytest.raises(ValueError):
            classify_Sr_linear(parse_poly("x^2"), 6)
        with pytest.raises(ValueError):
            classify_Sr_linear(linear(1, 1), 1)


class TestDispatcher:
    def test_quadratic_at_one(self):
        expect(classify(parse_poly("x^2-5x+6"), 1), True, NILPOTENT, 2, "Thm1.2")

    def test_fact1_route(self):
        v = classify(parse_poly("x^3+x+1"), 7)
        expect(v, False, citation="Fact1")

    def test_nilpotent_route_at_large_r(self):
        v = classify(parse_poly("x-1"), 7)
        expect(v, True, NILPOTENT, 7, "Def.N")

    def test_theorem4_route(self):
        expect(classify(linear(1, 1), 2), True, STRICTLY_LOCAL, citation="Thm4.1")

    def test_constant_at_large_r(self):
        v = classify(Polynomial((5,)), 3)
        expect(v, False, citation="Def.L")

    def test_minus_one_mirror(self):
        expect(classify(parse_poly("2x^2+7x+3"), -1), True, NILPOTENT, 3, "Rem4.3")
        expect(classify(linear(1, -1), -1), True, STRICTLY_LOCAL, citation="Rem4.4")

    def test_thm3_route_needs_degree_one(self):
        expect(classify(linear(-2, -1), 1, PrimeSet([2])), True, STRICTLY_LOCAL,
               citation="Thm3.4")
        assert not classify(parse_poly("x^2+1"), 1, PrimeSet([2])).decidable

    def test_uncovered_combinations_undecidable(self):
        assert not classify(linear(1, 1), 0, PrimeSet([2])).decidable
        assert not classify(linear(1, 1), -1, PrimeSet([2])).decidable
        assert not classify(linear(1, 1), 5, PrimeSet([2])).decidable
        v = classify(linear(1, 1), 5, PrimeSet([2]))
        assert v.member is None and v.result is None and v.note


class TestCoherence:
    def test_conjugation_coherence(self):
        """classify(u, r) and classify(-u(-x), -r) agree in result and
        subclass for all small linear u and |r| <= 6."""
        for a in range(-6, 7):
            for b in range(-6, 7):
                if a == 0:
                    continue
                u = linear(a, b)
                v = u.negate_conjugate()
                for r in range(-6, 7):
                    left = classify(u, r)
                    right = classify(v, -r)
                    assert left.decidable == right.decidable
                    if left.decidable:
                        assert (left.member, left.subclass, left.index) == (
                            right.member, right.subclass, right.index,
                        ), f"{u} at {r}"

    def test_reduction_coherence(self):
        """classify(u, r, empty) and classify(u(rx)/r, 1, P(r)) agree on
        membership for linear u whenever r >= 1 divides u(0)."""
        from polyorbit import prime_support

        for a in range(-8, 9):
            for b in range(-8, 9):
                if a == 0:
                    continue
                u = linear(a, b)
                for r in range(1, 7):
                    if b % r != 0:
                        continue
                    reduced = u.reduce_at(r)
                    left = classify(u, r)
                    right = classify(reduced, 1, PrimeSet(prime_support(r)))
                    assert left.decidable and right.decidable
                    assert left.member == right.member, f"{u} at {r}"
                    assert left.subclass == right.subclass, f"{u} at {r}"
                    assert left.index == right.index, f"{u} at {r}"

    def test_corollary_one_small_window(self):
        """x+1 is the only strictly-local linear member at r=1 within
        |a|,|b| <= 12 (the full-scale run is an acceptance criterion)."""
        found = []
        for a in range(-12, 13):
            for b in range(-12, 13):
                if a == 0:
                    continue
                if classify(linear(a, b), 1).is_strictly_local:
                    found.append((a, b))
        assert found == [(1, 1)]


class TestSoundnessVersusEmpirical:
    """Members are never refuted; decidable non-members are either refuted
    by a prime <= 300 or have an orbit trapped in a finite 0-free set."""

    def check(self, u, r, A):
        v = classify(u, r, A)
        if not v.decidable:
            return
        report = certify_local(u, r, A, 300)
        if v.member:
            assert report.consistent, f"{u} at {r} outside {A}: classified " \
                f"member but refuted at {report.refuted_at}"
        elif report.consistent:
            outcome = decide_nilpotency(u, r)
            assert outcome.kind is OrbitKind.CYCLE, f"{u} at {r} outside " \
                f"{A}: non-member yet consistent and orbit {outcome.kind}"

    def test_full_linear_sweep(self):
        sets = [PrimeSet(), PrimeSet([2]), PrimeSet([2, 3])]
        for a in range(-8, 9):
            for b in range(-8, 9):
                if a == 0:
                    continue
                u = linear(a, b)
                for r in range(-6, 7):
                    for A in sets:
                        self.check(u, r, A)

    def test_sampled_higher_degree(self):
        rng = random.Random(20250810)
        sets = [PrimeSet(), PrimeSet([2]), PrimeSet([2, 3])]
        for _ in range(400):
            degree = rng.choice([2, 3])
            vec = [rng.randint(-8, 8) for _ in range(degree)] + [
                rng.choice([c for c in range(-8, 9) if c])
            ]
            u = Polynomial(vec)
            self.check(u, rng.randint(-6, 6), rng.choice(sets))
