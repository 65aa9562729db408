"""classify, item by item of the catalog, cross-checked against the orbit
engine and the residue certificates."""

import dataclasses
import importlib
import inspect
import pickle
import random
import re
from itertools import product
from pathlib import Path

import pytest

from polyorbit import (
    NILPOTENT,
    STRICTLY_LOCAL,
    OrbitKind,
    Polynomial,
    PrimeSet,
    certify_local,
    classify,
    decide_nilpotency,
    linear,
    nilpotency_index,
    parse_poly,
)
from polyorbit.classify import THM1_SHAPES, Verdict, mirror_item
from polyorbit.classify import CATALOG
from polyorbit.modular import _linear_member


def expect(v, member, subclass=None, index=None, citation=None):
    assert v.decidable
    assert v.member is member
    assert v.subclass == subclass
    assert v.index == index
    if citation is not None:
        assert v.citation == citation


class TestClassifyL1:
    def test_strictly_local_singleton(self):
        expect(classify(linear(1, 1), 1), True, STRICTLY_LOCAL, citation="Thm1.4")

    def test_multiples_of_x_minus_one(self):
        for p in [Polynomial((1,)), linear(3, 1), parse_poly("x^2+x-5")]:
            u = linear(1, -1) * p
            expect(classify(u, 1), True, NILPOTENT, 1, "Thm1.1")

    def test_index_two_item(self):
        expect(classify(parse_poly("x^2-5x+6"), 1), True, NILPOTENT, 2, "Thm1.2")
        expect(classify(linear(-2, 4), 1), True, NILPOTENT, 2, "Thm1.2")

    def test_index_three_item(self):
        expect(classify(parse_poly("-2x^2+7x-3"), 1), True, NILPOTENT, 3, "Thm1.3")
        u = parse_poly("-2x^2+7x-3") + parse_poly("x+1") * (
            linear(1, -1) * linear(1, -2) * linear(1, -3)
        )
        expect(classify(u, 1), True, NILPOTENT, 3, "Thm1.3")

    def test_non_members(self):
        for text in ["4x-2", "x^2+1", "2x+1", "x^2"]:
            expect(classify(parse_poly(text), 1), False, citation="Thm1")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify(Polynomial(), 1)

    def test_indices_agree_with_orbit(self):
        for vec in product(range(-4, 5), repeat=3):
            if not any(vec):
                continue
            v = classify(Polynomial(vec), 1)
            if v.is_nilpotent:
                assert nilpotency_index(Polynomial(vec), 1) == v.index

    def test_thm1_shapes_match_exact_division(self):
        """The rule by exact division by each modulus (x-1)...(x-k)."""
        for vec in product(range(-3, 4), repeat=4):
            if not any(vec):
                continue
            u = Polynomial(vec)
            v = classify(u, 1)
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
        expect(classify(linear(3, 6), 0), True, STRICTLY_LOCAL, citation="Thm2.3")
        expect(classify(linear(4, -2), 0), True, STRICTLY_LOCAL, citation="Thm2.3")
        expect(classify(linear(6, 3), 0), False, citation="Thm2")

    def test_shift_strictly_local(self):
        expect(classify(linear(1, 5), 0), True, STRICTLY_LOCAL, citation="Thm2.2")
        expect(classify(linear(1, -1), 0), True, STRICTLY_LOCAL, citation="Thm2.2")

    def test_negated_shift_is_nilpotent_with_note(self):
        v = classify(linear(-1, 7), 0)
        expect(v, True, NILPOTENT, 2, "Thm2.2")
        assert v.note

    def test_multiples_of_x(self):
        v = classify(linear(5, 0), 0)
        expect(v, True, NILPOTENT, 1, "Thm2.4")
        assert "Thm2.1" in v.note
        expect(classify(parse_poly("x^3-2x"), 0), True, NILPOTENT, 1, "Thm2.4")

    def test_root_at_constant_term(self):
        u = linear(1, -2) * parse_poly("x^2-1")  # (x-2)(x^2-1), p(0) = -1
        expect(classify(u, 0), True, NILPOTENT, 2, "Thm2.5")

    def test_constants_not_members(self):
        expect(classify(Polynomial((4,)), 0), False, citation="Thm2")

    def test_non_members(self):
        for text in ["x^2+1", "2x+3", "3x-7", "x^2+x+1"]:
            expect(classify(parse_poly(text), 0), False, citation="Thm2")

    def test_indices_agree_with_orbit(self):
        for vec in product(range(-4, 5), repeat=3):
            if not any(vec):
                continue
            u = Polynomial(vec)
            v = classify(u, 0)
            outcome = decide_nilpotency(u, 0)
            if v.is_nilpotent:
                assert outcome.kind is OrbitKind.REACHED_ZERO
                assert outcome.index == v.index
            else:
                assert outcome.kind is not OrbitKind.REACHED_ZERO


class TestClassifyL1A:
    def test_minus_2x_minus_1_needs_2(self):
        expect(classify(linear(-2, -1), 1, PrimeSet([2])),
               True, STRICTLY_LOCAL, citation="Thm3.4")
        expect(classify(linear(-2, -1), 1, PrimeSet([3])),
               False, citation="Thm3")

    def test_supported_slope(self):
        expect(classify(linear(6, 1), 1, PrimeSet([2, 3])),
               True, STRICTLY_LOCAL, citation="Thm3.3")
        expect(classify(linear(6, 1), 1, PrimeSet([2])),
               False, citation="Thm3")

    def test_supported_shift(self):
        expect(classify(linear(1, 8), 1, PrimeSet([2])),
               True, STRICTLY_LOCAL, citation="Thm3.1")
        expect(classify(linear(1, -8), 1, PrimeSet([2])),
               True, STRICTLY_LOCAL, citation="Thm3.1")
        expect(classify(linear(1, 6), 1, PrimeSet([2])),
               False, citation="Thm3")

    def test_x_minus_one_under_item_one(self):
        expect(classify(linear(1, -1), 1, PrimeSet([5])),
               True, NILPOTENT, 1, "Thm3.1")

    def test_index_two_item(self):
        expect(classify(linear(-2, 4), 1, PrimeSet([7])),
               True, NILPOTENT, 2, "Thm3.5")


class TestClassifySr:
    def test_supported_positive_shift(self):
        expect(classify(linear(1, 5), 10), True, STRICTLY_LOCAL, citation="Thm4.1")

    def test_negative_shift_needs_excess_exponent(self):
        expect(classify(linear(1, -4), 6), True, STRICTLY_LOCAL, citation="Thm4.2")

    def test_slope_item(self):
        expect(classify(linear(-2, 6), 6), True, STRICTLY_LOCAL,
               citation="Thm4.3")
        expect(classify(linear(9, 6), 6), True, STRICTLY_LOCAL,
               citation="Thm4.3")

    def test_minus_2x_minus_r_even_only(self):
        expect(classify(linear(-2, -6), 6), True, STRICTLY_LOCAL,
               citation="Thm4.4")
        expect(classify(linear(-2, -9), 9), False, citation="Thm4")

    def test_negative_r_mirrors(self):
        expect(classify(linear(-2, 6), -6), True, STRICTLY_LOCAL,
               citation="Cor4.4")
        expect(classify(linear(1, -5), -10), True, STRICTLY_LOCAL,
               citation="Cor4.1")

    def test_non_member(self):
        expect(classify(linear(2, -3), 6), False, citation="Thm4")

    def test_power_condition_members_outside_cataloged_shapes(self):
        """Genuine strictly-local members the four-shape catalog misses;
        certificate sweeps to 10^4 found no refuting prime for any."""
        for a, b in [(2, 2), (-2, 2), (-3, -3), (-4, -2)]:
            v = classify(linear(a, b), 6)
            expect(v, True, STRICTLY_LOCAL, citation="Rem3")
            assert "power condition" in v.note
        # the mirrors at r=-6, via negate-conjugation
        for a, b in [(2, -2), (-2, -2), (-3, 3), (-4, 2)]:
            expect(classify(linear(a, b), -6), True, STRICTLY_LOCAL,
                   citation="Rem3")

    def test_power_condition_members_never_refuted(self):
        for a, b in [(2, 2), (-2, 2), (-3, -3), (-4, -2)]:
            report = certify_local(linear(a, b), 6, None, 1000)
            assert report.consistent


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


class TestVerdictOrbit:
    """The dispatcher hands over the integer orbit it decided, and only
    that one."""

    POLYS = [Polynomial(vec) for vec in product(range(-2, 3), repeat=3) if any(vec)]

    @pytest.mark.parametrize("caps", [{}, {"max_steps": 2}])
    def test_orbit_is_the_outcome_decided_at_large_r(self, caps):
        for u in self.POLYS:
            for r in (-4, -3, -2, 2, 3, 4):
                assert classify(u, r, None, **caps).orbit == \
                    decide_nilpotency(u, r, **caps)

    def test_no_orbit_where_the_dispatcher_decides_none(self):
        for u in self.POLYS:
            for r in (-1, 0, 1):
                assert classify(u, r).orbit is None
            for r in range(-4, 5):
                assert classify(u, r, PrimeSet([2])).orbit is None


class TestVerdictContract:
    """A verdict is a frozen dataclass whose __init__ is written by hand:
    its fields, signature, equality, hashing, immutability and copies."""

    FIELDS = (("decidable", dataclasses.MISSING), ("member", dataclasses.MISSING),
              ("subclass", None), ("index", None), ("citation", ""), ("note", ""),
              ("orbit", None))

    def test_fields_keep_names_order_and_defaults(self):
        fields = dataclasses.fields(Verdict)
        assert tuple((f.name, f.default) for f in fields) == self.FIELDS
        assert all(f.init for f in fields)

    def test_signature_matches_the_fields(self):
        params = inspect.signature(Verdict).parameters.values()
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
        empty = {inspect.Parameter.empty: dataclasses.MISSING}
        assert tuple((p.name, empty.get(p.default, p.default))
                     for p in params) == self.FIELDS

    def test_positional_and_keyword_construction(self):
        outcome = decide_nilpotency(linear(-1, 5), 2)
        args = (True, False, None, None, "Thm4", "a note", outcome)
        positional = Verdict(*args)
        keyword = Verdict(**{name: value for (name, _), value in zip(self.FIELDS, args)})
        assert positional == keyword and hash(positional) == hash(keyword)
        assert positional.orbit is outcome and positional.note == "a note"
        short = Verdict(False, None)
        assert short == Verdict(False, None, None, None, "", "", None)
        assert hash(short) == hash(Verdict(decidable=False, member=None))
        assert (short.subclass, short.index, short.citation, short.note,
                short.orbit) == (None, None, "", "", None)

    def test_fields_cannot_be_assigned(self):
        v = classify(linear(2, 6), 6)
        for name, _ in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, name, None)
        assert v == classify(linear(2, 6), 6)

    def test_pickle_and_replace_round_trip(self):
        for u, r in ((linear(2, 6), 6), (parse_poly("x^2+1"), 2), (linear(1, 1), 1),
                     (parse_poly("x^2"), 3)):
            v = classify(u, r)
            assert pickle.loads(pickle.dumps(v)) == v
            assert dataclasses.replace(v) == v
            moved = dataclasses.replace(v, citation="X", orbit=None)
            assert (moved.citation, moved.orbit) == ("X", None)
            assert dataclasses.replace(moved, citation=v.citation, orbit=v.orbit) == v
        v = classify(linear(1, 1), 5, PrimeSet([2]))
        assert pickle.loads(pickle.dumps(v)) == v and not v.decidable


class TestOneVerdictPerCall:
    """classify builds the verdict of a linear candidate at |r| >= 2 once,
    the mirror at r <= -2 included, and carries its orbit in it."""

    @pytest.mark.parametrize("text, r, citation", [
        ("2x+6", 6, "Thm4.3"), ("2x-6", -6, "Cor4.3"),
        ("x+5", 10, "Thm4.1"), ("x-2", 9, "Thm4"), ("2x-2", -6, "Rem3"),
    ])
    def test_one_construction(self, monkeypatch, text, r, citation):
        module = importlib.import_module("polyorbit.classify")
        built = []

        class CountingVerdict(module.Verdict):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(module, "Verdict", CountingVerdict)
        u = parse_poly(text)
        v = classify(u, r)
        assert len(built) == 1
        assert v.citation == citation
        assert v.orbit == decide_nilpotency(u, r)


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


class TestOneVerdictAtMinusOne:
    """classify at r = -1 builds the mirrored Thm1 verdict once, and it is
    the r = 1 verdict of the negate-conjugate with its citation mirrored."""

    @pytest.mark.parametrize("text, citation", [
        ("x+1", "Rem4.1"), ("-2x^2+7x-3", "Rem4"),
    ])
    def test_one_construction(self, monkeypatch, text, citation):
        module = importlib.import_module("polyorbit.classify")
        built = []

        class CountingVerdict(module.Verdict):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(module, "Verdict", CountingVerdict)
        v = classify(parse_poly(text), -1)
        assert len(built) == 1
        assert v.citation == citation

    def test_mirror_of_the_r_equals_1_verdict(self):
        for coeffs in product(range(-3, 4), repeat=4):
            u = Polynomial(coeffs)
            if u.is_zero():
                continue
            mirror = classify(u.negate_conjugate(), 1)
            assert classify(u, -1) == dataclasses.replace(
                mirror, citation=mirror_item(mirror.citation)), u


def polynomial_route_L1(u):
    """The Thm1 check by whole polynomials: each shape's base evaluated at
    every root of its modulus, then u compared with x+1."""
    for citation, index, base, _ in THM1_SHAPES:
        if all(u.evaluate(j) == base.evaluate(j) for j in range(1, index + 1)):
            return Verdict(True, True, NILPOTENT, index, citation)
    if u == linear(1, 1):
        return Verdict(True, True, STRICTLY_LOCAL, None, "Thm1.4")
    return Verdict(True, False, None, None, "Thm1")


def route_L0(u):
    """The Thm2 check branch by branch: multiples of x, then the linear
    items, then u(a) = 0 at a = u(0) by evaluating u at a."""
    if u.constant == 0:
        note = ("also matches Thm2.1 (annotated strictly-local); "
                "u(0)=0 forces nilpotency of index 1") if u.degree == 1 else ""
        return Verdict(True, True, NILPOTENT, 1, "Thm2.4", note)
    if u.degree == 1:
        if u.lead == 1:
            return Verdict(True, True, STRICTLY_LOCAL, None, "Thm2.2")
        if u.lead == -1:
            note = ("catalog annotates +-x+b strictly-local; the orbit at 0 "
                    "returns to 0 at step 2")
            return Verdict(True, True, NILPOTENT, 2, "Thm2.2", note)
        if _linear_member(u, 0) is not None:
            return Verdict(True, True, STRICTLY_LOCAL, None, "Thm2.3")
        return Verdict(True, False, None, None, "Thm2")
    if u.evaluate(u.constant) == 0:
        return Verdict(True, True, NILPOTENT, 2, "Thm2.5")
    return Verdict(True, False, None, None, "Thm2")


def near_thm1_shapes():
    """Each Thm1 base plus p(x) times its modulus, for p of degree <= 1
    with |coefficients| <= 2, shifted by -1, 0 and 1: members of every
    shape, and maps that agree with a shape at its first roots only."""
    for _, _, base, modulus in THM1_SHAPES:
        for p in product(range(-2, 3), repeat=2):
            for k in (-1, 0, 1):
                yield base + Polynomial(p) * modulus + k


class TestThm1ByRootValues:
    """classify at r=1 and r=-1 against the polynomial route, which at
    r=-1 builds the negate-conjugate -u(-x) and mirrors the citation."""

    MAPS = [Polynomial(c) for c in product(range(-2, 3), repeat=4) if any(c)]
    MAPS += [u for u in near_thm1_shapes() if not u.is_zero()]
    MAPS += [u.negate_conjugate() for u in near_thm1_shapes() if not u.is_zero()]

    def test_every_thm1_item_is_reached(self):
        cited = {classify(u, 1).citation for u in self.MAPS}
        cited |= {classify(u, -1).citation for u in self.MAPS}
        assert cited == {"Thm1.1", "Thm1.2", "Thm1.3", "Thm1.4", "Thm1",
                         "Rem4.1", "Rem4.2", "Rem4.3", "Rem4.4", "Rem4"}

    def test_at_one(self):
        for u in self.MAPS:
            expected = dataclasses.asdict(polynomial_route_L1(u))
            assert dataclasses.asdict(classify(u, 1)) == expected, u

    def test_at_minus_one(self):
        for u in self.MAPS:
            mirror = polynomial_route_L1(u.negate_conjugate())
            mirror = dataclasses.replace(mirror, citation=mirror_item(mirror.citation))
            assert dataclasses.asdict(classify(u, -1)) == dataclasses.asdict(mirror), u


class TestThm2ByTheOrbitAtZero:
    """classify at r=0 against route_L0, and its test of u(a) = 0, made
    from the constant term up, against evaluating u at a = u(0)."""

    MAPS = [Polynomial(c) for c in product(range(-3, 4), repeat=4) if any(c)]

    def test_route_L0(self):
        for u in self.MAPS:
            expected = dataclasses.asdict(route_L0(u))
            assert dataclasses.asdict(classify(u, 0)) == expected, u

    @staticmethod
    def maps_near_a_root_at_the_constant():
        """(x-a)p(x) + k for a in [-12, 12] and 10^30 + 7 and their
        negatives, p of degree <= 2 with |c| <= 2, k in {-1, 0, 1}: with
        p(0) = -1 and k = 0, u(0) = a is a root of u."""
        for a in [*range(-12, 13), 10**30 + 7, -10**30 - 7]:
            for p in product(range(-2, 3), repeat=3):
                for k in (-1, 0, 1):
                    u = linear(1, -a) * Polynomial(p) + k
                    if not u.is_zero():
                        yield u

    def test_root_at_the_constant_matches_evaluation(self):
        maps = [Polynomial(c) for c in product(range(-3, 4), repeat=5) if any(c)]
        maps += self.maps_near_a_root_at_the_constant()
        found = 0
        for u in maps:
            a = u.constant
            expected = 1 if a == 0 else 2 if u.evaluate(a) == 0 else None
            assert classify(u, 0).index == expected, u
            found += expected == 2
        assert found > 100

    def test_member_with_a_large_root(self):
        u = linear(1, -10**50) * parse_poly("x^2-1")
        assert u.constant == 10**50
        expect(classify(u, 0), True, NILPOTENT, 2, "Thm2.5")
        assert decide_nilpotency(u, 0).index == 2

    @pytest.mark.parametrize("r, citation", [(-1, "Rem4"), (0, "Thm2"), (1, "Thm1")])
    def test_large_constant_is_answered_without_its_orbit(self, small_peak, r, citation):
        """u(u(0)) and u(u(1)) of x^10000 + 10^4000 have some 40 million
        digits; the catalog lists decide before either is built."""
        v = classify(parse_poly("x^10000+1" + "0" * 4000), r)
        expect(v, False, citation=citation)
        assert v.result == "NotInL"


class TestOneCatalogTable:
    """The README citation table and classify's citations read the rows of
    classify.CATALOG."""

    def test_readme_table_lists_the_rows(self):
        """One `Fam.1-n` line per family with its item count and one line per
        label, in the table's order, with the row's words (code spans aside)."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme[readme.index("| citation "):]
        table = table[:table.index("\n\n")]
        listed = [(citation, words.replace("`", "")) for citation, words in
                  re.findall(r"^\| `([^`]+)` *\| (.*?) *\|$", table, re.M)]
        assert listed == [
            (f"{row.ident}.1-{len(row.items)}" if row.items else row.ident, row.text)
            for row in CATALOG.values()]

    def test_mirror_item_is_an_involution(self):
        """Thm1 and Rem4, Thm4 and Cor4 swap, item by item; the ids of a
        family without a mirror, and of a label, are left as they are."""
        ids = [ident for row in CATALOG.values()
               for ident in (row.ident, *(f"{row.ident}.{k}"
                                          for k in range(1, len(row.items) + 1)))]
        pairs = {"Thm1": "Rem4", "Rem4": "Thm1", "Thm4": "Cor4", "Cor4": "Thm4"}
        for ident in ids:
            family, dot, item = ident.partition(".")
            assert mirror_item(ident) == pairs.get(family, family) + dot + item
            assert mirror_item(mirror_item(ident)) == ident

    def test_every_citation_is_a_row(self):
        """Over the VERDICT_DIGEST grid every decided verdict cites an item,
        a family or a label of the table, every undecided one nothing, and
        each family and label is cited."""
        cited = {row.ident for row in CATALOG.values()}
        cited |= {f"{row.ident}.{k}" for row in CATALOG.values()
                  for k in range(1, len(row.items) + 1)}
        maps = [Polynomial(c) for c in product(range(-2, 3), repeat=4) if any(c)]
        grid_caps = ({},) + tuple({"max_steps": s, "max_bits": b}
                                  for s in (1, 3) for b in (1, 4))
        seen = set()
        for A in ((), (2,), (3,)):
            for caps in grid_caps:
                for u in maps:
                    for r in range(-6, 7):
                        v = classify(u, r, A, **caps)
                        seen.add(v.citation)
                        assert (v.citation in cited) is v.decidable, (u, r, A, caps, v)
        assert {row.ident for row in CATALOG.values()} <= seen
