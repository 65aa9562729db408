"""Integer-orbit iteration, escape bounds, and the nilpotency decision."""

import dataclasses
import pickle
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from polyorbit import (
    BudgetExceededError,
    OrbitKind,
    OrbitOutcome,
    Polynomial,
    SearchSpace,
    UndecidedError,
    classify,
    decide_nilpotency,
    escape_bound,
    explore_LN_of_u,
    explore_N_of_u,
    iterate_linear_closed,
    iterate_value,
    linear,
    nilpotency_index,
    parse_poly,
    verify_theorem,
)
from polyorbit.orbits import MAX_BITS_DEFAULT, MAX_STEPS_DEFAULT


class TestIterateValue:
    def test_shift(self):
        assert iterate_value(linear(1, 1), 1, 5) == 6

    def test_linear_with_slope(self):
        assert iterate_value(linear(4, -2), 0, 2) == -10

    def test_quadratic_reaches_zero(self):
        assert iterate_value(parse_poly("-2x^2+7x-3"), 1, 3) == 0

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            iterate_value(linear(1, 1), 0, 0)

    def test_bit_budget(self):
        with pytest.raises(BudgetExceededError):
            iterate_value(parse_poly("x^2"), 3, 100, max_bits=512)


class TestLinearClosedForm:
    def test_shift(self):
        assert iterate_linear_closed(1, 1, 1, 7) == 8

    def test_involution(self):
        assert iterate_linear_closed(-1, 5, 2, 2) == 2

    def test_geometric(self):
        assert iterate_linear_closed(4, -2, 0, 3) == -42

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            iterate_linear_closed(0, 1, 1, 1)

    @given(
        st.integers(-20, 20).filter(bool),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(1, 30),
    )
    def test_agrees_with_step_iteration(self, a, b, r, n):
        assert iterate_linear_closed(a, b, r, n) == iterate_value(linear(a, b), r, n)


class TestEscapeBound:
    @pytest.mark.parametrize(
        "text,expected",
        [("x^2", 4), ("-2x^2+7x-3", 26), ("4x-2", 14)],
    )
    def test_values_and_soundness(self, text, expected):
        u = parse_poly(text)
        bound = escape_bound(u).bound
        assert bound == expected
        for x in range(bound, 10_001):
            assert abs(u(x)) > x and abs(u(-x)) > x

    @pytest.mark.parametrize("text", ["x+3", "-x+1", "5", "0"])
    def test_not_applicable(self, text):
        with pytest.raises(ValueError):
            escape_bound(parse_poly(text))

    @given(st.builds(Polynomial, st.lists(st.integers(-9, 9), min_size=3, max_size=5)))
    def test_property_at_and_beyond_bound(self, u):
        if u.degree is None or u.degree < 2:
            return
        bound = escape_bound(u).bound
        for x in (bound, -bound, 2 * bound, -2 * bound, 10 * bound + 7):
            assert abs(u(x)) > abs(x)


class TestOrbitOutcome:
    """The public contract of an outcome: fields, defaults, repr, tuple
    behaviour, hashing, immutability and pickling."""

    CYCLE = OrbitOutcome(OrbitKind.CYCLE, 2, None, (1, (3, 5)))

    def test_positional_and_keyword_construction(self):
        out = OrbitOutcome(OrbitKind.EXHAUSTED, 7)
        assert out.kind is OrbitKind.EXHAUSTED and out.steps_used == 7
        assert out.index is None and out.cycle_witness is None
        assert out.escape_data is None
        assert OrbitOutcome(OrbitKind.REACHED_ZERO, 3, 3) == OrbitOutcome(
            kind=OrbitKind.REACHED_ZERO, steps_used=3, index=3)
        assert self.CYCLE == OrbitOutcome(
            OrbitKind.CYCLE, steps_used=2, cycle_witness=(1, (3, 5)))
        assert OrbitOutcome._fields == (
            "kind", "steps_used", "index", "cycle_witness", "escape_data")

    def test_repr(self):
        assert repr(decide_nilpotency(parse_poly("x^2-2"), 3)) == (
            "OrbitOutcome(kind=<OrbitKind.ESCAPED: 'escaped'>, steps_used=2, "
            "index=None, cycle_witness=None, escape_data=(2, 47, 8))")
        assert repr(decide_nilpotency(parse_poly("x^2"), 0)) == (
            "OrbitOutcome(kind=<OrbitKind.REACHED_ZERO: 'reached-zero'>, "
            "steps_used=1, index=1, cycle_witness=None, escape_data=None)")
        assert repr(decide_nilpotency(linear(-1, 5), 2)) == (
            "OrbitOutcome(kind=<OrbitKind.CYCLE: 'cycle'>, steps_used=2, "
            "index=None, cycle_witness=(0, (2, 3)), escape_data=None)")

    def test_an_outcome_is_the_tuple_of_its_fields(self):
        kind, steps, index, witness, escape = self.CYCLE
        assert self.CYCLE == (OrbitKind.CYCLE, 2, None, (1, (3, 5)), None)
        assert (kind, steps, index, witness, escape) == tuple(self.CYCLE)
        out = decide_nilpotency(parse_poly("x^2-2"), 3)
        assert out == (OrbitKind.ESCAPED, 2, None, None, (2, 47, 8))

    def test_replace_and_asdict(self):
        assert self.CYCLE._replace(steps_used=4) == OrbitOutcome(
            OrbitKind.CYCLE, 4, None, (1, (3, 5)))
        assert self.CYCLE._asdict() == {
            "kind": OrbitKind.CYCLE, "steps_used": 2, "index": None,
            "cycle_witness": (1, (3, 5)), "escape_data": None}

    def test_equal_outcomes_hash_equal(self):
        a = decide_nilpotency(linear(-1, 5), 2)
        b = OrbitOutcome(OrbitKind.CYCLE, 2, None, (0, (2, 3)))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, self.CYCLE}) == 2

    def test_fields_cannot_be_assigned(self):
        out = OrbitOutcome(OrbitKind.REACHED_ZERO, 1, 1)
        for field in OrbitOutcome._fields:
            with pytest.raises(AttributeError):
                setattr(out, field, 2)
        assert out == OrbitOutcome(OrbitKind.REACHED_ZERO, 1, 1)

    def test_pickle_round_trip(self):
        for r in range(-4, 5):
            for u in (parse_poly("x^2-2"), linear(-1, 5), linear(3, 1)):
                out = decide_nilpotency(u, r)
                assert pickle.loads(pickle.dumps(out)) == out
        out = decide_nilpotency(parse_poly("x^2-2"), 0, max_steps=1)
        assert pickle.loads(pickle.dumps(out)) == (OrbitKind.EXHAUSTED, 1, None, None, None)

    def test_verdict_asdict_nests_the_outcome_fields(self):
        v = classify(parse_poly("x^2+1"), 2)
        nested = dataclasses.asdict(v)["orbit"]
        assert nested == v.orbit == (OrbitKind.ESCAPED, 2, None, None, (2, 26, 6))
        assert nested._asdict() == v.orbit._asdict()
        assert dataclasses.asdict(classify(linear(-1, 5), 2))["orbit"] == (
            OrbitKind.CYCLE, 2, None, (0, (2, 3)), None)


class TestDecideNilpotency:
    def test_cubic_with_root_at_start(self):
        out = decide_nilpotency(parse_poly("x^3-3x^2+x-3"), 3)
        assert out.kind is OrbitKind.REACHED_ZERO and out.index == 1

    def test_cubic_index_four(self):
        out = decide_nilpotency(parse_poly("-x^3+9x^2-25x+25"), 2)
        assert out.kind is OrbitKind.REACHED_ZERO and out.index == 4

    def test_shift_escapes(self):
        out = decide_nilpotency(linear(1, 1), 1)
        assert out.kind is OrbitKind.ESCAPED

    def test_negation_cycles(self):
        out = decide_nilpotency(linear(-1, 5), 2)
        assert out.kind is OrbitKind.CYCLE
        assert out.cycle_witness == (0, (2, 3))

    def test_fixed_point_cycle(self):
        out = decide_nilpotency(linear(1, 0), 5)
        assert out.kind is OrbitKind.CYCLE and out.cycle_witness == (0, (5,))

    def test_identity_at_zero(self):
        out = decide_nilpotency(linear(1, 0), 0)
        assert out.kind is OrbitKind.REACHED_ZERO and out.index == 1

    def test_constant_polynomials(self):
        out = decide_nilpotency(Polynomial((7,)), 3)
        assert out.kind is OrbitKind.CYCLE and out.cycle_witness == (1, (7,))
        out = decide_nilpotency(Polynomial((7,)), 7)
        assert out.cycle_witness == (0, (7,))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            decide_nilpotency(Polynomial(), 1)

    def test_exhausted_under_tiny_step_budget(self):
        # x^2-2 at 0 cycles at step 3; a 2-step budget cannot prove anything
        out = decide_nilpotency(parse_poly("x^2-2"), 0, max_steps=2)
        assert out.kind is OrbitKind.EXHAUSTED

    def test_cycle_soundness(self):
        for text, r in [("-x+5", 2), ("x^2-2", 0), ("x^2-1", -1), ("4x-2", 0)]:
            u = parse_poly(text)
            out = decide_nilpotency(u, r)
            if out.kind is not OrbitKind.CYCLE:
                continue
            _, cycle = out.cycle_witness
            assert len(set(cycle)) == len(cycle)
            assert 0 not in cycle
            for value, successor in zip(cycle, cycle[1:] + cycle[:1]):
                assert u(value) == successor

    def test_escape_monotone_afterwards(self):
        import random

        fixed = [("x^2+1", 1), ("-2x^2+7x-3", 4), ("3x-7", 5), ("x^3-2", 2)]
        rng = random.Random(42)
        random_cases = []
        while len(random_cases) < 20:
            coeffs = [rng.randint(-5, 5) for _ in range(2)]
            coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
            random_cases.append((Polynomial(coeffs), rng.randint(-8, 8)))
        escaped = 0
        for u, r in [(parse_poly(t), r) for t, r in fixed] + random_cases:
            out = decide_nilpotency(u, r)
            if out.kind is not OrbitKind.ESCAPED:
                continue
            escaped += 1
            _, value, bound = out.escape_data
            assert abs(value) >= bound
            x = value
            for _ in range(10):
                nxt = u(x)
                assert abs(nxt) > abs(x)
                x = nxt
        assert escaped >= len(fixed)

    def test_minimality_of_reported_index(self):
        for text, r in [("-x^3+9x^2-25x+25", 2), ("x^2-5x+6", 1), ("x-1", 7)]:
            u = parse_poly(text)
            out = decide_nilpotency(u, r)
            assert out.kind is OrbitKind.REACHED_ZERO
            x = r
            for step in range(1, out.index):
                x = u(x)
                assert x != 0
            assert u(x) == 0


class TestSlopeOneClosedForms:
    def test_descending_hits_zero(self):
        out = decide_nilpotency(linear(1, -1), 7)
        assert out.kind is OrbitKind.REACHED_ZERO and out.index == 7

    def test_shift_at_zero_never_hits(self):
        assert nilpotency_index(linear(1, 1), 0) is None

    def test_non_dividing_shift_escapes(self):
        out = decide_nilpotency(linear(1, 3), -10)
        assert out.kind is OrbitKind.ESCAPED
        step, value, bound = out.escape_data
        assert value == -10 + 3 * step and abs(value) == bound
        # iterates past the reported step strictly grow in absolute value
        x = value
        for _ in range(10):
            nxt = x + 3
            assert abs(nxt) > abs(x)
            x = nxt

    def test_slope_minus_one_index_two(self):
        out = decide_nilpotency(linear(-1, 7), 0)
        assert out.kind is OrbitKind.REACHED_ZERO and out.index == 2

    def test_slope_minus_one_index_one(self):
        out = decide_nilpotency(linear(-1, 7), 7)
        assert out.kind is OrbitKind.REACHED_ZERO and out.index == 1

    def test_slope_minus_one_fixed_point(self):
        out = decide_nilpotency(linear(-1, 4), 2)
        assert out.kind is OrbitKind.CYCLE and out.cycle_witness == (0, (2,))


class TestNilpotencyIndex:
    def test_known_indices(self):
        assert nilpotency_index(linear(-2, 4), 1) == 2
        assert nilpotency_index(linear(1, -1), 7) == 7
        assert nilpotency_index(linear(1, 1), 0) is None

    def test_exhausted_raises(self):
        with pytest.raises(UndecidedError):
            nilpotency_index(parse_poly("x^2-2"), 0, max_steps=2)

    def test_paper_fixture_family(self):
        # -(r+1)x + (r+1)^2 is nilpotent of index 2 at r, for r != -1
        for r in [-5, -3, 0, 1, 2, 4, 9]:
            u = linear(-(r + 1), (r + 1) ** 2)
            assert nilpotency_index(u, r) == 2
        # -2x + 4r is nilpotent of index 2 at r, for r != 0
        for r in [-4, -1, 1, 3, 8]:
            assert nilpotency_index(linear(-2, 4 * r), r) == 2


@given(
    st.builds(Polynomial, st.lists(st.integers(-5, 5), min_size=1, max_size=3)),
    st.integers(-5, 5),
)
@settings(max_examples=150)
def test_difference_divisibility(u, r):
    """d_n = u^(n+1)(r) - u^(n)(r) divides d_(n+1); a zero difference stays
    zero forever (the orbit has hit a fixed point)."""
    if u.is_zero():
        return
    values = [r]
    for _ in range(12):
        values.append(u(values[-1]))
    diffs = [b - a for a, b in zip(values, values[1:])]
    for d, d_next in zip(diffs, diffs[1:]):
        if d == 0:
            assert d_next == 0
        else:
            assert d_next % d == 0


def test_index_two_structure_at_zero():
    """Any polynomial nilpotent at 0 with nonzero constant term has index
    exactly 2, over the degree <= 3, |coeff| <= 5 box."""
    from itertools import product

    seen_index_two = 0
    for vec in product(range(-5, 6), repeat=4):
        if not any(vec):
            continue
        u = Polynomial(vec)
        if u.constant == 0:
            continue
        out = decide_nilpotency(u, 0)
        if out.kind is OrbitKind.REACHED_ZERO:
            assert out.index == 2, f"{u} has index {out.index}"
            seen_index_two += 1
    assert seen_index_two > 50


class TestCapsBelowOne:
    """A step or bit cap below 1 is refused up front by every library entry
    point that takes one, also where no orbit would be decided (r in
    {-1, 0, 1} has closed-form catalogs)."""

    @staticmethod
    def _entry_points(r):
        u = linear(2, 6)
        return {
            "decide_nilpotency": lambda **caps: decide_nilpotency(u, r, **caps),
            "classify": lambda **caps: classify(u, r, **caps),
            "verify_theorem": lambda **caps: verify_theorem(
                SearchSpace(1, 1, r, prime_bound=20), **caps),
            "explore_N_of_u": lambda **caps: explore_N_of_u(u, 0, **caps),
            "explore_LN_of_u": lambda **caps: explore_LN_of_u(u, 0, 20, **caps),
        }

    @pytest.mark.parametrize("r", [-1, 0, 1, 6])
    @pytest.mark.parametrize("name", ["decide_nilpotency", "classify",
                                      "verify_theorem", "explore_N_of_u",
                                      "explore_LN_of_u"])
    @pytest.mark.parametrize("caps", [{"max_steps": -5}, {"max_steps": 0},
                                      {"max_bits": 0}, {"max_bits": -1}])
    def test_refused(self, r, name, caps):
        (cap, value), = caps.items()
        with pytest.raises(ValueError, match=f"{cap} must be >= 1, got {value}"):
            self._entry_points(r)[name](**caps)

    @pytest.mark.parametrize("name", ["decide_nilpotency", "classify",
                                      "verify_theorem", "explore_N_of_u",
                                      "explore_LN_of_u"])
    def test_a_cap_of_one_is_accepted(self, name):
        self._entry_points(6)[name](max_steps=1, max_bits=1)

    def test_refused_before_the_other_arguments_are_checked(self, monkeypatch):
        monkeypatch.setattr("polyorbit.verify.CANDIDATE_BUDGET_DEFAULT", 10)
        u = linear(2, 6)
        calls = [
            lambda **caps: verify_theorem(SearchSpace(2, 9, 6), **caps),
            lambda **caps: explore_N_of_u(u, -1, **caps),
            lambda **caps: explore_LN_of_u(u, -1, 20, **caps),
        ]
        for call in calls:
            with pytest.raises((ValueError, BudgetExceededError)) as plain:
                call()
            assert "max_steps" not in str(plain.value)
            with pytest.raises(ValueError, match="max_steps must be >= 1"):
                call(max_steps=0)


def _seen_loop(u, r, *, max_steps=MAX_STEPS_DEFAULT, max_bits=MAX_BITS_DEFAULT):
    """Reference: the search over Z that keeps every orbit value in a dict
    and reads a cycle back from it, with no use of the period bound. It
    applies where decide_nilpotency searches: degree >= 2, or a linear map
    of |slope| >= 2."""
    bound = escape_bound(u).bound
    seen = {r: 0}  # the orbit so far, in insertion order
    x = r
    for n in range(1, max_steps + 1):
        x = u(x)
        if x == 0:
            return OrbitOutcome(OrbitKind.REACHED_ZERO, n, n)
        if abs(x) >= bound:
            return OrbitOutcome(OrbitKind.ESCAPED, n, None, None, (n, x, bound))
        if x.bit_length() > max_bits:
            return OrbitOutcome(OrbitKind.EXHAUSTED, n)
        hit = seen.get(x)
        if hit is not None:
            return OrbitOutcome(OrbitKind.CYCLE, n, None, (hit, tuple(seen)[hit:]))
        seen[x] = n
    return OrbitOutcome(OrbitKind.EXHAUSTED, max_steps)


def _searched_maps(degree, coeff_bound):
    """Every map of degree <= degree with |c| <= coeff_bound that
    decide_nilpotency decides by its search, not in closed form."""
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=degree + 1):
        u = Polynomial(coeffs)
        if (u.degree or 0) >= 2 or (u.degree == 1 and abs(u.lead) >= 2):
            yield u


class TestAgainstTheSeenLoop:
    """decide_nilpotency compares each value with the last two only; the
    period bound says nothing else can repeat first. Every field of every
    outcome must equal the plain seen-dict search's."""

    @pytest.mark.parametrize("caps", [{}, {"max_steps": 1}, {"max_steps": 3}],
                             ids=["default-caps", "max-steps-1", "max-steps-3"])
    def test_every_small_map(self, caps):
        compared = 0
        for u in _searched_maps(3, 3):
            for r in range(-8, 9):
                assert decide_nilpotency(u, r, **caps) == _seen_loop(u, r, **caps), (u, r)
                compared += 1
        assert compared > 30_000

    @pytest.mark.parametrize("text, r, witness, steps", [
        ("-x^2", -1, (0, (-1,)), 1),           # a fixed point at r
        ("x^2-x-1", -1, (0, (-1, 1)), 2),      # a 2-cycle through r
        ("x^2-2", 0, (2, (2,)), 3),            # 0 -> -2 -> 2 -> 2
        ("x^2-x-1", 2, (1, (1, -1)), 3),       # 2 -> 1 -> -1 -> 1
    ], ids=["fixed-point-at-r", "two-cycle-through-r", "tail-into-fixed-point",
            "tail-into-two-cycle"])
    def test_hand_picked_cycles(self, text, r, witness, steps):
        u = parse_poly(text)
        want = OrbitOutcome(OrbitKind.CYCLE, steps, None, witness)
        assert decide_nilpotency(u, r) == want == _seen_loop(u, r)
