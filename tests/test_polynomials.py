"""Parsing, printing, evaluation, composition, and the two transforms."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from polyorbit import (
    Polynomial,
    PolynomialSyntaxError,
    ReductionError,
    linear,
    parse_poly,
)
from polyorbit.polynomials import DEGREE_MAX

polys = st.builds(Polynomial, st.lists(st.integers(-9, 9), max_size=5))
small_polys = st.builds(Polynomial, st.lists(st.integers(-9, 9), max_size=4))


class TestParse:
    def test_expression_example(self):
        assert parse_poly("-2x^2+7x-3").coeffs == (-3, 7, -2)

    def test_zero(self):
        u = parse_poly("0")
        assert u.is_zero() and u.degree is None

    def test_cancellation_to_constant(self):
        u = parse_poly("x^3 - x^3 + 5")
        assert u.coeffs == (5,) and u.degree == 0

    def test_coefficient_list(self):
        assert parse_poly("-3,7,-2") == parse_poly("-2x^2+7x-3")
        assert parse_poly(" -3 , 7 , -2 ") == parse_poly("-2x^2+7x-3")

    def test_bare_integer_is_constant(self):
        assert parse_poly("-17").coeffs == (-17,)

    @pytest.mark.parametrize(
        "text",
        ["x", "-x", "+x^2", "3x", "-x^2 + 1", "x^10", "2x^3-x", "- 4 x ^ 2"],
    )
    def test_expression_forms(self, text):
        parse_poly(text)  # must not raise

    def test_implicit_units(self):
        assert parse_poly("x").coeffs == (0, 1)
        assert parse_poly("-x^2").coeffs == (0, 0, -1)

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_rejected(self, text):
        with pytest.raises(PolynomialSyntaxError):
            parse_poly(text)

    def test_syntax_error_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_poly("2x^2+*3")
        assert err.value.position == 5

    @pytest.mark.parametrize("text", ["x^", "x^-2", "2x+", "x y", "2..5"])
    def test_malformed_rejected(self, text):
        with pytest.raises(PolynomialSyntaxError):
            parse_poly(text)

    def test_exponent_at_the_degree_budget_accepted(self):
        assert parse_poly("x^10000").degree == DEGREE_MAX == 10000

    @pytest.mark.parametrize("text", ["x^10001", "x^1000000000", "x^" + "9" * 5000])
    def test_exponent_over_the_degree_budget_refused(self, text, small_peak):
        with pytest.raises(PolynomialSyntaxError, match="degree budget") as err:
            parse_poly(text)
        assert err.value.position == 2

    @pytest.mark.parametrize("text, position", [
        ("1" * 5000 + "x", 0), ("1," + "2" * 5000, 2), ("x+" + "3" * 5000, 2),
        ("x - " + "4" * 5000 + "x^2", 4),
    ], ids=["leading-term", "coefficient-list", "constant-term", "inner-term"])
    def test_oversized_coefficient_refused_at_its_position(self, text, position):
        with pytest.raises(PolynomialSyntaxError, match="5000 digits") as err:
            parse_poly(text)
        assert err.value.position == position

    def test_non_integer_coefficient(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_poly("1,2.5,3")
        assert "non-integer" in str(err.value)


class TestPrint:
    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ((), "0"),
            ((5,), "5"),
            ((-5,), "-5"),
            ((0, 1), "x"),
            ((0, -1), "-x"),
            ((1, 1), "x+1"),
            ((-3, 7, -2), "-2x^2+7x-3"),
            ((0, 0, 2), "2x^2"),
            ((4, 0, 0, -1), "-x^3+4"),
        ],
    )
    def test_canonical_form(self, coeffs, text):
        assert str(Polynomial(coeffs)) == text

    @given(polys)
    def test_round_trip_from_canonical_print(self, u):
        assert parse_poly(str(u)) == u

    @given(st.lists(st.integers(-99, 99), min_size=1, max_size=6))
    def test_round_trip_from_coefficient_list(self, coeffs):
        text = ",".join(map(str, coeffs))
        u = parse_poly(text)
        assert parse_poly(str(u)) == u


class TestEvaluate:
    def test_paper_values(self):
        u = parse_poly("-2x^2+7x-3")
        assert u(1) == 2 and u(2) == 3 and u(3) == 0

    def test_zero_poly_everywhere_zero(self):
        assert Polynomial()(10**9) == 0

    def test_degree_three_value(self):
        assert parse_poly("-x^3+9x^2-25x+25")(2) == 3

    @given(small_polys, small_polys, st.integers(-50, 50))
    def test_compose_evaluate_homomorphism(self, u, v, x):
        assert u.compose(v)(x) == u(v(x))


class TestCompose:
    def test_shift_composes_to_shift(self):
        s = linear(1, 1)
        assert s.compose(s) == linear(1, 2)

    def test_identity_right_unit(self):
        u = parse_poly("3x^3-2x+1")
        assert u.compose(Polynomial((0, 1))) == u

    def test_involution_of_minus_x_plus_b(self):
        u = linear(-1, 5)
        assert u.compose(u) == Polynomial((0, 1))

    def test_degrees_multiply(self):
        u, v = parse_poly("x^2+1"), parse_poly("2x^3-x")
        assert u.compose(v).degree == 6

    @given(
        st.builds(Polynomial, st.lists(st.integers(-9, 9), max_size=4)),
        st.builds(Polynomial, st.lists(st.integers(-9, 9), max_size=4)),
        st.builds(Polynomial, st.lists(st.integers(-9, 9), max_size=4)),
    )
    def test_associativity(self, u, v, w):
        assert u.compose(v).compose(w) == u.compose(v.compose(w))


class TestNegateConjugate:
    def test_paper_example(self):
        assert parse_poly("-2x^2+7x-3").negate_conjugate() == parse_poly("2x^2+7x+3")

    def test_shift(self):
        assert linear(1, 1).negate_conjugate() == linear(1, -1)

    def test_zero(self):
        assert Polynomial().negate_conjugate().is_zero()

    @given(polys)
    def test_involution(self, u):
        assert u.negate_conjugate().negate_conjugate() == u


class TestReduceAt:
    def test_linear_example(self):
        assert parse_poly("-2x-6").reduce_at(6) == parse_poly("-2x-1")

    def test_identity_fixed(self):
        x = Polynomial((0, 1))
        for r in (1, 2, 7):
            assert x.reduce_at(r) == x

    def test_quadratic_value(self):
        # brute-force check below pins this; the transform is u(r*x)/r
        assert parse_poly("4x^2-4x").reduce_at(2) == parse_poly("8x^2-4x")

    def test_quadratic_orbit_identity(self):
        u = parse_poly("4x^2-4x")
        v = u.reduce_at(2)
        xu, xv = 2, 1
        for _ in range(5):
            xu, xv = u(xu), v(xv)
            assert 2 * xv == xu

    @pytest.mark.parametrize("r", [0, -1, -6])
    def test_nonpositive_r_rejected(self, r):
        with pytest.raises(ReductionError):
            parse_poly("2x+4").reduce_at(r)

    def test_nondividing_r_rejected(self):
        with pytest.raises(ReductionError):
            parse_poly("2x+3").reduce_at(2)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.integers(1, 12),
        st.integers(-5, 5),
    )
    def test_integrality_whenever_defined(self, high, r, k):
        u = Polynomial([r * k] + high)
        v = u.reduce_at(r)
        assert all(isinstance(c, int) for c in v.coeffs)
        assert v.degree == u.degree
        assert r * v(1) == u(r)


class TestArithmetic:
    def test_divmod_exact(self):
        u = parse_poly("x^2-1")
        q, rem = divmod(u, linear(1, 1))
        assert q == linear(1, -1) and rem.is_zero()

    def test_divmod_remainder(self):
        q, rem = divmod(parse_poly("x^2+1"), linear(1, -1))
        assert q == linear(1, 1) and rem == Polynomial((2,))

    def test_divmod_nonmonic_inexact_raises(self):
        with pytest.raises(ValueError):
            divmod(parse_poly("x^2+1"), parse_poly("2x"))

    def test_divides(self):
        assert linear(1, -1).divides(parse_poly("x^2-1"))
        assert not linear(1, -1).divides(parse_poly("x^2+1"))


def test_of_ints_matches_the_constructor():
    """The private constructor the search box uses, on every vector of a
    degree-3, |c| <= 2 box (the all-zero vector too)."""
    for vec in product(range(-2, 3), repeat=4):
        u, expected = Polynomial._of_ints(vec), Polynomial(vec)
        assert u == expected and hash(u) == hash(expected)
        assert type(u.coeffs) is tuple and u.coeffs == expected.coeffs
