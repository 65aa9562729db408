"""Dense integer polynomials: parsing, printing, evaluation, composition,
and the two structural transforms (negate-conjugate, base-point reduction)
that the orbit machinery is built on.

A polynomial is a tuple of arbitrary-precision coefficients, constant term
first, with no stored trailing zeros. The empty tuple is the zero
polynomial, which has no degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

DEGREE_MAX = 10**4


class PolynomialSyntaxError(ValueError):
    """Raised by parse_poly; carries the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ReductionError(ValueError):
    """reduce_at called with a base point that the transform does not admit."""


@dataclass(frozen=True, init=False)
class Polynomial:
    """An element of Z[x], canonical (no trailing zero coefficients).

    Polynomial([-3, 7, -2]) is -2x^2+7x-3. Values are immutable and every
    operation is pure, so instances are safe to share across threads.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of_ints(cls, vec: tuple[int, ...]) -> "Polynomial":
        """Polynomial(vec) for a tuple of ints the caller vouches for: no
        int() per coefficient, and trailing zeros dropped by index."""
        n = len(vec)
        while n and not vec[n - 1]:
            n -= 1
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", vec[:n])
        return self

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant(self) -> int:
        """The constant term u(0)."""
        return self.coeffs[0] if self.coeffs else 0

    @property
    def lead(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    # -- evaluation and composition ----------------------------------------

    def evaluate(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)), exact; degrees multiply when both are nonconstant."""
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    # -- transforms ----------------------------------------------------------

    def negate_conjugate(self) -> "Polynomial":
        """v(x) = -u(-x): swaps orbit behavior at r with behavior at -r.

        An involution; even-power coefficients flip sign.
        """
        return Polynomial(
            (c if i % 2 else -c) for i, c in enumerate(self.coeffs)
        )

    def reduce_at(self, r: int) -> "Polynomial":
        """v(x) = u(r*x)/r, moving the base point from r to 1.

        Requires r >= 1 and r | u(0); then all coefficients of v are exact
        integers and r * v^(n)(1) = u^(n)(r) for every n.
        """
        if r < 1:
            raise ReductionError(f"reduction needs r >= 1, got {r}")
        c0 = self.constant
        if c0 % r != 0:
            raise ReductionError(f"r={r} does not divide the constant term {c0}")
        if self.is_zero():
            return self
        return Polynomial(  # a zero coefficient costs no power of r
            [c0 // r] + [c and c * r ** (i - 1) for i, c in enumerate(self.coeffs) if i >= 1]
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        oc = other.coeffs if isinstance(other, Polynomial) else (int(other),)
        a, b = self.coeffs, oc
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(
            [x + y for x, y in zip(a, b)] + list(a[len(b):])
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-other if isinstance(other, Polynomial) else -int(other))

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder within Z[x].

        Raises ValueError when a leading-coefficient division is inexact
        (the quotient would leave Z[x]); always safe for monic divisors.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = Polynomial(), self
        while not r.is_zero() and r.degree >= divisor.degree:
            lead, rem = divmod(r.coeffs[-1], divisor.coeffs[-1])
            if rem:
                raise ValueError(
                    f"{r.coeffs[-1]} not divisible by {divisor.coeffs[-1]}; "
                    "quotient leaves Z[x]"
                )
            shift = r.degree - divisor.degree
            term = Polynomial((0,) * shift + (lead,))
            q = q + term
            r = r - term * divisor
        return q, r

    def divides(self, other: "Polynomial") -> bool:
        """True when self divides other exactly in Z[x]."""
        try:
            _, rem = divmod(other, self)
        except ValueError:
            return False
        return rem.is_zero()

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        """Canonical form: descending powers, explicit signs, no unit
        coefficients, no spaces ("-2x^2+7x-3")."""
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                coeff = "" if mag == 1 else str(mag)
                body = f"{coeff}x" if i == 1 else f"{coeff}x^{i}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f'Polynomial("{self}")'


def linear(a: int, b: int) -> Polynomial:
    """The polynomial a*x + b."""
    return Polynomial((b, a))


_INT_RE = re.compile(r"[+-]?\d+")
_WS_RE = re.compile(r"\s*")


def parse_poly(text: str) -> Polynomial:
    """Parse either grammar into a canonical Polynomial.

    * Coefficient list: "c0,c1,...,cd" (constant term first). A bare
      integer with no comma and no variable is a constant.
    * Expression: signed integer-coefficient monomials in the single
      variable x with ^ powers, e.g. "-2x^2+7x-3", "x", "-x^2+1".
      Whitespace is allowed between tokens; coefficients 1/-1 may be
      implicit. An exponent above DEGREE_MAX is refused before any
      coefficient list is built, since the list is dense.

    Both spellings of the same polynomial parse to equal values.
    """
    if not text or not text.strip():
        raise PolynomialSyntaxError("empty polynomial", 0)
    if "," in text or "x" not in text:
        return _parse_coeff_list(text)
    return _parse_expression(text)


def _coefficient(digits: str, pos: int) -> int:
    """int(digits), with Python's digit-count limit on integer conversion
    reported as a syntax error at pos."""
    try:
        return int(digits)
    except ValueError:
        raise PolynomialSyntaxError(
            f"coefficient of {len(digits.lstrip('+-'))} digits exceeds the "
            "integer conversion limit", pos
        ) from None


def _parse_coeff_list(text: str) -> Polynomial:
    coeffs = []
    offset = 0
    for token in text.split(","):
        stripped = token.strip()
        pos = offset + token.index(stripped) if stripped else offset
        if not _INT_RE.fullmatch(stripped or ""):
            raise PolynomialSyntaxError(
                f"non-integer coefficient {stripped!r}", pos
            )
        coeffs.append(_coefficient(stripped, pos))
        offset += len(token) + 1
    return Polynomial(coeffs)


def _expression_terms(text: str) -> Iterator[tuple[int, int]]:
    """Yield (exponent, signed coefficient) pairs; positions in errors."""
    pos = _WS_RE.match(text).end()
    first = True
    n = len(text)
    while pos < n:
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = _WS_RE.match(text, pos + 1).end()
        elif not first:
            raise PolynomialSyntaxError(f"expected + or - before {text[pos]!r}", pos)
        first = False

        m = re.compile(r"\d+").match(text, pos)
        coeff = None
        if m:
            coeff = _coefficient(m.group(), pos)
            pos = _WS_RE.match(text, m.end()).end()
        exponent = 0
        if pos < n and text[pos] == "x":
            pos = _WS_RE.match(text, pos + 1).end()
            exponent = 1
            if pos < n and text[pos] == "^":
                pos = _WS_RE.match(text, pos + 1).end()
                m = re.compile(r"\d+").match(text, pos)
                if not m:
                    raise PolynomialSyntaxError("expected a nonnegative integer exponent after ^", pos)
                digits = m.group().lstrip("0") or "0"
                # the length test keeps int() off digit strings it refuses
                if len(digits) > len(str(DEGREE_MAX)) or int(digits) > DEGREE_MAX:
                    raise PolynomialSyntaxError(
                        f"exponent exceeds the degree budget of {DEGREE_MAX}", pos
                    )
                exponent = int(digits)
                pos = _WS_RE.match(text, m.end()).end()
            if coeff is None:
                coeff = 1
        elif coeff is None:
            raise PolynomialSyntaxError(
                f"expected a term, found {text[pos]!r}" if pos < n else "expected a term",
                pos,
            )
        yield exponent, sign * coeff


def _parse_expression(text: str) -> Polynomial:
    acc: dict[int, int] = {}
    for exponent, coeff in _expression_terms(text):
        acc[exponent] = acc.get(exponent, 0) + coeff
    if not acc:
        raise PolynomialSyntaxError("empty polynomial", 0)
    top = max(acc)
    return Polynomial(acc.get(i, 0) for i in range(top + 1))
