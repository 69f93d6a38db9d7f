"""Exact rational arithmetic used everywhere in the core.

Rational is fractions.Fraction and the module's one constructor: the
package builds every rational with Rational(...). It does not sit in
the LP, which takes ints only, or in the certificate checks:
int_multiple turns a list of rationals into Python ints (times the lcm
of its denominators) for a market's price scale, both certificate
verifiers and the tests of state probabilities (sums_to_one, and
FiniteSpace's positivity and sum) alike.
The free-lunch oracle reads its few LP coefficients with
as_integer_ratio itself.
parse_rational accepts a literal on one path, of str builtins (partition,
strip, isascii, isdigit) and int(); the code after it only words a
rejection, and always raises.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction as Rational

ZERO = Rational(0)


def int_multiple(values, scale: int | None = None) -> tuple[list[int], int]:
    """Rationals (or ints) times scale, as Python ints, and scale. The
    scale defaults to the lcm of their denominators (1 for no values); a
    given scale must be a multiple of each denominator."""
    pairs = [v.as_integer_ratio() for v in values]
    if scale is None:
        scale = math.lcm(*[d for _, d in pairs])
    return [n * (scale // d) for n, d in pairs], scale


def sums_to_one(values) -> bool:
    """True iff the rationals (or ints) sum to exactly 1: their int
    multiples sum to the scale."""
    ints, scale = int_multiple(values)
    return sum(ints) == scale


def parse_rational(text: str) -> Rational:
    """Parse a "p/q" (or bare "p") string of ASCII digits, each side with an
    optional sign and surrounding whitespace; rejects floats, "_" digit
    separators, non-ASCII digits and empty input.

    A literal is accepted on str builtins only: each side, stripped and
    with its sign off, must be ASCII digits that int() reads. Everything
    after that accept path words the rejection, and always raises."""
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        num = num.strip()
        digits = num[1:] if num[:1] in ("+", "-") else num
        if digits.isdigit() and digits.isascii():
            try:
                if not slash:
                    return Rational(int(num))
                den = den.strip()
                digits = den[1:] if den[:1] in ("+", "-") else den
                if digits.isdigit() and digits.isascii():
                    return Rational(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                pass  # q = 0, or a side past int()'s digit limit: worded below
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"expected a rational string, got {text!r}")
    if "." in text or "e" in text.lower():
        raise ValueError(f"rationals must be exact p/q strings, got {text!r}")
    sides = text.split("/", 1)
    for part in sides:
        part = part.strip()
        digits = part[1:] if part[:1] in ("+", "-") else part
        # int() alone would also take "_" separators and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad rational literal {text!r}: expected ASCII digits with an optional sign")
        try:
            int(digits)
        except ValueError:
            raise ValueError(f"rational literal too long: {too_many_digits(len(digits))}") from None
    # both sides read, so only q = 0 is left; worded as Fraction(p, 0) words it
    raise ValueError(f"bad rational literal {text!r}: Fraction({int(sides[0])}, 0)")


def too_many_digits(count: int) -> str:
    """Why int() refuses a run of count decimal digits."""
    return f"{count} digits, over the limit of {sys.get_int_max_str_digits()} for an integer read from text"


def format_rational(value) -> str:
    """Canonical "p/q" form (bare "p" for integers); inverse of parse_rational."""
    return str(value) if type(value) is Rational else str(Rational(value))
