"""Godel algebra over exact rationals: connectives, finite truth sets, embeddings."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

ZERO = Fraction(0)
ONE = Fraction(1)

# CPython converts an int of at most 4300 digits to text by default
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS


def parse_rational(text: str, *, unit: bool = True) -> Fraction:
    """Parse a value in [0, 1] as Fraction reads the stripped text: "n/d"
    (lowest terms not required on input), an integer, a decimal or an
    exponent.  The range check reads the numerator and the denominator,
    which is always positive, so no Fraction comparison runs; with unit
    False it is left to the caller.

    An exponent beyond 4300 in absolute value is a bad literal, refused
    before Fraction computes 10**e (6.6 s at e = 7 * 10**6 on a 2-vCPU
    Xeon), and so is a denominator of more than 4300 digits, which
    format_rational could not print: "1e-4299" is read, "1e-4300" is not.
    A short "n" or "n/d" in ASCII digits is read as the two integers
    Fraction's grammar reads there, without its regex."""
    num, slash, den = text.partition("/")
    try:
        if "e" in text or "E" in text:
            # at most 4 significant digits, so int() never reads a long string
            digits = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
            if len(digits.lstrip("0")) > 4 or int(digits) > _MAX_DIGITS:
                raise ValueError("exponent out of bounds")
        plain = len(text) < 20 and text.isascii() and num.isdigit() and (den.isdigit() or not slash)
        value = Fraction(int(num), int(den or 1)) if plain else Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc
    numerator, denominator = value.as_integer_ratio()
    if unit and not 0 <= numerator <= denominator:
        raise ValueError(f"rational {text!r} outside [0, 1]")
    if denominator >= _TOO_LONG:
        raise ValueError(f"bad rational literal {text!r}")
    return value


def _rational(raw: object) -> Fraction:
    """A constructor argument as a Fraction: a Fraction as it is, a string
    through parse_rational's grammar and bounds, anything else through
    Fraction.  The caller checks the range."""
    if type(raw) is Fraction:
        return raw
    return parse_rational(raw, unit=False) if isinstance(raw, str) else Fraction(raw)


def _rank_codes(values: Iterable[Fraction]) -> tuple[list[Fraction], dict[tuple[int, int], int]]:
    """Rank-code values in [0, 1]: the sorted table of the distinct values
    with 0 and 1 (code i stands for table[i], so code 0 is 0 and the last
    code is 1), and a map from each value's as_integer_ratio() to its code.
    Integer pairs hash in C; a Fraction hashes in Python.

    The coding is an order embedding into the integers, so anything that
    reads only the order of values (min, max, the order test of Godel
    implication, rounding into a truth set) decides on codes what it
    decides on the Fractions.

    No value ever becomes a float: a float is only the sort key.  For
    integers n and d, n / d is correctly rounded, and rounding to nearest is
    monotone, so x < y gives float(x) <= float(y) and the float order is
    the exact order except among equal floats.  If two values have equal
    floats, which makes them neighbours, all are sorted again exactly, as
    1/3 and 10**40 / (3 * 10**40 + 1) are, or 0 and 1e-4299, whose float
    is 0.0."""
    exact = {value.as_integer_ratio(): value for value in values}
    exact[0, 1] = ZERO
    exact[1, 1] = ONE
    keys = {pair: pair[0] / pair[1] for pair in exact}
    pairs = sorted(keys, key=keys.__getitem__)
    if len(set(keys.values())) < len(pairs):
        pairs.sort(key=exact.__getitem__)
    return [exact[pair] for pair in pairs], {pair: i for i, pair in enumerate(pairs)}


def format_rational(value: Fraction) -> str:
    """Render a rational as "n/d" in lowest terms, or "0"/"1"-style bare integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class TruthSet:
    """Finite set of truth values containing 0 and 1, kept sorted ascending."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[Fraction | int | str]) -> None:
        # Fraction members are kept as they are; the checks read numerators
        # and denominators (always positive), so no Fraction comparison runs
        vals = sorted({_rational(v) for v in values})
        if vals and (vals[0].numerator < 0 or vals[-1].numerator > vals[-1].denominator):
            raise ValueError("truth set values must lie in [0, 1]")
        if not vals or vals[0].numerator != 0 or vals[-1].numerator != vals[-1].denominator:
            raise ValueError("truth set must contain 0 and 1")
        object.__setattr__(self, "values", tuple(vals))

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: object) -> bool:
        return value in self.values


def round_down(ts: TruthSet, v: Fraction) -> Fraction:
    """Largest member of ts that is <= v."""
    if not ZERO <= v <= ONE:
        raise ValueError(f"value {v} outside [0, 1]")
    return ts.values[bisect_right(ts.values, v) - 1]


def round_up(ts: TruthSet, v: Fraction) -> Fraction:
    """Smallest member of ts that is >= v."""
    if not ZERO <= v <= ONE:
        raise ValueError(f"value {v} outside [0, 1]")
    return ts.values[bisect_left(ts.values, v)]


@dataclass(frozen=True)
class OrderEmbedding:
    """Piecewise-linear strictly increasing bijection of [0, 1] onto itself.

    Breakpoints are (input, output) pairs; the first must be (0, 0) and the
    last (1, 1), with both coordinates strictly increasing in between.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, breakpoints: Iterable[tuple[Fraction | int | str, Fraction | int | str]]) -> None:
        pts = tuple((_rational(x), _rational(y)) for x, y in breakpoints)
        if len(pts) < 2 or pts[0] != (ZERO, ZERO) or pts[-1] != (ONE, ONE):
            raise ValueError("breakpoints must run from (0, 0) to (1, 1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 >= x1 or y0 >= y1:
                raise ValueError("breakpoint coordinates must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)


def _embedding(h: OrderEmbedding) -> Callable[[Fraction], Fraction]:
    """h as a function on [0, 1]: each segment's line y = (a x + b) / c is
    put in integers once, and each distinct value x = n / d, keyed by n and
    d, is range-checked and mapped once, to Fraction(a n + b d, c d).  From
    (p0/q0, r0/s0) to (p1/q1, r1/s1), with e = r1 s0 - r0 s1 and
    f = p1 q0 - p0 q1 > 0, a = e q0 q1, b = r0 s1 f - e q1 p0, c = s0 s1 f."""
    pts = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in h.breakpoints]
    inner = [x for x, _ in h.breakpoints[1:-1]]
    lines = []
    for ((p0, q0), (r0, s0)), ((p1, q1), (r1, s1)) in zip(pts, pts[1:]):
        e, f = r1 * s0 - r0 * s1, p1 * q0 - p0 * q1
        lines.append((e * q0 * q1, r0 * s1 * f - e * q1 * p0, s0 * s1 * f))
    images: dict[tuple[int, int], Fraction] = {}

    def image(v: Fraction) -> Fraction:
        key = v.as_integer_ratio()
        y = images.get(key)
        if y is None:
            n, d = key
            if not 0 <= n <= d:
                raise ValueError(f"value {v} outside [0, 1]")
            a, b, c = lines[bisect_right(inner, v)]
            y = images[key] = Fraction(a * n + b * d, c * d)
        return y

    return image


def apply_embedding(h: OrderEmbedding, v: Fraction) -> Fraction:
    """Evaluate h at v by exact linear interpolation between breakpoints;
    raises ValueError if v lies outside [0, 1].  One value through the same
    prepared map that transport builds once per model."""
    return _embedding(h)(v)
