import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from godelmodal import (
    ONE,
    ZERO,
    OrderEmbedding,
    PiGModel,
    RelationalModel,
    TruthSet,
    apply_embedding,
    evaluate,
    format_rational,
    parse,
    parse_rational,
    round_down,
    round_up,
)
from godelmodal.algebra import _rank_codes
from helpers import FLOAT_TIES, oracle_apply_embedding, oracle_parse_rational, random_tied_value


def rationals01():
    return st.builds(
        lambda n, d: Fraction(n, d) if n <= d else Fraction(d, n),
        st.integers(0, 24),
        st.integers(1, 24),
    )


def truth_sets():
    return st.builds(
        lambda extra: TruthSet([ZERO, ONE, *extra]),
        st.lists(
            st.builds(Fraction, st.integers(1, 11), st.just(12)),
            max_size=4,
        ),
    )


# -- rational parsing / formatting ----------------------------------------


def test_parse_rational_accepts_fractions_and_integers():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("1") == ONE
    assert parse_rational(" 0 ") == ZERO
    # the other forms the README lists for model files
    for text, value in [
        ("-0", ZERO),
        ("0.25", Fraction(1, 4)),
        ("5e-1", Fraction(1, 2)),
        ("0.5", Fraction(1, 2)),
        ("1E+0", ONE),
        (" 1/1 ", ONE),
    ]:
        assert parse_rational(text) == value
    # the largest exponent and denominator still read, and print
    tiny = parse_rational("1e-4299")
    assert tiny == Fraction(1, 10**4299)
    assert parse_rational(format_rational(tiny)) == tiny
    assert parse_rational("1" + "0" * 4299 + "e-4299") == ONE


@pytest.mark.parametrize(
    "bad",
    # the last six Fraction would read, but computing 10**e for a huge
    # exponent takes minutes, and a denominator of more than 4300 digits
    # cannot be printed
    ["x", "", "1/0", "3/2", "-1/4", "5",
     "1e-999999999", "1e-70000000", "0e999999999", "1e-5000", "1e-4300", "5e-4301"],
)
def test_parse_rational_rejects_garbage_and_out_of_range(bad):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_rational(bad)
    assert time.perf_counter() - start < 1


def _parsed(read, text: str) -> tuple:
    try:
        return "value", read(text)
    except ValueError as exc:
        return "error", str(exc)


def _oracle_unit(text: str, unit: bool) -> Fraction:
    # oracle_parse_rational, and with unit False Fraction's value where it
    # finds the literal out of range
    try:
        return oracle_parse_rational(text)
    except ValueError as exc:
        if unit or "outside" not in str(exc):
            raise
        return Fraction(text.strip())


@pytest.mark.parametrize("unit", [True, False])
def test_plain_literals_read_as_fraction_reads_them(unit):
    # parse_rational reads a short "n" or "n/d" in ASCII digits as integers,
    # without Fraction's regex; every text on either side of that path must
    # give Fraction's value or the same message: leading zeros, lowest terms
    # not given, 0/0 and out of range; 19 characters (read as integers), 20
    # and 4301 digits (read by Fraction); a space, a sign and an underscore;
    # "²", which str.isdigit admits and int refuses, and Arabic-Indic
    # digits, which Fraction reads
    long = "1" * 4301
    texts = [
        "007/010", "2/4", "0/0", "3/2", "0", "1", "5", "1/", "/2", "1/2/3",
        "0" * 18 + "1", "0" * 19 + "1", "1/" + "0" * 16 + "2", "1/" + "0" * 17 + "2",
        "9" * 19, "9" * 20, long, "1/" + long, "0" * 4300 + "1",
        " 1/2", "1/2 ", "-0", "+1", "1_0/20", "²", "1/²", "١/٢", "١",
    ]
    for text in texts:
        got = _parsed(lambda t: parse_rational(t, unit=unit), text)
        assert got == _parsed(lambda t: _oracle_unit(t, unit), text), text
    assert parse_rational("007/010", unit=unit) == Fraction(7, 10)
    assert parse_rational("١/٢", unit=unit) == Fraction(1, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda text: PiGModel(["a"], {"a": text}),
        lambda text: PiGModel(["a"], {"a": ONE}, {"a": {"p": text}}),
        lambda text: RelationalModel(["a"], {"a": {"a": text}}),
        lambda text: TruthSet(["0", "1", text]),
        lambda text: OrderEmbedding([("0", "0"), (text, "1/2"), ("1", "1")]),
        lambda text: OrderEmbedding([(ZERO, ZERO), ("1/2", text), (ONE, ONE)]),
    ],
    ids=["pi", "valuation", "R", "truth set", "embedding input", "embedding output"],
)
def test_constructors_read_strings_as_bounded_literals(build):
    # Fraction alone would spend minutes on the exponent, and a
    # "1e-5000" member could be built but never printed.
    for text in ("1e-999999999", "1e-5000", "x"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^bad rational literal '{text}'$"):
            build(text)
        assert time.perf_counter() - start < 1
    build("1e-4299")  # the smallest exponent still read


def test_rank_codes_order_values_exactly_through_float_ties():
    # the float sort key ties 1/3 with its near neighbours, 0 with 1e-4299
    # and 1 with values just below it; only the exact re-sort orders them
    assert 1 / 3 == float(FLOAT_TIES[1]) == float(FLOAT_TIES[2])
    assert float(FLOAT_TIES[3]) == 0.0 and float(FLOAT_TIES[4]) == float(FLOAT_TIES[5]) == 1.0
    rng = random.Random(1818)
    for _ in range(300):
        values = [random_tied_value(rng) for _ in range(rng.randint(0, 8))]
        table, code = _rank_codes(values)
        assert table == sorted({ZERO, ONE, *values})
        assert all(table[code[v.as_integer_ratio()]] == v for v in values)


def test_format_rational_lowest_terms():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(1)) == "1"
    assert format_rational(Fraction(4, 8)) == "1/2"


@given(rationals01())
def test_format_parse_round_trip(v):
    assert parse_rational(format_rational(v)) == v


# -- connectives, read off the evaluator on one world --------------------------


def value(text: str, **vals: Fraction) -> Fraction:
    """The value of a propositional formula at a one-world model."""
    return evaluate(PiGModel(["w"], {"w": ONE}, {"w": vals}), parse(text))[0]


def test_implication_table():
    assert value("p -> q", p=Fraction(1, 2), q=Fraction(1, 3)) == Fraction(1, 3)
    assert value("p -> q", p=Fraction(1, 3), q=Fraction(1, 2)) == ONE
    assert value("1 -> 0") == ZERO
    assert value("0 -> 0") == ONE


def test_negation_is_not_involutive():
    assert value("~0") == ONE
    assert value("~p", p=Fraction(1, 2)) == ZERO
    assert value("~~p", p=Fraction(1, 2)) == ONE  # 1 != 1/2


@given(rationals01(), rationals01(), rationals01())
def test_residuation(x, y, z):
    assert (min(x, z) <= y) == (z <= value("p -> q", p=x, q=y))


@given(rationals01(), rationals01())
def test_prelinearity(x, y):
    assert value("(p -> q) | (q -> p)", p=x, q=y) == ONE


# -- truth sets and rounding ------------------------------------------------


def test_truth_set_sorts_dedupes_and_requires_bounds():
    ts = TruthSet(["1", "0", "1/2", "2/4"])
    assert list(ts) == [ZERO, Fraction(1, 2), ONE]
    assert len(ts) == 3
    assert Fraction(1, 2) in ts
    with pytest.raises(ValueError):
        TruthSet([Fraction(1, 2), ONE])
    with pytest.raises(ValueError):
        TruthSet([ZERO, Fraction(1, 2)])
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        TruthSet([0, 2, 1])
    # Fraction members are kept as they are, anything else goes through Fraction()
    half = Fraction(1, 2)
    assert TruthSet([ONE, half, ZERO]).values[1] is half

    class Sub(Fraction):
        pass

    mixed = TruthSet([False, True, Sub(1, 3), "2/3", 1, Fraction(2, 3)])
    assert mixed.values == (ZERO, Fraction(1, 3), Fraction(2, 3), ONE)
    assert all(type(v) is Fraction for v in mixed)
    for members, message in [
        ([Fraction(-1, 3), ZERO, ONE], "truth set values must lie in [0, 1]"),
        ([ZERO, ONE, Fraction(4, 3)], "truth set values must lie in [0, 1]"),
        ([ZERO, ONE, Sub(4, 3)], "truth set values must lie in [0, 1]"),
        (["-1/3", "0", "1"], "truth set values must lie in [0, 1]"),
        ([Fraction(1, 3), ONE], "truth set must contain 0 and 1"),
        ([ZERO, Fraction(2, 3)], "truth set must contain 0 and 1"),
        ([ZERO], "truth set must contain 0 and 1"),
        ([], "truth set must contain 0 and 1"),
    ]:
        with pytest.raises(ValueError) as info:
            TruthSet(members)
        assert str(info.value) == message


def test_rounding_examples():
    ts = TruthSet([ZERO, Fraction(1, 4), ONE])
    assert round_down(ts, Fraction(1, 2)) == Fraction(1, 4)
    assert round_up(ts, Fraction(1, 2)) == ONE
    assert round_down(ts, Fraction(1, 4)) == Fraction(1, 4)
    assert round_up(ts, Fraction(1, 4)) == Fraction(1, 4)
    assert round_down(ts, Fraction(9, 10)) == Fraction(1, 4)
    assert round_up(ts, Fraction(1, 100)) == Fraction(1, 4)


@given(truth_sets(), rationals01())
def test_rounding_sandwich(ts, v):
    lo = round_down(ts, v)
    hi = round_up(ts, v)
    assert lo in ts and hi in ts
    assert lo <= v <= hi
    # nothing of the set lies strictly between v and its rounding
    assert all(not (lo < t < v) and not (v < t < hi) for t in ts)


@given(truth_sets())
def test_rounding_fixes_members(ts):
    for t in ts:
        assert round_down(ts, t) == t
        assert round_up(ts, t) == t


# -- order embeddings ---------------------------------------------------------


def test_embedding_requires_strictly_increasing_endpoints():
    with pytest.raises(ValueError):
        OrderEmbedding([(ZERO, ZERO), (Fraction(1, 2), Fraction(1, 2))])
    with pytest.raises(ValueError):
        OrderEmbedding(
            [(ZERO, ZERO), (Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 2), Fraction(7, 8)), (ONE, ONE)]
        )
    with pytest.raises(ValueError):
        OrderEmbedding(
            [(ZERO, ZERO), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4)), (ONE, ONE)]
        )


def test_embedding_interpolation_example():
    h = OrderEmbedding([(ZERO, ZERO), (Fraction(1, 2), Fraction(3, 4)), (ONE, ONE)])
    assert apply_embedding(h, Fraction(1, 4)) == Fraction(3, 8)
    assert apply_embedding(h, Fraction(1, 2)) == Fraction(3, 4)
    assert apply_embedding(h, Fraction(3, 4)) == Fraction(7, 8)
    assert apply_embedding(h, ZERO) == ZERO
    assert apply_embedding(h, ONE) == ONE


def test_embedding_lines_match_the_interpolation_oracle():
    # integer lines against per-call interpolation, on breakpoints whose
    # denominators differ within and across segments, read at every
    # breakpoint's own x (where bisect_right picks the segment) and between
    rng = random.Random(2424)
    denominators = (2, 3, 5, 7, 12, 97, 1024, 10**9 + 7)
    for _ in range(400):
        k = rng.randint(0, 5)
        inner = [sorted({Fraction(rng.randint(1, d - 1), d) for d in rng.choices(denominators, k=k)}) for _ in "xy"]
        k = min(map(len, inner))
        h = OrderEmbedding([(ZERO, ZERO), *zip(inner[0][:k], inner[1][:k]), (ONE, ONE)])
        for x, y in h.breakpoints:
            assert apply_embedding(h, x) == oracle_apply_embedding(h, x) == y
        xs = [x for x, _ in h.breakpoints]
        for x0, x1 in zip(xs, xs[1:]):
            v = x0 + (x1 - x0) * Fraction(rng.randint(1, 998), 999)
            assert apply_embedding(h, v) == oracle_apply_embedding(h, v)
    for v in (Fraction(-1, 7), Fraction(8, 7)):
        with pytest.raises(ValueError, match=rf"^value {v} outside \[0, 1\]$"):
            apply_embedding(h, v)


@given(rationals01(), rationals01())
def test_embedding_strictly_monotone(a, b):
    h = OrderEmbedding([(ZERO, ZERO), (Fraction(1, 3), Fraction(2, 3)), (ONE, ONE)])
    if a < b:
        assert apply_embedding(h, a) < apply_embedding(h, b)
    elif a == b:
        assert apply_embedding(h, a) == apply_embedding(h, b)
