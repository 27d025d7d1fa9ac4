"""Text forms: every formatter/parser pair round-trips, and malformed
input dies with a ParseError rather than a stack trace from deep inside.
"""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import padic_sets, rational_polys

from ivp.adelic import IntegerSet
from ivp.dsl import (
    ParseError,
    format_representation,
    format_ring,
    parse_candidate,
    parse_family,
    parse_intset,
    parse_irreducible,
    parse_poly,
    parse_rational,
    parse_representation,
    parse_ring,
    parse_rule,
    parse_set,
)
from ivp.config import Config
from ivp.errors import PreconditionError, ResourceLimitError
from ivp.exact import Congruence
from ivp.overrings import (
    EMPTY_RULE,
    FULL_RULE,
    Representation,
    RingSpec,
    UNITS_AND_SELF_RULE,
    instantiate,
    integer_set_rule,
    ring_equal,
    single_power_rule,
)
from ivp.padic import (
    Ball,
    PAdicSet,
    SeqWithLimit,
    empty_set,
    full_set,
)
from ivp.polys import RatPoly


def test_parse_rational():
    assert parse_rational(" -7/3 ") == Fraction(-7, 3)
    assert parse_rational("5") == 5
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("two")


# ---------------------------------------------------------------------------
# sets
# ---------------------------------------------------------------------------

def test_parse_set_components():
    s = parse_set("ball(2; 5, 3) | pts(2; 7, 1/3) | seq(2; 0, 1, 0, +lim)")
    assert s.p == 2
    assert s.balls[0] == Ball(2, 5, 3)
    assert set(s.points) == {7, Fraction(1, 3)}
    assert s.seqs[0] == SeqWithLimit(2, 0, 1, 0, True)


def test_parse_set_sugar():
    assert parse_set("full(5)") == full_set(5)
    assert parse_set("empty(7)") == empty_set(7)
    assert parse_set("power(5; 2)") == PAdicSet(5, points=[25])
    u = parse_set("units+p(3)")
    assert u == instantiate(UNITS_AND_SELF_RULE, 3)


def test_power_component_refuses_what_the_tail_rule_refuses():
    # power(p; k) is the tail rule power(k) at p
    with pytest.raises(PreconditionError, match="exponent >= 1"):
        parse_rule("power(0)")
    with pytest.raises(PreconditionError, match="exponent >= 1"):
        parse_set("power(5; 0)")


def test_parse_set_minus_lim():
    s = parse_set("seq(2; 0, 1, 2, -lim)")
    assert not s.seqs[0].include_limit
    assert s.seqs[0].start == 2


def test_parse_set_errors():
    for bad in ("", "ball(2; 5)", "blob(2; 1)", "ball(2; 5, 3) | pts(3; 1)",
                "pts()", "seq(2; 0, 1, 0)", "full(5; 3)", "empty(5; 1)",
                "units+p(5; 2)"):
        with pytest.raises(ParseError):
            parse_set(bad)


def test_balls_past_the_printing_limit_are_refused_before_reduction():
    # 3^10000 has 4772 digits; the centre is never reduced modulo it
    for depth in (10000, 10 ** 8, 10 ** 10):
        for center in ("1", "-1"):
            with pytest.raises(ParseError, match=f"ball modulus 3\\^{depth} "
                               r"has about \d+ digits, over the \d+-digit"):
                parse_set(f"ball(3; {center}, {depth})")
    assert parse_set("ball(3; -1, 9000)").balls[0].depth == 9000


@pytest.mark.parametrize("text, message", [
    # no decimal point, exponent or other Fraction syntax: every number
    # formed from text is one whose digits were checked
    ("1e5", "invalid int point: '1e5'"),
    ("1.5", "invalid int point: '1.5'"),
    ("inf", "invalid int point: 'inf'"),
    ("1/2/3", "invalid int point: '2/3'"),
    ("1/", "invalid int point: ''"),
    ("3/0", "point '3/0' has a zero denominator"),
])
def test_rationals_are_integers_or_their_quotients(text, message):
    with pytest.raises(ParseError) as info:
        parse_rational(text, "point")
    assert str(info.value) == message


# every integer field of the text forms, with N standing for a number one
# digit past the interpreter's limit on reading integers
_LONG_FIELDS = [
    (parse_set, "ball(3; 1, N)", "ball depth"),
    (parse_set, "ball(3; N, 2)", "ball center"),
    (parse_set, "ball(N; 1, 2)", "prime"),
    (parse_set, "pts(3; 1/N)", "point"),
    (parse_set, "seq(2; N, 1, 0, +lim)", "sequence limit"),
    (parse_set, "seq(2; 0, N, 0, +lim)", "sequence scale"),
    (parse_set, "seq(2; 0, 1, N, +lim)", "sequence start"),
    (parse_set, "power(2; N)", "power exponent"),
    (parse_intset, "Z \\ (N mod 4)", "residue"),
    (parse_intset, "Z \\ (1 mod N)", "modulus"),
    (parse_intset, "{1, N}", "element"),
    (parse_intset, "Z U {N}", "element"),
    (parse_rule, "power(N)", "rule exponent"),
    (parse_candidate, "N: 1", "candidate prime"),
    (parse_candidate, "2: N", "candidate value"),
    (parse_family, "N: full(2)", "family prime"),
    (parse_ring, '{"exceptional": {"N": "full(2)"}}', "ring prime"),
    (parse_ring, '{"exceptional": [{"p": N, "set": "full(2)"}]}',
     "ring JSON number"),
    (parse_poly, "X + N", "polynomial literal"),
    (parse_rational, "-N", "rational"),
]


@pytest.mark.parametrize("parse, template, field", _LONG_FIELDS)
def test_over_long_integer_fields_name_the_field_and_the_limit(
        parse, template, field):
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 1)
    with pytest.raises(ParseError) as info:
        parse(template.replace("N", digits))
    message = str(info.value)
    assert message == (f"{field} has more than {limit} digits, the limit on"
                       " reading integers")
    assert "7" * limit not in message


def test_over_long_number_in_a_ring_file_names_the_limit(tmp_path):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "ring.json"
    path.write_text('{"exceptional": [{"p": %s, "set": "full(2)"}]}'
                    % ("7" * (limit + 1)))
    with pytest.raises(ParseError) as info:
        parse_ring(f"@{path}")
    assert str(info.value) == (f"ring JSON number has more than {limit}"
                               " digits, the limit on reading integers")


def test_malformed_ring_file_is_bad_json(tmp_path):
    # read from a file, malformed JSON is named as inline text is
    path = tmp_path / "bad.json"
    path.write_text('{"exceptional": \n')
    with pytest.raises(ParseError) as info:
        parse_ring(f"@{path}")
    assert str(info.value) == ("bad JSON: Expecting value: line 2 column 1"
                               " (char 17)")


def test_integer_fields_at_the_digit_limit_are_read():
    limit = sys.get_int_max_str_digits()
    n = int("7" * limit)
    assert parse_intset(f"Z \\ (1 mod {'7' * limit})").excluded[0].modulus == n
    assert parse_rational(f"1/{'7' * limit}") == Fraction(1, n)
    assert parse_intset("{1_000}").base == (1000,)


@given(padic_sets())
def test_set_round_trip(s):
    assert parse_set(str(s)) == s


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_parse_poly_frozen():
    f = parse_poly("(X^2 - X)/2")
    assert f == RatPoly([0, -1, 1], 2)
    assert parse_poly("X**2 - 17") == RatPoly([-17, 0, 1])
    assert parse_poly("-2*x + 3") == RatPoly([3, -2])
    assert parse_poly("(X - 1)*(X + 1)") == RatPoly([-1, 0, 1])
    assert parse_poly("3/4") == RatPoly([3], 4)


def test_parse_poly_errors():
    for bad in ("X/X", "1/0", "X^y", "X + ", "(X", "X ~ 2", "X) (",
                "1_000", "0x10", "True", "1.5", "X^-1", "X^(1+1)", "X // 2"):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_parse_poly_degree_cap_comes_from_the_config():
    assert parse_poly("(X^8)^8").degree == 64
    for text, degree in (("X^65", 65), ("(X+1)^3000", 3000),
                         ("(X^64)^64", 4096), ("X^64 * X", 65)):
        with pytest.raises(ResourceLimitError, match=(
                rf"^{degree} as a degree, over the degree cap "
                r"\(degree_cap = 64\)$")):
            parse_poly(text)
    tight = Config(degree_cap=4)
    assert parse_poly("(X^2 + 1)^2", tight).degree == 4
    with pytest.raises(ResourceLimitError, match=r"\(degree_cap = 4\)$"):
        parse_poly("(X^2 + 1)*(X^3 + 1)", tight)
    with pytest.raises(ResourceLimitError, match="degree_cap"):
        parse_irreducible("X^5 + X + 3", tight)


@given(rational_polys())
def test_poly_round_trip(f):
    assert parse_poly(str(f)) == f


def test_parse_irreducible():
    q = parse_irreducible("X^2 + 1")
    assert q.coeffs == (1, 0, 1)
    with pytest.raises(PreconditionError):
        parse_irreducible("X^2 - 1")


# ---------------------------------------------------------------------------
# integer sets, rules, candidates, families
# ---------------------------------------------------------------------------

def test_parse_intset_frozen():
    e = parse_intset(r"Z \ (65 mod 72)")
    assert e == IntegerSet.without_classes(Congruence(65, 72))
    assert parse_intset("{2, 3, 5}") == IntegerSet(base=(2, 3, 5))
    assert parse_intset(r"Z \ (65 mod 72) U {9}") == IntegerSet(
        excluded=(Congruence(65, 72),), extra=(9,))
    assert parse_intset("Z") == IntegerSet()
    assert parse_intset("{}").is_finite()


def test_parse_intset_errors():
    for bad in ("65 mod 72", r"Z \ 65", "Z junk", r"Z \ (65 mod 72) U 9"):
        with pytest.raises(ParseError):
            parse_intset(bad)


def test_intset_round_trip():
    for e in (IntegerSet(), IntegerSet(base=(0, 8)),
              IntegerSet.without_classes(Congruence(65, 72)),
              IntegerSet(excluded=(Congruence(1, 4), Congruence(0, 6)),
                         extra=(5, 9))):
        assert parse_intset(str(e)) == e


def test_rule_round_trip():
    rules = (FULL_RULE, EMPTY_RULE, UNITS_AND_SELF_RULE,
             single_power_rule(3),
             integer_set_rule(IntegerSet.without_classes(Congruence(65, 72))))
    for rule in rules:
        assert parse_rule(str(rule)) == rule
    with pytest.raises(ParseError):
        parse_rule("sometimes")


def test_parse_candidate():
    c = parse_candidate("2: 65, 3: 65")
    assert c.value_at(2) == 65 and c.value_at(3) == 65
    assert tuple(p for p, _ in c.values) == (2, 3)
    assert parse_candidate("5: 1/2").value_at(5) == Fraction(1, 2)
    for bad in ("", "2: 1, junk", "2 65"):
        with pytest.raises(ParseError):
            parse_candidate(bad)


def test_parse_family():
    fam = parse_family("2: full(2); 3: pts(3; 9)")
    assert fam[2] == full_set(2)
    assert fam[3] == PAdicSet(3, points=[9])
    with pytest.raises(ParseError):
        parse_family("")


# ---------------------------------------------------------------------------
# rings and representations
# ---------------------------------------------------------------------------

def test_parse_ring_forms():
    text = '{"exceptional": {"2": "pts(2; 0) | seq(2; 0, 1, 0, +lim)"}, "default": "full"}'
    r = parse_ring(text)
    assert r.window() == (2,)
    # the list form emitted by format_ring parses to the same ring
    assert parse_ring(json.dumps(format_ring(r))) == r
    # default defaults to full
    assert parse_ring("{}") == RingSpec({}, FULL_RULE)
    with pytest.raises(ParseError):
        parse_ring('{"bogus": 1}')
    with pytest.raises(ParseError):
        parse_ring("not json")


def test_parse_ring_from_file(tmp_path):
    r = RingSpec({3: PAdicSet(3, points=[0, 1])}, EMPTY_RULE)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(format_ring(r)))
    again = parse_ring(f"@{path}")
    assert again == r
    assert ring_equal(again, r).is_yes


def test_representation_round_trip():
    rep = Representation({2: full_set(2)}, single_power_rule(1),
                         nonunitary=[parse_irreducible("X^2 + 1")],
                         all_min=False)
    again = parse_representation(json.dumps(format_representation(rep)))
    assert again == rep
    with pytest.raises(ParseError):
        parse_representation('{"unitary": [], "extra": 1}')


def test_representation_all_min_flag():
    rep = parse_representation('{"default": "empty", "all_min": true}')
    assert rep.all_min and rep.default == EMPTY_RULE
