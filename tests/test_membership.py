"""Integer-valuedness, polynomial closure, separators, escape witnesses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import p_integral, padic_sets, primes, rational_polys
from oracles import brute_int_valued, probe_elements

from ivp.config import DEFAULT_CONFIG
from ivp.errors import PreconditionError
from ivp.exact import vp
from ivp.membership import (
    WitnessRationalFunction,
    is_integer_valued,
    separating_polynomial,
    witness_rational_function,
)
from ivp.padic import (
    Ball,
    PAdicSet,
    SeqWithLimit,
    closure,
    full_set,
    member,
    point_set,
)
from ivp.polys import IrreduciblePoly, RatPoly


def P(*coeffs):
    return RatPoly.from_fractions([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# integer-valuedness against the brute-force oracle
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_valued_matches_oracle(data):
    p = data.draw(primes)
    s = data.draw(padic_sets(p=p))
    f = data.draw(rational_polys(p=p))
    assert is_integer_valued(f, s) == brute_int_valued(f, s)


def test_integer_valued_frozen_cases():
    binomial = P(0, Fraction(-1, 2), Fraction(1, 2))        # (X^2 - X)/2
    assert is_integer_valued(binomial, full_set(2))
    half_norm = P(Fraction(1, 2), 0, Fraction(1, 2))        # (X^2 + 1)/2
    assert not is_integer_valued(half_norm, full_set(2))
    odd = PAdicSet(2, balls=[Ball(2, 1, 1)])
    assert is_integer_valued(half_norm, odd)                # x odd: x^2+1 even
    quarter = P(Fraction(1, 4), 0, Fraction(1, 4))          # (X^2 + 1)/4
    assert not is_integer_valued(quarter, odd)              # x^2+1 = 2 mod 4


def test_integer_valued_past_the_residue_cap():
    # C(X, 24) has 2-adic denominator 2^22: 25 points decide what 2^22
    # residues would, so the default residue cap is never in play
    c24 = RatPoly.constant(1)
    for i in range(24):
        c24 = c24 * P(Fraction(-i, i + 1), Fraction(1, i + 1))
    assert is_integer_valued(c24, full_set(2))
    assert not is_integer_valued(c24 + RatPoly.constant(Fraction(1, 2)),
                                 full_set(2))


def test_integer_valued_on_sequences():
    two_powers = PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)])
    f = P(0, Fraction(1, 2))                                # X/2
    assert not is_integer_valued(f, two_powers)             # fails at 1
    deeper = PAdicSet(2, seqs=[SeqWithLimit(2, 0, 2)])      # 2, 4, 8, ...
    assert is_integer_valued(f, deeper)


def test_denominator_coprime_to_prime_is_free():
    f = P(Fraction(1, 3), Fraction(1, 3))
    assert is_integer_valued(f, full_set(2))                # 3 is a 2-adic unit


# ---------------------------------------------------------------------------
# polynomial closure = topological closure
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closure_invariance_of_integer_valuedness(data):
    p = data.draw(primes)
    s = data.draw(padic_sets(p=p))
    f = data.draw(rational_polys(p=p))
    assert is_integer_valued(f, s) == is_integer_valued(f, closure(s))


# ---------------------------------------------------------------------------
# separating polynomials
# ---------------------------------------------------------------------------

def check_separator(e, alpha):
    f = separating_polynomial(e, alpha)
    assert is_integer_valued(f, e)
    assert vp(f.eval_at(alpha), e.p) < 0
    return f


def test_separator_point_from_ball():
    e = PAdicSet(2, balls=[Ball(2, 0, 2)])                  # 4Z_2
    check_separator(e, Fraction(1))
    check_separator(e, Fraction(2))


def test_separator_point_from_sequence():
    e = closure(PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)]))  # {2^n} U {0}
    check_separator(e, Fraction(3))
    check_separator(e, Fraction(6))
    check_separator(e, Fraction(-1, 3))


def test_separator_from_empty_set():
    f = separating_polynomial(PAdicSet(3), Fraction(0))
    assert vp(f.eval_at(0), 3) < 0


def test_separator_preconditions():
    with pytest.raises(PreconditionError):
        separating_polynomial(full_set(2), Fraction(1))     # inside closure
    with pytest.raises(PreconditionError):
        separating_polynomial(full_set(2), Fraction(1, 2))  # not 2-integral


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_separator_validates_on_random_sets(data):
    p = data.draw(primes)
    e = closure(data.draw(padic_sets(p=p)))
    alpha = data.draw(p_integral(p))
    if member(alpha, e):
        return
    f = separating_polynomial(e, alpha)
    assert vp(f.eval_at(alpha), p) < 0
    for x in probe_elements(e, 5):
        assert vp(f.eval_at(x), p) >= 0


# ---------------------------------------------------------------------------
# escape witnesses
# ---------------------------------------------------------------------------

def test_witness_frozen_linear_case():
    q = IrreduciblePoly.certify(P(-6, 1))                   # X - 6
    family = {2: point_set(2, 2), 3: point_set(3, 3)}
    w = witness_rational_function(q, family)
    assert str(w) == "12/(X - 6)"                           # vp2(2-6)=2, vp3(3-6)=1
    assert dict(w.exponents) == {2: 2, 3: 1}
    assert w.value_at(2) == Fraction(12, -4)


def test_witness_frozen_quadratic_case():
    q = IrreduciblePoly.certify(P(1, 0, 1))                 # X^2 + 1
    w = witness_rational_function(q, {2: full_set(2), 5: point_set(5, 2)})
    assert str(w) == "10/(X^2 + 1)"


def test_witness_requires_rootless_family():
    q = IrreduciblePoly.certify(P(-17, 0, 1))
    with pytest.raises(PreconditionError):
        witness_rational_function(q, {2: full_set(2)})      # root in Z_2


def test_witness_values_are_integral_on_family():
    q = IrreduciblePoly.certify(P(1, 0, 1))
    family = {2: full_set(2), 5: point_set(5, 2, 7)}
    w = witness_rational_function(q, family)
    for p, s in family.items():
        for x in probe_elements(s, 4):
            assert vp(w.value_at(x), p) >= 0
