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
    # coefficients up to 2^256 at degree up to 8 against p^m <= 2^12 (the
    # strategy's extra factor 2 or 3 included): the deg f + 1 bound decides
    # some draws and the Bhargava bound J others, in balls and in sequences
    p = data.draw(primes)
    top = max(e for e in range(12) if p ** (e + 1) <= 2 ** 12)
    s = data.draw(padic_sets(p=p, max_start=6))
    f = data.draw(rational_polys(p=p, max_degree=8, coeff_bound=2 ** 256,
                                 max_exponent=top))
    assert is_integer_valued(f, s) == brute_int_valued(f, s)
    # the border between yes and no: a product over the first t terms of
    # one component's p-ordering, over the largest power of p (up to p^top)
    # that the oracle finds integral on s, and over one more.  On that
    # component the border sits at nu_t, where J = t + 1 cuts the check;
    # balls of depth up to 4 and sequences with head up to 4 keep nu_t
    # under p^top for some of the up to 17 terms
    orderings = ([[b.center + p ** b.depth * j for j in range(17)]
                  for b in s.balls if b.depth <= 4]
                 + [[q.limit] + [q.element(q.start + i) for i in range(16)]
                    for q in s.seqs if q.head <= 4])
    if orderings:
        terms = data.draw(st.sampled_from(orderings))
        product = RatPoly.constant(1)
        for a in terms[:data.draw(st.integers(1, 17))]:
            product = product * P(-a, 1)

        def over(k):
            return product * Fraction(1, p ** k)
        e = 0
        while e < top and brute_int_valued(over(e + 1), s):
            e += 1
        for k in (e, e + 1):
            assert is_integer_valued(over(k), s) == brute_int_valued(over(k), s)


def choose(f, k):
    """C(f, k) = f (f - 1) ... (f - k + 1) / k!."""
    out = RatPoly.constant(1)
    for i in range(k):
        out = out * (f - RatPoly.constant(i)) * Fraction(1, i + 1)
    return out


def test_integer_valued_frozen_cases():
    binomial = P(0, Fraction(-1, 2), Fraction(1, 2))        # (X^2 - X)/2
    assert is_integer_valued(binomial, full_set(2))
    half_norm = P(Fraction(1, 2), 0, Fraction(1, 2))        # (X^2 + 1)/2
    assert not is_integer_valued(half_norm, full_set(2))
    odd = PAdicSet(2, balls=[Ball(2, 1, 1)])
    assert is_integer_valued(half_norm, odd)                # x odd: x^2+1 even
    quarter = P(Fraction(1, 4), 0, Fraction(1, 4))          # (X^2 + 1)/4
    assert not is_integer_valued(quarter, odd)              # x^2+1 = 2 mod 4
    # X(X - 1)(X - 2)(X - 4)/4: the points 0, 1, 2, 3 decide before the
    # deg f + 1 = 5 Polya points, as nu_4(Z_2) = vp(4!) = 3 >= 2, and only
    # the last one, 3, fails
    last_residue = P(0, -1, 1) * P(-2, 1) * P(-4, 1) * Fraction(1, 4)
    assert not is_integer_valued(last_residue, full_set(2))

    # C(uX + c, 64) has 20,256-bit coefficients; only their residues mod
    # p^m, m = vp(64!) at most, take part in the check
    huge = choose(P(3 ** 200 + 1, 5 ** 20), 64)
    assert max(abs(c) for c in huge.coeffs).bit_length() > 20000
    for p in (2, 3):
        union = PAdicSet(p, balls=[Ball(p, 1, 2)], points=[Fraction(2, 5)],
                         seqs=[SeqWithLimit(p, 7, Fraction(3, 7), 1)])
        for s in (full_set(p), union):
            assert is_integer_valued(huge, s)
            off = huge + RatPoly.constant(Fraction(1, p))
            assert not is_integer_valued(off, s)

    # {3} u {3 + 5 * 2^n : n >= 2}, so e_2 = 23 and e_3 = 43: at e_n the
    # product (X - 3)(X - 23) has valuation n + 2 (n >= 3), least at e_3
    seq = PAdicSet(2, seqs=[SeqWithLimit(2, 3, 5, 2)])
    product = P(-3, 1) * P(-23, 1)
    assert is_integer_valued(product * Fraction(1, 2 ** 5), seq)
    assert not is_integer_valued(product * Fraction(1, 2 ** 6), seq)


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
