"""Polynomials: evaluation, squarefreeness certificates, certified roots,
valuation sups.

Root location is checked against full residue enumeration (root_residues)
and the Newton re-validation built into the certificates.  The referee
for squarefreeness and the root tree's depth bound is oracles.resultant,
itself checked against the Sylvester determinant.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import padic_sets, primes
from oracles import (
    brute_irreducible,
    brute_max_valuation_lower_bound,
    brute_tree_events,
    meets_ball,
    primes_below,
    probe_elements,
    rabin_irreducible,
    rational_roots,
    resultant,
    root_residues,
    sylvester_resultant,
)

import ivp.polys as polys
from ivp.config import DEFAULT_CONFIG, Config
from ivp.errors import PreconditionError, ResourceLimitError
from ivp.exact import INFINITY, is_finite, is_prime, vp
from ivp.padic import (Ball, PAdicSet, SeqWithLimit, canonicalize, closure,
                       full_set, member, point_set)
from ivp.polys import (
    CertificateKind,
    IrreduciblePoly,
    RatPoly,
    RootKind,
    max_valuation,
    max_valuation_witness,
    roots_in_set,
)


def P(*coeffs):
    return RatPoly.from_fractions([Fraction(c) for c in coeffs])


def irr(*coeffs):
    return IrreduciblePoly.certify(P(*coeffs))


# ---------------------------------------------------------------------------
# RatPoly basics
# ---------------------------------------------------------------------------

def test_eval_and_arithmetic():
    f = P(Fraction(0), Fraction(-1, 2), Fraction(1, 2))     # (X^2 - X)/2
    assert f.eval_at(7) == 21
    assert f.eval_at(Fraction(1, 3)) == Fraction(-1, 9)
    g = f * P(2) + P(1)                                     # X^2 - X + 1
    assert g.eval_at(3) == 7


def test_str_high_degree_first():
    assert str(P(-17, 0, 1)) == "X^2 - 17"
    assert str(P(0, Fraction(-1, 2), Fraction(1, 2))) == "(X^2 - X)/2"
    assert str(P(3, -2)) == "-2*X + 3"


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.fractions(max_denominator=20))
def test_product_evaluates_pointwise(a, b, x):
    fa, fb = P(*a), P(*b)
    assert (fa * fb).eval_at(x) == fa.eval_at(x) * fb.eval_at(x)


# ---------------------------------------------------------------------------
# resultants and rational roots
# ---------------------------------------------------------------------------

def test_resultant_known_values():
    # res(X^2 - 1, X - 1) = 0 (shared root); res(X^2 + 1, X - 1) = 2
    assert resultant(P(-1, 0, 1), P(-1, 1)) == 0
    assert resultant(P(1, 0, 1), P(-1, 1)) == 2
    # res(X^3 + 1, X) = -res(X, X^3 + 1) = -1
    assert resultant(P(1, 0, 0, 1), P(0, 1)) == -1


def _odd_degree_coeffs():
    return st.sampled_from([1, 3, 5]).flatmap(lambda d: st.tuples(
        st.lists(st.integers(-5, 5), min_size=d, max_size=d),
        st.integers(-5, 5).filter(bool)).map(lambda t: t[0] + [t[1]]))


@settings(max_examples=200)
@given(_odd_degree_coeffs(), _odd_degree_coeffs())
def test_resultant_of_odd_degrees_matches_the_sylvester_determinant(f, g):
    # each Euclidean step between two odd degrees flips the sign
    assert resultant(P(*f), P(*g)) == sylvester_resultant(f, g)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_resultant_of_linear_factors(a, b, c):
    # res((X-a)(X-b), X-c) = (c-a)(c-b)
    f = P(a * b, -(a + b), 1)
    g = P(-c, 1)
    assert resultant(f, g) == (c - a) * (c - b)


@given(st.lists(st.integers(-10, 10), min_size=2, max_size=6))
def test_rational_roots_by_exhaustive_check(coeffs):
    if all(c == 0 for c in coeffs):
        return
    roots = rational_roots(coeffs)
    f = P(*coeffs)
    for r in roots:
        assert f.eval_at(r) == 0
    # every small rational root must be found
    for num in range(-12, 13):
        for den in range(1, 13):
            x = Fraction(num, den)
            if f.eval_at(x) == 0:
                assert x in roots


def test_rational_roots_frozen():
    assert rational_roots((-6, 1, 1)) == (Fraction(-3), Fraction(2))
    assert rational_roots((1, 0, 2)) == ()
    assert rational_roots((-1, 2)) == (Fraction(1, 2),)


# ---------------------------------------------------------------------------
# irreducibility certificates
# ---------------------------------------------------------------------------

def test_certify_accepts_known_irreducibles():
    for coeffs in [(-17, 0, 1), (1, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1, 1)]:
        q = irr(*coeffs)
        assert q.degree == len(coeffs) - 1


def test_certify_rejects_reducibles():
    for coeffs in [(-1, 0, 1), (0, 1, 1), (1, 2, 1), (-4, 0, 1)]:
        with pytest.raises(PreconditionError):
            irr(*coeffs)
    with pytest.raises(PreconditionError):
        irr(5)                                  # constants are not allowed


def _cubic_or_quadratic(data, planted: bool) -> list[int]:
    """Coefficients, low to high, of an integer quadratic or cubic whose
    middle coefficients reach 2^40 while the end ones stay small enough
    for the divisor oracle; a planted one has the factor b*X - a."""
    degree = data.draw(st.sampled_from([2, 3]))
    small = st.integers(-2 ** 6, 2 ** 6).filter(bool)
    big = st.integers(-2 ** 40, 2 ** 40)
    if not planted:
        ends = st.integers(-2 ** 12, 2 ** 12)
        return ([data.draw(ends)] + [data.draw(big) for _ in range(degree - 1)]
                + [data.draw(ends.filter(bool))])
    a, b = data.draw(small), data.draw(small)
    g = ([data.draw(small)] + [data.draw(big) for _ in range(degree - 2)]
         + [data.draw(small)])
    out = [0] * (degree + 1)
    for i, c in enumerate(g):
        out[i] -= a * c
        out[i + 1] += b * c
    return out


@settings(deadline=None)
@given(st.data(), st.booleans())
def test_certify_finds_a_rational_root_exactly_when_the_oracle_does(data, planted):
    coeffs = _cubic_or_quadratic(data, planted)
    if planted:
        assert rational_roots(coeffs)
    if rational_roots(coeffs):
        with pytest.raises(PreconditionError, match="has a rational root"):
            IrreduciblePoly.certify(RatPoly(coeffs))
    else:
        q = IrreduciblePoly.certify(RatPoly(coeffs))
        assert q.certificate is CertificateKind.NO_RATIONAL_ROOT


def test_certify_decides_large_quadratics_and_cubics():
    # 2^40 + 15 and the Mersenne primes 2^61 - 1 and 2^89 - 1 are beyond
    # the reach of a divisor listing
    for coeffs in [(-3, 0, 2 ** 40 + 15), (-3, 0, 0, 2 ** 40 + 15),
                   (-(2 ** 61 - 1), 0, 1), (-(2 ** 89 - 1), 0, 0, 1)]:
        q = irr(*coeffs)
        assert q.certificate is CertificateKind.NO_RATIONAL_ROOT
    big = 2 ** 61 - 1
    for coeffs in [(-big * big, 0, 1), (-(big ** 3), 0, 0, 1),
                   (-3, 2 ** 40 + 15, -3, 2 ** 40 + 15)]:   # (aX - 3)(X^2 + 1)
        with pytest.raises(PreconditionError, match="has a rational root"):
            irr(*coeffs)


def test_certify_clears_denominators():
    q = IrreduciblePoly.certify(P(Fraction(1, 2), 0, Fraction(1, 2)))
    assert q.coeffs == (1, 0, 1)


def test_rabin_referee_accepts_every_linear_polynomial():
    for ell in (2, 3, 5, 7):
        for a in range(ell):
            for b in range(1, ell):
                assert rabin_irreducible((a, b), ell)
                assert brute_irreducible((a, b), ell)
    assert not rabin_irreducible((0, 0, 1), 5)      # X^2
    assert not rabin_irreducible((1, 0, 1), 5)      # (X - 2)(X - 3)
    assert rabin_irreducible((2, 0, 1), 5)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 8))
def test_irreducible_mod_agrees_with_the_referees(data, ell, degree):
    coeffs = [data.draw(st.integers(-50, 50)) for _ in range(degree)]
    coeffs.append(data.draw(st.integers(-50, 50).filter(lambda c: c % ell)))
    got = polys._irreducible_mod(coeffs, ell)
    assert got == rabin_irreducible(coeffs, ell)
    if ell <= 5:
        assert got == brute_irreducible(coeffs, ell)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 13, 9973]), st.integers(1, 6),
       st.integers(0, 299))
def test_x_power_mod_matches_repeated_products(data, ell, degree, e):
    residue = st.integers(0, ell - 1)
    monic = [data.draw(residue) for _ in range(degree)] + [1]
    base = [data.draw(residue) for _ in range(data.draw(st.integers(1, 8)))]
    x_power = base_power = [1]
    for _ in range(e):
        x_power = polys._mod_poly_mul(x_power, [0, 1], monic, ell)
        base_power = polys._mod_poly_mul(base_power, base, monic, ell)
    assert polys._x_power_mod(monic, e, ell) == x_power
    assert polys._x_power_mod(monic, e, ell, base) == base_power


def _shifted_power_minus_2(n, c):
    coeffs = [math.comb(n, i) * c ** (n - i) for i in range(n + 1)]
    coeffs[0] -= 2
    return coeffs


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("c", [0, 1, 137, -61])
def test_certify_witness_is_the_least_prime_the_referee_accepts(n, c):
    coeffs = _shifted_power_minus_2(n, c)         # Eisenstein at 2
    q = irr(*coeffs)
    assert q.certificate is CertificateKind.MOD_P_WITNESS
    least = next(ell for ell in primes_below(10 ** 4)
                 if coeffs[-1] % ell and rabin_irreducible(coeffs, ell))
    assert q.witness_prime == least


def test_certify_witness_skips_primes_dividing_the_leading_coefficient():
    # 2X^4 + X + 1 is X + 1 mod 2: irreducible, but of lower degree
    coeffs = (1, 1, 0, 0, 2)
    assert rabin_irreducible(coeffs, 2)
    assert irr(*coeffs).witness_prime == 3
    assert irr(-10, 0, 0, 0, 1).witness_prime == 17


def test_certify_scans_primes_up_to_and_including_the_bound():
    # as prime_divisors does: a bound equal to the witness admits it
    quartic = RatPoly([-10, 0, 0, 0, 1])
    assert IrreduciblePoly.certify(
        quartic, Config(prime_scan_bound=17)).witness_prime == 17
    with pytest.raises(PreconditionError, match=r"\(prime_scan_bound = 16\)"):
        IrreduciblePoly.certify(quartic, Config(prime_scan_bound=16))


@pytest.mark.parametrize("coeffs", [(1, 0, 0, 0, 1),          # X^4 + 1
                                    (1, 0, -10, 0, 1)])       # X^4 - 10X^2 + 1
def test_quartics_reducible_at_every_prime_have_no_witness(coeffs):
    # each is irreducible over Q with Galois group (Z/2)^2, which holds
    # no 4-cycle, so it splits mod every prime
    with pytest.raises(PreconditionError, match=(
            r"^no irreducibility witness up to the prime scan bound "
            r"\(prime_scan_bound = 200\)")):
        IrreduciblePoly.certify(RatPoly(coeffs), Config(prime_scan_bound=200))
    assert not any(rabin_irreducible(coeffs, ell) for ell in primes_below(200))


def test_the_degree_cap_bounds_certified_and_asserted_polynomials():
    # X^65 - 2 is Eisenstein at 2; the reader refuses its text first, so
    # only a RatPoly built in code reaches these checks
    poly = RatPoly([-2] + [0] * 64 + [1])
    for build in (IrreduciblePoly.certify, IrreduciblePoly.assert_irreducible):
        with pytest.raises(ResourceLimitError, match=(
                r"^65 as a degree, over the degree cap \(degree_cap = 64\)$")):
            build(poly)
        assert build(poly, Config(degree_cap=65)).degree == 65


def test_certify_refuses_a_product_of_quadratics():
    with pytest.raises(PreconditionError, match="no irreducibility witness"):
        irr(2, 0, 3, 0, 1)                        # (X^2 + 1)(X^2 + 2)


# ---------------------------------------------------------------------------
# certified roots in sets
# ---------------------------------------------------------------------------

def test_x2_plus_1_has_no_2adic_or_3adic_roots():
    q = irr(1, 0, 1)
    assert roots_in_set(q, full_set(2)) == ()
    assert roots_in_set(q, full_set(3)) == ()


def test_x2_plus_1_has_two_5adic_roots():
    certs = roots_in_set(irr(1, 0, 1), full_set(5))
    assert len(certs) == 2
    assert {c.center % 5 for c in certs} == {2, 3}
    for c in certs:
        assert c.revalidate(irr(1, 0, 1))


def test_x2_minus_17_two_hensel_roots_with_oracle():
    q = irr(-17, 0, 1)
    certs = roots_in_set(q, full_set(2))
    assert len(certs) == 2
    assert all(c.kind is RootKind.HENSEL for c in certs)
    assert sorted((c.ball.center, c.ball.depth) for c in certs) == [(1, 2), (3, 2)]
    assert all(c.revalidate(q) for c in certs)
    # residue oracle mod 2^7: the solutions fall 2-per-certified-ball and
    # each ball holds exactly one true root
    sols = root_residues(q.coeffs, 2, 7)
    assert sols == {23, 41, 87, 105}
    for c in certs:
        inside = {r for r in sols if (r - c.ball.center) % 4 == 0}
        assert len(inside) == 2     # the root and its mod-2^7 shadow


def test_exact_rational_root_in_point_set():
    q = irr(-3, 1)                               # X - 3
    certs = roots_in_set(q, point_set(5, 1, 3))
    assert len(certs) == 1
    assert certs[0].kind is RootKind.EXACT_RATIONAL
    assert certs[0].value == 3


def test_root_in_sequence_limit_only_when_included():
    q = irr(0, 1)                                # X
    tail = PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1, include_limit=False)])
    assert roots_in_set(q, tail) == ()           # 0 is only the excluded limit
    certs = roots_in_set(q, closure(tail))       # closure brings the limit in
    assert len(certs) == 1 and certs[0].value == 0


@settings(max_examples=40)
@given(st.sampled_from([(1, 0, 1), (-17, 0, 1), (-2, 0, 1), (3, 1),
                        (-6, 1), (7, 0, 0, 1)]),
       primes)
def test_roots_against_residue_enumeration(coeffs, p):
    q = irr(*coeffs)
    certs = roots_in_set(q, full_set(p))
    depth = 7
    sols = root_residues(q.coeffs, p, depth)
    # every certificate ball contains a residue solution at every depth
    for c in certs:
        step = p ** c.ball.depth
        assert any((r - c.ball.center) % step == 0 for r in sols)
    # no solutions at all means no certificates
    if not sols:
        assert certs == ()


@settings(max_examples=60)
@given(padic_sets(), st.sampled_from([1, 2, 3, 4, 6, 9, 25, -5]),
       st.data())
def test_degree_one_root_certificates(s, a1, data):
    # the root is drawn from the set's own elements half of the time
    elements = probe_elements(s, 3)
    if elements and data.draw(st.booleans()):
        root = Fraction(data.draw(st.sampled_from(elements)))
    else:
        root = Fraction(data.draw(st.integers(-30, 30)),
                        data.draw(st.sampled_from([1, 2, 3])))
    q = IrreduciblePoly.certify(RatPoly.from_fractions([-a1 * root, a1]))
    certs = roots_in_set(q, s)
    if vp(root, s.p) < 0 or not member(root, s):
        assert certs == ()
        return
    (cert,) = certs
    assert cert.kind is RootKind.EXACT_RATIONAL and cert.value == root
    assert cert.revalidate(q)
    assert cert.q_val == vp(q.eval_int(cert.center), s.p)
    held = [b.depth for b in canonicalize(s).balls if b.contains(root)]
    assert cert.ball.depth == max([vp(q.coeffs[1], s.p) + 1] + held)


@settings(max_examples=40)
@given(padic_sets())
def test_root_certificates_lie_inside_the_set(s):
    q = irr(-2, 0, 1) if s.p != 7 else irr(1, 0, 1)
    for c in roots_in_set(q, s, DEFAULT_CONFIG):
        if c.kind is RootKind.EXACT_RATIONAL:
            assert member(c.value, closure(s))
        else:
            # the certified ball must meet the set
            assert meets_ball(closure(s), c.ball)


def test_degree_one_q_val_does_not_depend_on_the_presentation():
    q = irr(-1, 3)                               # 3X - 1, root 1/3
    on_point = roots_in_set(q, point_set(2, Fraction(1, 3)))
    on_ball = roots_in_set(q, full_set(2))
    assert on_point == on_ball
    (cert,) = on_point
    assert cert.q_val == vp(q.eval_int(cert.center), 2) == 1


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def squarefree_polys(draw):
    """Squarefree integer polynomials of degree 2 to 5, not necessarily
    irreducible; the root tree needs squarefreeness only."""
    degree = draw(st.integers(2, 5))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=degree,
                           max_size=degree))
    coeffs.append(draw(st.integers(1, 20)))
    f = RatPoly(coeffs)
    assume(resultant(f, f.derivative()) != 0)
    return IrreduciblePoly.assert_irreducible(f)


def _with_p_way_walk(fn, *args):
    with mock.patch.object(polys, "_tree_events", brute_tree_events):
        return fn(*args)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_PRIMES).flatmap(
    lambda p: st.tuples(padic_sets(p=p), squarefree_polys())))
def test_root_tree_matches_the_p_way_walk(case):
    s, q = case
    certs = roots_in_set(q, s)
    assert certs == _with_p_way_walk(roots_in_set, q, s)
    assert all(c.revalidate(q) for c in certs)
    if s.is_empty():
        return
    value, witness = max_valuation_witness(q, s)
    assert value == _with_p_way_walk(max_valuation, q, s)
    if is_finite(value):
        assert member(witness, s)
        assert vp(q.eval_at(witness), s.p) == value


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), squarefree_polys())
def test_root_count_on_full_matches_residue_enumeration(p, q):
    # with R = vp(Res(q, q')), every solution mod p^(2R+1) lies within
    # p^-(R+1) of a root, and distinct roots differ mod p^(R+1)
    qq = q.as_ratpoly()
    rv = vp(resultant(qq, qq.derivative()), p)
    assume(p ** (2 * rv + 1) <= 20_000)
    sols = root_residues(q.coeffs, p, 2 * rv + 1)
    roots = {x % p ** (rv + 1) for x in sols}
    assert len(roots_in_set(q, full_set(p))) == len(roots)


def _coefficients(degree):
    return st.tuples(st.lists(st.integers(-9, 9), min_size=degree,
                              max_size=degree),
                     st.integers(-9, 9).filter(bool)).map(lambda t: t[0] + [t[1]])


@st.composite
def _squarefree_or_not(draw):
    """Degree 1 to 8: g*h^2 with deg h >= 1, or a polynomial drawn whole,
    which is mostly squarefree."""
    if draw(st.booleans()):
        h = P(*draw(_coefficients(draw(st.integers(1, 4)))))
        g = P(*draw(_coefficients(draw(st.integers(0, 8 - 2 * h.degree)))))
        return (g * h * h).coeffs
    return tuple(draw(_coefficients(draw(st.integers(1, 8)))))


@settings(max_examples=300, deadline=None)
@given(_squarefree_or_not())
def test_squarefree_prime_is_the_least_prime_not_dividing_lc_res(coeffs):
    q = IrreduciblePoly(coeffs, CertificateKind.CALLER_ASSERTED)
    res = resultant(RatPoly(coeffs), RatPoly(coeffs).derivative())
    ell = q.squarefree_prime
    assert (ell is None) == (res == 0)
    if ell is not None:
        assert coeffs[-1] % ell and res % ell
        assert all(coeffs[-1] % k == 0 or res % k == 0
                   for k in primes_below(ell))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), squarefree_polys())
def test_depth_bound_covers_the_resultant_valuation(p, q):
    qq = q.as_ratpoly()
    res = resultant(qq, qq.derivative())
    assert abs(res) < 2 ** q._hadamard_bits
    assert q._hadamard_bits // (p.bit_length() - 1) >= vp(res, p)


def _odd_product_minus_1(n):
    """30*(X - 1)(X - 3)...(X - (2n - 1)) - 1."""
    f = P(30)
    for z in range(1, 2 * n, 2):
        f = f * P(-z, 1)
    return f - P(1)


def test_squarefreeness_is_decided_at_degree_64():
    q = IrreduciblePoly.assert_irreducible(_odd_product_minus_1(64))
    assert q.degree == 64 and is_prime(q.squarefree_prime)
    square = _odd_product_minus_1(62) * P(-1, 1) ** 2
    assert square.degree == 64
    for f in (square, P(1, 0, 1) ** 2):             # ... and (X^2 + 1)^2
        with pytest.raises(PreconditionError, match="is not squarefree"):
            IrreduciblePoly.assert_irreducible(f)


def test_root_tree_cost_does_not_grow_with_p(monkeypatch):
    calls = []
    eval_int = IrreduciblePoly.eval_int

    def counted(self, x):
        calls.append(x)
        return eval_int(self, x)
    monkeypatch.setattr(IrreduciblePoly, "eval_int", counted)
    q = irr(-17, 0, 1)
    assert roots_in_set(q, full_set(10007)) == ()    # 17 is no square mod 10007
    assert len(roots_in_set(q, full_set(100003))) == 2
    assert len(calls) < 20


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, Config(residue_cap=1000)])
def test_root_tree_answers_at_a_31_bit_prime(config):
    p = 2 ** 31 - 1
    q = irr(-17, 0, 1)
    certs = roots_in_set(q, full_set(p), config)
    assert pow(17, (p - 1) // 2, p) == 1 and len(certs) == 2
    assert all(c.revalidate(q) and c.ball.depth == 1 for c in certs)
    assert max_valuation(q, full_set(p), config) is INFINITY
    value, witness = max_valuation_witness(irr(1, 0, 1), full_set(p), config)
    assert value == 0 and vp(witness ** 2 + 1, p) == 0     # p = 3 mod 4


# ---------------------------------------------------------------------------
# valuation suprema
# ---------------------------------------------------------------------------

def test_max_valuation_frozen_cases():
    two_powers = closure(PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)]))
    value, witness = max_valuation_witness(irr(-3, 1), two_powers)
    assert value == 1 and witness == 1          # vp2(1 - 3) = 1
    value, witness = max_valuation_witness(irr(1, 0, 1), full_set(2))
    assert value == 1                           # x^2 + 1 = 2 mod 4 at odd x
    assert vp(irr(1, 0, 1).eval_at(witness), 2) == 1
    value, _ = max_valuation_witness(irr(-17, 0, 1), full_set(2))
    assert value is INFINITY                    # root in Z_2


def test_max_valuation_on_point_sets():
    s = point_set(3, 1, 4, 10)
    value, witness = max_valuation_witness(irr(-1, 1), s)   # X - 1 has root 1
    assert value is INFINITY and witness is None
    value, witness = max_valuation_witness(irr(-4, 1), point_set(3, 1, 10))
    assert value == 1 and witness in (1, 10)    # vp3(10-4) = vp3(1-4) = 1


@settings(max_examples=50, deadline=None)
@given(padic_sets(),
       st.sampled_from([(3, 1), (-6, 1), (1, 0, 1), (-17, 0, 1), (-2, 0, 1)]))
def test_max_valuation_bounds_and_attainment(s, coeffs):
    q = irr(*coeffs)
    if s.is_empty():
        return
    value, witness = max_valuation_witness(q, s)
    lower = brute_max_valuation_lower_bound(q.coeffs, s, 6)
    if is_finite(value):
        assert lower is not INFINITY and lower <= value
        # the witness is in the closure and attains the value
        assert member(witness, closure(s))
        assert vp(q.eval_at(witness), s.p) == value
    else:
        # an actual root: some probe gets arbitrarily deep or is exact
        assert roots_in_set(q, closure(s)) != ()


def test_max_valuation_meets_roots_off_the_balls():
    # roots at an excluded limit, at a sequence element and at a point
    powers = PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1, 0, False)])    # 1, 2, 4, ...
    assert max_valuation_witness(irr(0, 1), powers) == (INFINITY, None)
    assert max_valuation_witness(irr(-4, 1), powers) == (INFINITY, None)
    with_three = PAdicSet(2, points=[3], seqs=powers.seqs)
    assert max_valuation_witness(irr(-3, 1), with_three) == (INFINITY, None)


def test_max_valuation_walks_the_root_tree_once(monkeypatch):
    import ivp.polys as polys

    def no_prepass(*args, **kwargs):
        raise AssertionError("roots_in_set called")
    monkeypatch.setattr(polys, "roots_in_set", no_prepass)
    assert max_valuation(irr(1, 0, 1), full_set(2)) == 1
    assert max_valuation(irr(-17, 0, 1), full_set(2)) is INFINITY


@settings(max_examples=50, deadline=None)
@given(padic_sets(),
       st.sampled_from([(3, 1), (-6, 1), (0, 1), (1, 0, 1), (-17, 0, 1), (-2, 0, 1)]))
def test_max_valuation_is_infinite_exactly_at_a_root_of_the_closure(s, coeffs):
    q = irr(*coeffs)
    if not s.is_empty():
        value = max_valuation(q, s)
        assert (value is INFINITY) == bool(roots_in_set(q, closure(s)))


def test_squarefree_certificate_is_computed_once(monkeypatch):
    q = IrreduciblePoly((-2, 0, 0, 0, 1), CertificateKind.CALLER_ASSERTED)
    calls = []
    gcd = polys._mod_poly_gcd

    def counted(a, b, ell):
        if (tuple(a), tuple(b)) == (q.coeffs, q.derivative_coeffs):
            calls.append(ell)
        return gcd(a, b, ell)
    monkeypatch.setattr(polys, "_mod_poly_gcd", counted)
    for p in (2, 3, 5, 7):
        roots_in_set(q, full_set(p))
        max_valuation(q, full_set(p))
    # X^4 - 2: q' = 4X^3 vanishes mod 2, and q is prime to X^3 mod 3
    assert calls == [2, 3] and q.squarefree_prime == 3


def test_max_valuation_alias():
    assert max_valuation(irr(1, 0, 1), full_set(2)) == 1

