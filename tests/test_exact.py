import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_covers, brute_int_vp, primes_below

from ivp.config import Config
from ivp.errors import PreconditionError, ResourceLimitError
from ivp.exact import (
    INFINITY,
    Congruence,
    covers,
    crt_solve,
    is_finite,
    is_prime,
    perfect_power,
    power_exponent,
    prime_divisors,
    rational_mod,
    vp,
)


@given(st.integers(-10**6, 10**6).filter(lambda n: n != 0),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_vp_matches_naive_division(n, p):
    assert vp(n, p) == brute_int_vp(n, p)


@settings(deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 101]), st.integers(0, 300),
       st.integers(1, 10 ** 40), st.booleans())
def test_vp_ladder_matches_division_loop(p, v, u, negative):
    # valuations up to 300, where the ladder of p^(2^i) has nine rungs
    n = (-1) ** negative * u * p ** v
    assert vp(n, p) == brute_int_vp(n, p)
    assert vp(Fraction(u, n), p) == brute_int_vp(u, p) - brute_int_vp(n, p)


@settings(deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 101, 2 ** 31 - 1]), st.integers(0, 3000),
       st.sampled_from([-1, 0, 1, "p", "2n"]))
def test_power_exponent_matches_repeated_division(p, k, offset):
    # p^k itself, its neighbours, p^(k+1) and 2*p^k: only powers of p pass
    n = p ** k
    n += {"p": n * (p - 1), "2n": n}.get(offset, offset)
    if n < 1:
        return
    m = n // p ** brute_int_vp(n, p)
    expected = brute_int_vp(n, p) if m == 1 else None
    assert power_exponent(n, p) == expected
    assert power_exponent(-n, p) is None and power_exponent(0, p) is None


def test_perfect_power_matches_a_brute_force_search():
    prime_powers = {(p ** e, e): p for p in primes_below(10 ** 4 + 1)
                    for e in range(1, 21) if p ** e <= 10 ** 4}
    for e in range(1, 21):
        for n in range(-2, 10 ** 4 + 1):
            assert perfect_power(n, e) == prime_powers.get((n, e)), (n, e)
    # an exponent past n's bit length answers at once
    assert perfect_power(12345, 3 * 10 ** 6) is None


def test_vp_of_large_powers():
    assert vp(2 ** 100000, 2) == 100000
    assert vp(7 * 3 ** 50000, 3) == 50000
    assert vp(-(5 ** 300) * 101 ** 299, 101) == 299


@given(st.fractions(max_denominator=500), st.fractions(max_denominator=500),
       st.sampled_from([2, 3, 5]))
def test_vp_ultrametric(x, y, p):
    if x == 0 or y == 0:
        return
    vx, vy, vs = vp(x, p), vp(y, p), vp(x + y, p)
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


@given(st.fractions(max_denominator=500), st.fractions(max_denominator=500),
       st.sampled_from([2, 3, 5]))
def test_vp_is_multiplicative(x, y, p):
    if x == 0 or y == 0:
        return
    assert vp(x * y, p) == vp(x, p) + vp(y, p)


def test_vp_zero_is_infinite():
    assert vp(0, 7) is INFINITY
    assert not is_finite(vp(Fraction(0), 2))
    assert INFINITY > 10**9


@pytest.mark.parametrize("p", [1, 0, -3])
def test_vp_refuses_a_base_below_two(p):
    # at p = 1 the division ladder would square the rung 1 forever
    with pytest.raises(PreconditionError, match=f"expected a prime, got {p}"):
        vp(4, p)


def test_vp_of_fractions():
    assert vp(Fraction(8, 3), 2) == 3
    assert vp(Fraction(3, 8), 2) == -3
    assert vp(Fraction(9, 4), 3) == 2


@given(st.fractions(max_denominator=300), st.sampled_from([2, 3, 5, 7]),
       st.integers(1, 5))
def test_rational_mod_is_modular_inverse_evaluation(x, p, k):
    mod = p ** k
    if vp(x, p) < 0:
        with pytest.raises(PreconditionError):
            rational_mod(x, mod)
        return
    r = rational_mod(x, mod)
    assert 0 <= r < mod
    # r * den == num  (mod p^k)
    assert (r * x.denominator - x.numerator) % mod == 0


def test_rational_mod_frozen_cases():
    assert rational_mod(Fraction(1, 3), 8) == 3      # 3*3 = 9 = 1 mod 8
    assert rational_mod(Fraction(-7), 72) == 65
    assert rational_mod(Fraction(5, 7), 9) == 2      # 2*7 = 14 = 5 mod 9


def brute_crt(congruences):
    if not congruences:
        return None
    joint = math.lcm(*(c.modulus for c in congruences))
    hits = [r for r in range(joint)
            if all((r - c.residue) % c.modulus == 0 for c in congruences)]
    return hits, joint


# the oracle enumerates the joint modulus, up to about 2.7e5 residues,
# which can pass hypothesis's default 200 ms deadline on a loaded host
@settings(deadline=None)
@given(st.lists(st.builds(Congruence, st.integers(0, 40),
                          st.integers(2, 40)), min_size=1, max_size=4))
def test_crt_solve_matches_enumeration(congruences):
    congruences = [Congruence(c.residue % c.modulus, c.modulus)
                   for c in congruences]
    hits, joint = brute_crt(congruences)
    solved = crt_solve(congruences)
    if solved is None:
        assert hits == []
    else:
        assert solved.modulus == joint
        assert hits == [solved.residue % joint]


def test_crt_frozen_example():
    combined = crt_solve([Congruence(1, 8), Congruence(2, 9)])
    assert (combined.residue, combined.modulus) == (65, 72)


def test_primes_below_matches_sieve():
    def sieve(n):
        flags = [True] * n
        flags[0:2] = [False, False]
        for i in range(2, int(n ** 0.5) + 1):
            if flags[i]:
                flags[i * i::i] = [False] * len(flags[i * i::i])
        return [i for i, f in enumerate(flags) if f]

    assert primes_below(1000) == sieve(1000)


@given(st.integers(2, 10**6))
def test_is_prime_matches_trial_division(n):
    truth = all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert is_prime(n) == truth


def test_is_prime_large_known_values():
    assert is_prime(2 ** 61 - 1)            # Mersenne prime
    assert not is_prime(2 ** 62 - 1)
    assert is_prime(10 ** 9 + 7)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to few bases


def test_is_prime_past_the_twelve_base_bound():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # base 2..37, so the thirteenth base 41 is what exposes it
    assert not is_prime(318665857834031151167461)
    assert is_prime(2 ** 79 - 67)           # largest prime below 2^79
    # psi_13 fools bases 2..41 too; from it on, a number with no factor
    # among the witnesses is refused, and one with such a factor decided
    with pytest.raises(PreconditionError):
        is_prime(3317044064679887385961981)
    assert not is_prime(41 * 3317044064679887385961981)


def test_prime_divisors():
    assert prime_divisors(720720) == (2, 3, 5, 7, 11, 13)
    assert prime_divisors(-(10 ** 9 + 7)) == (10 ** 9 + 7,)
    # the scan bound itself is tried: 7 splits off, and 10007 is prime
    assert prime_divisors(7 * 10007, Config(prime_scan_bound=7)) == (7, 10007)
    # two factors past the scan bound leave a cofactor it cannot split
    with pytest.raises(ResourceLimitError):
        prime_divisors(10007 * 10009)


# ---------------------------------------------------------------------------
# the covering kernel against a scan of the lifts
# ---------------------------------------------------------------------------

# divisors of 5040, small ones repeated so that covering systems turn up
_MODULI = [1, 2, 2, 3, 3, 4, 4, 6, 6, 12, 12, 5, 7, 8, 9, 10, 14, 15, 16,
           18, 20, 24, 30, 36, 48, 60, 72, 720, 5040]
_classes = st.builds(Congruence, st.integers(0, 5039), st.sampled_from(_MODULI))


@settings(deadline=None)
@given(st.lists(_classes, max_size=12), st.integers(0, 5039),
       st.sampled_from(_MODULI))
def test_covers_matches_lift_scan_on_exclusion_sets(classes, r, m):
    assert covers(r, m, classes) == brute_covers(r, m, classes)


@settings(deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.lists(st.tuples(st.integers(0, 10 ** 4), st.integers(0, 5)),
                max_size=40),
       st.integers(0, 10 ** 4), st.integers(0, 3))
def test_covers_matches_lift_scan_on_ball_covers(p, cover, center, depth):
    classes = [Congruence(c, p ** k) for c, k in cover]
    assert (covers(center, p ** depth, classes)
            == brute_covers(center, p ** depth, classes))


def test_covering_system_of_erdos():
    system = [Congruence(0, 2), Congruence(0, 3), Congruence(1, 4),
              Congruence(5, 6), Congruence(7, 12)]
    assert covers(0, 1, system)
    assert not covers(0, 1, system[:-1])
    assert not covers(0, 1, [])
    assert covers(3, 8, [Congruence(1, 2)])


def test_covers_caps_its_nodes():
    # every class mod 1024 but 0 and every class mod 512 but 0: the shares
    # sum past 1 down to 0 mod 256, so the check splits eight times
    classes = ([Congruence(r, 1024) for r in range(1, 1024)]
               + [Congruence(r, 512) for r in range(1, 512)])
    assert not covers(0, 1, classes)
    with pytest.raises(ResourceLimitError):
        covers(0, 1, classes, Config(residue_cap=10))
