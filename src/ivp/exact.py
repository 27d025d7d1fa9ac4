"""Exact integer/rational helpers: p-adic valuations, CRT, covering of
congruence classes, primes.

All arithmetic is exact.  Rationals are ``fractions.Fraction`` (always
reduced, positive denominator); valuations are plain ints except for the
single INFINITY sentinel used for the valuation of zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .config import DEFAULT_CONFIG, Config
from .errors import PreconditionError, charge

Rat = Union[int, Fraction]


class _Infinity:
    """Sentinel for the valuation of 0; compares above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ivp-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("negated infinity is not representable")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()
Valuation = Union[int, _Infinity]


def is_finite(v: Valuation) -> bool:
    return v is not INFINITY


def check_prime_arg(p: int) -> None:
    if not isinstance(p, int) or p < 2 or not is_prime(p):
        raise PreconditionError(f"expected a prime, got {p!r}")


def vp(x: Rat, p: int) -> Valuation:
    """p-adic valuation of a rational; vp(0) is INFINITY."""
    if p < 2:
        raise PreconditionError(f"expected a prime, got {p!r}")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _int_vp(x.numerator, p) - _int_vp(x.denominator, p)


def _int_vp(n: int, p: int) -> int:
    # n != 0.  At 2 the lowest set bit; otherwise divide out p, p^2, p^4, ...
    # while they divide, then peel the same rungs back down: the rungs taken
    # spell the rest of the valuation in binary, in O(log vp) divisions
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    count, rungs = 0, [p]
    while n % rungs[-1] == 0:
        n //= rungs[-1]
        count += 1 << (len(rungs) - 1)
        rungs.append(rungs[-1] * rungs[-1])
    for i in range(len(rungs) - 2, -1, -1):
        if n % rungs[i] == 0:
            n //= rungs[i]
            count += 1 << i
    return count


def power_exponent(n: int, p: int) -> Optional[int]:
    """The k with p**k == n, or None.

    Exact and free of divisions by large numbers.  With rung = p^(2^i)
    of bit length r, 2^i*log2(p) lies in [r - 1, r), and n = p^k has
    bit length b with k*log2(p) in [b - 1, b); so k lies between
    (b - 1)*2^i/r and b*2^i/(r - 1).  Squaring the rung up to about
    sqrt(n) leaves at most a few candidates, tried upwards from p^lo.
    """
    if n < 1 or (n > 1 and n % p):
        return None
    b = n.bit_length()
    i, rung = 0, p
    while 2 * rung.bit_length() <= b:
        rung *= rung
        i += 1
    r = rung.bit_length()
    k, hi = ((b - 1) << i) // r, (b << i) // (r - 1)
    power = p ** k
    while power < n and k < hi:
        power *= p
        k += 1
    return k if power == n else None


def perfect_power(n: int, e: int) -> Optional[int]:
    """The prime b with n = b^e, if there is one: the prime at which the
    power(e) tail rule pins n.  Such a b is at least 2 and below
    2^(bitlen(n)/e + 1), so the bisection never powers past n's size and
    there is none when e exceeds bitlen(n).  A base past the bound where
    is_prime decides also gives None: prime_divisors(n) cannot certify
    such a base prime either, and raises there."""
    if n < 2 or e > n.bit_length():
        return None
    lo, hi = 2, 1 << (n.bit_length() // e + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        power = mid ** e
        if power == n:
            return mid if mid < _MR_BOUND and is_prime(mid) else None
        if power < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def check_printable(factor: Rat, p: int, exponent: int, what: str,
                    error: type = PreconditionError) -> None:
    """Reject factor * p^exponent, before forming it, when its numerator
    would pass the interpreter's limit on printing integers: a set built
    from it could be computed but never written out.  The message names
    the number as what, then p^exponent."""
    limit = sys.get_int_max_str_digits()
    # an int or a Fraction: zero is printable, and has one digit
    digits = (math.log10(abs(factor.numerator) or 1)
              + max(exponent, 0) * math.log10(p))
    if limit and digits > limit:
        raise error(f"{what}{p}^{exponent} has about {digits:.0f} digits, "
                    f"over the {limit}-digit limit on printing integers")


def rational_mod(x: Rat, modulus: int) -> int:
    """Reduce a rational with denominator prime to `modulus` into [0, modulus).

    The denominator is inverted modulo `modulus`, so the result is the
    unique residue r with x = r in Z/modulus under the canonical map.
    """
    if modulus < 1:
        raise PreconditionError(f"modulus must be positive, got {modulus}")
    if modulus == 1:
        return 0
    x = Fraction(x)
    den = x.denominator
    if math.gcd(den, modulus) != 1:
        raise PreconditionError(
            f"denominator {den} not invertible mod {modulus}")
    return (x.numerator * pow(den, -1, modulus)) % modulus


@dataclass(frozen=True)
class Congruence:
    """The arithmetic progression residue + modulus*Z."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise PreconditionError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def contains(self, n: int) -> bool:
        return n % self.modulus == self.residue

    def __str__(self):
        return f"{self.residue} mod {self.modulus}"


def crt_solve(congruences: Sequence[Congruence]) -> Optional[Congruence]:
    """Combine congruences into one, or None when they are inconsistent.

    Moduli need not be coprime; compatibility is checked pairwise through
    the usual gcd condition while folding.
    """
    residue, modulus = 0, 1
    for c in congruences:
        g = math.gcd(modulus, c.modulus)
        if (c.residue - residue) % g != 0:
            return None
        lcm = modulus // g * c.modulus
        # lift: residue + modulus*t = c.residue (mod c.modulus)
        t = ((c.residue - residue) // g * pow(modulus // g, -1, c.modulus // g)) % (c.modulus // g)
        residue = (residue + modulus * t) % lcm
        modulus = lcm
    return Congruence(residue, modulus)


def covers(residue: int, modulus: int, classes: Sequence[Congruence],
           config: Config = DEFAULT_CONFIG) -> bool:
    """Does the union of `classes` contain every n = residue mod modulus?

    Each node is a class r mod M.  A class rᵢ mod mᵢ meets it iff
    gcd(M, mᵢ) divides r - rᵢ, and then covers the share gcd(M, mᵢ)/mᵢ
    of it.  The node is covered when some meeting class has mᵢ | M, and
    escapes when the shares of the meeting classes sum to less than 1.
    Otherwise it splits into its q classes mod qM, for a prime q of a
    relative modulus mᵢ/gcd(M, mᵢ); M then grows towards the lcm of the
    mᵢ, where one of the first two answers must hold.  Deciding covering
    systems is hard in general, so the nodes are capped by residue_cap.
    It serves integer sets only: the p-adic set algebra takes no Config,
    since canonical balls are nested or disjoint.
    """
    stack = [(residue % modulus, modulus, tuple(classes))]
    nodes = 1
    while stack:
        r, m, live = stack.pop()
        live = tuple(c for c in live
                     if (r - c.residue) % math.gcd(m, c.modulus) == 0)
        if any(m % c.modulus == 0 for c in live):
            continue
        if sum(Fraction(math.gcd(m, c.modulus), c.modulus) for c in live) < 1:
            return False
        q = prime_divisors(live[0].modulus // math.gcd(m, live[0].modulus),
                           config)[0]
        nodes += q
        charge(config, "residue_cap", nodes, "covering-check classes")
        stack.extend((r + m * t, m * q, live) for t in range(q))
    return True


# Deterministic Miller-Rabin witnesses: the first thirteen primes decide
# every n below psi_13 (Sorenson and Webster, 2015); larger n are refused.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality: at any size for n with a factor among the
    witnesses, and for every other n below the proven witness bound."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    if n >= _MR_BOUND:
        raise PreconditionError(
            f"{n} exceeds the deterministic primality bound")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iter_primes(bound: Optional[int] = None) -> Iterator[int]:
    """The primes 2, 3, 5, ... in ascending order, up to bound if given."""
    n = 2
    while bound is None or n <= bound:
        if is_prime(n):
            yield n
        n += 1 if n == 2 else 2


def prime_divisors(n: int, config: Config = DEFAULT_CONFIG) -> tuple[int, ...]:
    """Distinct prime factors of n != 0, ascending, by trial division up to
    the configured scan bound plus a primality check on the cofactor."""
    n = abs(n)
    if n == 0:
        raise PreconditionError("0 has every prime divisor")
    out = []
    d = 2
    while d * d <= n and d <= config.prime_scan_bound:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if d * d <= n and not is_prime(n):
            # the scan stopped at the bound, short of the square root
            charge(config, "prime_scan_bound", math.isqrt(n),
                   f"as the trial division bound for cofactor {n}")
        out.append(n)
    return tuple(out)
