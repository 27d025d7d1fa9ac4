"""Independent checks for every answer the benchmark receives from ivp.

Nothing here imports ivp or tests/oracles.py, and no check asks the
program to confirm its own answer.  Each check rests on a separate piece
of mathematics:

* integer-valuedness on a ball c + p^k Z_p: the Polya criterion, f is
  integer valued there iff f(c + p^k j) is p-integral for j = 0..deg f;
* points by direct evaluation; a geometric sequence by direct evaluation
  up to the index where g(x) mod p^m stops changing, plus its limit;
* roots of X^2 - a from the Legendre symbol (mod 8 at p = 2), roots of
  the fifth cyclotomic polynomial from p mod 5, and every root
  certificate re-checked against Hensel's inequality;
* closures of integer sets and adelic questions by counting, with the
  Chinese remainder theorem, which residue classes the exclusions cover.

Sets are described by LocalSet, a plain record the workloads build
alongside the program's own objects from the same raw numbers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------------------
# valuations and evaluation
# ---------------------------------------------------------------------------


def ival(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, by a squaring ladder."""
    n = abs(n)
    if n % p:
        return 0
    if p == 2:
        return (n & -n).bit_length() - 1
    ladder = [p]
    while True:
        nxt = ladder[-1] * ladder[-1]
        if nxt > n or n % nxt:
            break
        ladder.append(nxt)
    v = 0
    for k in range(len(ladder) - 1, -1, -1):
        if n % ladder[k] == 0:
            n //= ladder[k]
            v += 1 << k
    return v


def val(x, p: int):
    """p-adic valuation of a rational; None stands for the valuation of 0."""
    x = Fraction(x)
    if x == 0:
        return None
    return ival(x.numerator, p) - ival(x.denominator, p)


def residue(x, modulus: int) -> int:
    """The integer in [0, modulus) congruent to a p-integral rational."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def peval(coeffs, x) -> Fraction:
    """Value of sum coeffs[i] * x^i, coefficients low to high."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    d = len(coeffs) - 1
    total = sum(int(c) * a ** i * b ** (d - i) for i, c in enumerate(coeffs))
    return Fraction(total, b ** d) if d > 0 else Fraction(total)


def deriv(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


# ---------------------------------------------------------------------------
# local sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalSet:
    """balls (center, depth); points; seqs (limit, scale, start, with_limit)."""

    p: int
    balls: tuple = ()
    points: tuple = ()
    seqs: tuple = ()

    def closure(self) -> "LocalSet":
        return LocalSet(self.p, self.balls, self.points,
                        tuple((c, s, n, True) for c, s, n, _ in self.seqs))


def seq_index(x, limit, scale, start, p):
    """n >= start with limit + scale * p^n == x, else None."""
    t = (Fraction(x) - limit) / scale
    if t <= 0:
        return None
    n = val(t, p)
    return n if n >= start and t == Fraction(p) ** n else None


def contains(s: LocalSet, x) -> bool:
    x = Fraction(x)
    p = s.p
    for c, k in s.balls:
        v = val(x - c, p)
        if v is None or v >= k:
            return True
    if x in s.points:
        return True
    for c, sc, n0, inc in s.seqs:
        if (inc and x == c) or seq_index(x, c, sc, n0, p) is not None:
            return True
    return False


def test_points(s: LocalSet, m: int, deg: int):
    """Elements that decide whether a polynomial g/d with vp(d) = m and
    degree deg is integral on the closure of s."""
    p = s.p
    for c, k in s.balls:
        for j in range(deg + 1):                  # Polya
            yield Fraction(c + p ** k * j)
    yield from s.points
    for c, sc, n0, _ in s.seqs:
        yield c                                   # the limit
        sv = val(sc, p) + n0
        for n in range(max(0, m - sv)):           # before g(x) mod p^m settles
            yield c + sc * Fraction(p) ** (n0 + n)


def integer_valued(coeffs, den: int, s: LocalSet) -> bool:
    """Is (sum coeffs[i] X^i)/den integral at every point of the closure of s?"""
    m = ival(den, s.p)
    if m == 0:
        return True
    deg = len(coeffs) - 1
    for x in test_points(s, m, deg):
        v = val(peval(coeffs, x), s.p)
        if v is not None and v < m:
            return False
    return True


def separates(poly, s: LocalSet, alpha) -> bool:
    """The program's polynomial (coeffs, denominator) is integral on the
    closure of s and not integral at alpha."""
    if not integer_valued(list(poly.coeffs), poly.denominator, s):
        return False
    v = val(peval(list(poly.coeffs), alpha) / poly.denominator, s.p)
    return v is not None and v < 0


# ---------------------------------------------------------------------------
# roots and maximal valuations
# ---------------------------------------------------------------------------


def square_root_count(a: int, p: int) -> int:
    """Roots of X^2 - a in Z_p for a nonzero non-square integer a."""
    v = ival(a, p)
    if v % 2:
        return 0
    u = a // p ** v
    if p == 2:
        return 2 if u % 8 == 1 else 0
    return 2 if pow(u % p, (p - 1) // 2, p) == 1 else 0


def cyclotomic5_root_count(p: int) -> int:
    """Roots of X^4 + X^3 + X^2 + X + 1 in Z_p: p = 1 mod 5 splits it."""
    return 4 if p % 5 == 1 else 0


def hensel_holds(coeffs, p: int, center: int, depth: int) -> bool:
    """vp(q(c)) >= depth + vp(q'(c)) with vp(q'(c)) < depth: Newton's
    iteration from c converges to a root, unique in c + p^depth Z_p."""
    t = val(peval(coeffs, center), p)
    s = val(peval(deriv(coeffs), center), p)
    return t is not None and s is not None and s < depth and t >= depth + s


def ball_inside(center: int, depth: int, s: LocalSet) -> bool:
    return any(depth >= k and (center - c) % s.p ** k == 0 for c, k in s.balls)


def certificates_ok(coeffs, s: LocalSet, certs, expected: int) -> bool:
    """One certificate per root of q in the balls of s, each valid."""
    p = s.p
    if len(certs) != expected:
        return False
    balls = []
    for cert in certs:
        b = cert.ball
        if not ball_inside(b.center, b.depth, s):
            return False
        if cert.value is not None:
            if peval(coeffs, cert.value) != 0:
                return False
            v = val(cert.value - b.center, p)
            if v is not None and v < b.depth:
                return False
        elif not hensel_holds(coeffs, p, cert.center, b.depth):
            return False
        balls.append((b.center, b.depth))
    for (c1, k1), (c2, k2) in combinations(balls, 2):
        if (c1 - c2) % p ** min(k1, k2) == 0:
            return False                          # two certificates, one root
    return True


def max_valuation_ok(coeffs, s: LocalSet, value, witness,
                     residue_cap: int = 1 << 20) -> bool:
    """The witness lies in the closure and attains value, and q has no
    zero mod p^(value+1) anywhere on the closure."""
    p = s.p
    if not isinstance(value, int) or witness is None:
        return False
    s = s.closure()
    if not contains(s, witness) or val(peval(coeffs, witness), p) != value:
        return False
    top = p ** (value + 1)
    for c, k in s.balls:
        if k >= value + 1:
            if peval(coeffs, c).numerator % top == 0:
                return False
            continue
        count = p ** (value + 1 - k)
        if count > residue_cap:
            return False
        step = p ** k
        for j in range(count):
            if peval(coeffs, c + j * step).numerator % top == 0:
                return False
    for x in s.points:
        v = val(peval(coeffs, x), p)
        if v is None or v > value:
            return False
    for c, sc, n0, _ in s.seqs:
        v0 = val(peval(coeffs, c), p)
        if v0 is None or v0 > value:
            return False
        # past vp(scale) + n > v0 the valuation is v0 for good
        sv = val(sc, p) + n0
        for n in range(max(0, v0 - sv + 1)):
            v = val(peval(coeffs, c + sc * Fraction(p) ** (n0 + n)), p)
            if v is None or v > value:
                return False
    return True


def sup_valuation(coeffs, s: LocalSet, residue_cap: int = 1 << 20):
    """Largest vp(q(x)) over the closure of s; None when q has a root
    there (or the residue count would pass residue_cap)."""
    p = s.p
    s = s.closure()
    best = 0
    for c, k in s.balls:
        v = 0
        while True:                   # is there a zero mod p^(v+1)?
            top = p ** (v + 1)
            count = p ** max(0, v + 1 - k)
            if count > residue_cap:
                return None
            if not any(peval(coeffs, c + j * p ** k).numerator % top == 0
                       for j in range(count)):
                break
            v += 1
        best = max(best, v)
    for x in s.points:
        v = val(peval(coeffs, x), p)
        if v is None:
            return None
        best = max(best, v)
    for c, sc, n0, _ in s.seqs:
        v0 = val(peval(coeffs, c), p)
        if v0 is None:
            return None
        best = max(best, v0)
        sv = val(sc, p) + n0
        for n in range(max(0, v0 - sv + 1)):
            v = val(peval(coeffs, c + sc * Fraction(p) ** (n0 + n)), p)
            if v is None:
                return None
            best = max(best, v)
    return best


# ---------------------------------------------------------------------------
# irreducibility modulo a prime, density of the primes
# ---------------------------------------------------------------------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, f, ell):
    """a mod f over F_ell, f monic."""
    a = _trim([x % ell for x in a])
    d = len(f) - 1
    while len(a) > d:
        c, shift = a[-1], len(a) - 1 - d
        for i, fc in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fc) % ell
        _trim(a)
    return a


def _pmulmod(a, b, f, ell):
    out = [0] * max(1, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _pmod(out, f, ell)


def _pgcd(a, b, ell):
    a, b = _trim([x % ell for x in a]), _trim([x % ell for x in b])
    while b:
        inv = pow(b[-1], -1, ell)
        a = _pmod(a, [x * inv % ell for x in b], ell)
        a, b = b, a
    return a


def irreducible_mod(coeffs, ell: int) -> bool:
    """f mod ell keeps its degree n and has no factor of degree <= n/2:
    gcd(f, X^(ell^i) - X) = 1 for i = 1..n/2."""
    n = len(coeffs) - 1
    if coeffs[-1] % ell == 0:
        return False
    inv = pow(coeffs[-1], -1, ell)
    f = [c * inv % ell for c in coeffs]
    h = [0, 1]
    for _ in range(n // 2):
        power, base, e = [1], h, ell
        while e:                                   # h <- h^ell mod f
            if e & 1:
                power = _pmulmod(power, base, f, ell)
            base = _pmulmod(base, base, f, ell)
            e >>= 1
        h = power
        diff = h + [0] * max(0, 2 - len(h))
        diff[1] -= 1
        if len(_pgcd(f, diff, ell)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def primes_dense_in_units_and_p(bound: int = 10_000) -> bool:
    """Every class mod p^2 holding a unit or p itself holds one of the
    primes, 1 or -1, for p = 2, 3, 5, 7 (Dirichlet, checked below bound)."""
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    found = [n for n in range(bound) if sieve[n]] + [1, -1]
    for p in (2, 3, 5, 7):
        q = p * p
        hit = {n % q for n in found}
        if any(c % p or c == p for c in range(q) if c not in hit):
            return False
    return True


# ---------------------------------------------------------------------------
# equality of canonical forms, families of balls
# ---------------------------------------------------------------------------


def normal_seq(limit, scale, start, p):
    return (Fraction(limit), Fraction(scale) * Fraction(p) ** start)


def same_set(out, s: LocalSet) -> bool:
    """Does the program's set (balls, points, sequences) equal s?

    Both sides must list the same disjoint balls, the same points outside
    them and the same sequences once started at index 0; s is written so
    that nothing of it is redundant.
    """
    p = s.p
    if out.p != p:
        return False
    if sorted((b.center % p ** b.depth, b.depth) for b in out.balls) != \
            sorted((c % p ** k, k) for c, k in s.balls):
        return False
    if sorted(out.points) != sorted(Fraction(x) for x in s.points):
        return False
    got = sorted((*normal_seq(q.limit, q.scale, q.start, p), q.include_limit)
                 for q in out.seqs)
    want = sorted((*normal_seq(c, sc, n0, p), inc) for c, sc, n0, inc in s.seqs)
    return got == want


def is_full(out) -> bool:
    return ([(b.center, b.depth) for b in out.balls] == [(0, 0)]
            and not out.points and not out.seqs)


def one_short_ok(out, p: int, k: int, missing: int) -> bool:
    """All classes mod p^k but one: (p-1)k disjoint balls, none holding
    the missing class, of total measure 1 - p^-k."""
    balls = [(b.center, b.depth) for b in out.balls]
    if out.points or out.seqs or len(balls) != (p - 1) * k:
        return False
    if any((missing - c) % p ** d == 0 for c, d in balls):
        return False
    if sum(Fraction(1, p ** d) for _, d in balls) != 1 - Fraction(1, p ** k):
        return False
    return all((c1 - c2) % p ** min(d1, d2) != 0
               for (c1, d1), (c2, d2) in combinations(balls, 2))


def tail_matches(seq, from_n, limit, scale, start, p) -> bool:
    """Elements of seq from index from_n are those of the given sequence."""
    got = normal_seq(seq.limit, seq.scale, seq.start + from_n, p)
    return got == normal_seq(limit, scale, start, p)


# ---------------------------------------------------------------------------
# integer sets: Z minus congruence classes, plus extras
# ---------------------------------------------------------------------------


def crt(pairs):
    """Solve x = r mod m for all pairs; (residue, modulus) or None."""
    r, m = 0, 1
    for r2, m2 in pairs:
        g = math.gcd(m, m2)
        if (r2 - r) % g:
            return None
        lcm = m // g * m2
        t = (r2 - r) // g * pow(m // g, -1, m2 // g) % (m2 // g)
        r, m = (r + m * t) % lcm, lcm
    return r, m


@dataclass(frozen=True)
class IntSet:
    """Z minus the classes (r, m), plus the integers in extra."""

    excluded: tuple
    extra: tuple = ()

    @property
    def modulus(self) -> int:
        return math.lcm(*(m for _, m in self.excluded))

    def member(self, n: int) -> bool:
        return n in self.extra or all((n - r) % m for r, m in self.excluded)

    def progression_meets(self, c: int, q: int) -> bool:
        """Does c + qZ hold an integer outside every excluded class?

        Inclusion-exclusion over the exclusions: each subset whose classes
        are CRT-compatible with c mod q covers one class mod the lcm, so
        its share of the progression is q / lcm.
        """
        covered = Fraction(0)
        for size in range(1, len(self.excluded) + 1):
            for subset in combinations(self.excluded, size):
                sol = crt([(c, q), *subset])
                if sol is not None:
                    covered += (-1) ** (size + 1) * Fraction(q, sol[1])
        return covered < 1

    def depth(self, p: int) -> int:
        return ival(self.modulus, p) + 1

    def closure_member(self, x, p: int) -> bool:
        d = self.depth(p)
        return (x in self.extra
                or self.progression_meets(residue(x, p ** d), p ** d))

    def adelic_member(self, cand) -> bool:
        """One integer of the set within p^N of every coordinate, all N."""
        values = {x for _, x in cand}
        if len(values) == 1:
            (x,) = values
            if x.denominator == 1 and int(x) in self.extra:
                return True
        pairs = [(residue(x, p ** self.depth(p)), p ** self.depth(p))
                 for p, x in cand]
        c, q = crt(pairs)
        return self.progression_meets(c, q)

    def closure_ok(self, out, p: int) -> bool:
        """The program's closure in Z_p: exactly the classes mod p^D that
        meet the set, plus the extras, D one past vp of the modulus."""
        if out.p != p or out.seqs:
            return False
        d = self.depth(p)
        deepest = max([d] + [b.depth for b in out.balls])
        if p ** deepest > 1 << 20:
            return False
        step = p ** (deepest - d)
        want = {c + j * p ** d for c in range(p ** d)
                if self.progression_meets(c, p ** d) for j in range(step)}
        got = set()
        for b in out.balls:
            got.update(b.center % p ** b.depth + j * p ** b.depth
                       for j in range(p ** (deepest - b.depth)))
        if got != want:
            return False
        top = p ** deepest
        points = set(out.points)
        for x in points:
            if x not in self.extra and residue(x, top) not in want:
                return False
        return all(Fraction(n) in points or n % top in want
                   for n in self.extra)


# ---------------------------------------------------------------------------
# text forms printed by the command line
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)\s*(\d*)\s*\*?\s*(X(?:\^(\d+))?)?")


def parse_poly_text(text: str):
    """'(X^3 - 7*X^2 + 14*X - 8)/4' -> ([-8, 14, -7, 1], 4)."""
    text = text.strip()
    den = 1
    m = re.fullmatch(r"\((.*)\)/(\d+)", text)
    if m:
        text, den = m.group(1), int(m.group(2))
    coeffs: dict[int, int] = {}
    pos = 0
    body = text.replace(" ", "")
    while pos < len(body):
        m = _TERM.match(body, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial text {text!r}")
        sign, num, xpart, exp = m.groups()
        c = int(num) if num else 1
        if sign == "-":
            c = -c
        e = (int(exp) if exp else 1) if xpart else 0
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
    deg = max(coeffs)
    return [coeffs.get(i, 0) for i in range(deg + 1)], den


def parse_pairs(text: str):
    """'2: 65, 3: 65' -> ((2, Fraction(65)), (3, Fraction(65)))."""
    out = []
    for part in text.split(","):
        p, _, x = part.partition(":")
        out.append((int(p), Fraction(x.strip())))
    return tuple(out)


def parse_ball_text(text: str):
    """'ball(2, 1, 2)' -> (2, 1, 2)."""
    m = re.fullmatch(r"ball\((\d+),\s*(-?\d+),\s*(\d+)\)", text.strip())
    return tuple(int(g) for g in m.groups())
