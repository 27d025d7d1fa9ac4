"""Brute-force reference implementations used to check the library.

Everything in this file is deliberately naive: direct definitions,
residue enumeration, and exhaustive scanning over one full period.  The
only number-theoretic fact relied on is that an integer-coefficient
polynomial G satisfies vp(G(x) - G(y)) >= vp(x - y) for p-integral x, y
(because G(x) - G(y) is divisible by x - y in Z[x, y]), so conditions of
the form "vp(G(x)) >= m" only depend on x modulo p^m.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ivp.errors import PreconditionError, ResourceLimitError
from ivp.exact import rational_mod, vp
from ivp.overrings import Decision, RuleKind, instantiate, rule_subset
from ivp.padic import (Ball, PAdicSet, SeqWithLimit, canonicalize, closure,
                       is_subset, isolated_points)
from ivp.polys import RatPoly, roots_in_set


def brute_int_vp(n: int, p: int) -> int:
    """vp of an integer n != 0 by dividing out one factor of p at a time."""
    n, count = abs(n), 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def primes_below(bound: int) -> list[int]:
    """All primes < bound by sieve."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(bound) if sieve[i]]


def eval_int_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def brute_member(x, s: PAdicSet) -> bool:
    """Membership straight from the component definitions."""
    x = Fraction(x)
    if vp(x, s.p) < 0:
        return False
    for b in s.balls:
        if vp(x - b.center, s.p) >= b.depth:
            return True
    if any(x == pt for pt in s.points):
        return True
    for q in s.seqs:
        if q.include_limit and x == q.limit:
            return True
        # solve limit + scale * p^n == x for an integer n >= start
        t = (x - q.limit) / q.scale
        if t > 0:
            n = vp(t, s.p)
            if Fraction(s.p) ** n == t and n >= q.start:
                return True
    return False


def brute_in_closure(x, s: PAdicSet) -> bool:
    """x is in s or is the (possibly excluded) limit of one of its seqs."""
    x = Fraction(x)
    return brute_member(x, s) or any(x == q.limit for q in s.seqs)


def _seq_stable_index(q: SeqWithLimit, m: int) -> int:
    """First n with element(n) == limit mod p^m (all later ones agree too)."""
    return max(q.start, m - vp(q.scale, q.p))


def seq_residues(q: SeqWithLimit, m: int) -> set[int]:
    """All residues mod p^m hit by elements of the sequence (the limit's
    residue is hit by every deep element whether or not the limit itself
    belongs to the set)."""
    mod = q.p ** m
    stop = _seq_stable_index(q, m)
    return {rational_mod(q.element(n), mod) for n in range(q.start, stop + 1)}


def set_residues(s: PAdicSet, m: int) -> set[int]:
    """All residues mod p^m hit by the set."""
    mod = s.p ** m
    out = set()
    for b in s.balls:
        step = s.p ** b.depth
        if b.depth >= m:
            out.add(b.center % mod)
        else:
            out.update((b.center + step * t) % mod for t in range(mod // step))
    out.update(rational_mod(pt, mod) for pt in s.points)
    for q in s.seqs:
        out.update(seq_residues(q, m))
    return out


def meets_ball(s: PAdicSet, ball: Ball) -> bool:
    """Does the set intersect the given ball?  Exact: a sequence whose
    limit lies outside the ball stays at a fixed distance from its center
    once the terms are closer to the limit than the limit is to the
    center, so only the elements before that index are checked."""
    if ball.p != s.p:
        raise PreconditionError("ball prime differs from set prime")
    for b in s.balls:
        if b.contains_ball(ball) or ball.contains_ball(b):
            return True
    if any(ball.contains(x) for x in s.points):
        return True
    for q in s.seqs:
        if ball.contains(q.limit):
            return True                 # the tail enters every such ball
        last = q.start - 1
        d = vp(q.limit - ball.center, q.p)
        last = max(last, d - vp(q.scale, q.p))
        if any(ball.contains(q.element(n)) for n in range(q.start, last + 1)):
            return True
    return False


def isolated_closure(s: PAdicSet) -> PAdicSet:
    """Closure of the isolated points of a closed set: its explicit
    isolated points plus each isolated tail, limit included."""
    iso = isolated_points(s)
    seqs = [SeqWithLimit(t.seq.p, t.seq.limit, t.seq.scale, t.from_n, True)
            for t in iso.tails]
    return canonicalize(PAdicSet(s.p, (), iso.explicit, seqs))


def _integer_form(f) -> tuple[list[int], int]:
    """Write f = G / D with G an integer-coefficient polynomial."""
    fractions = f.fraction_coeffs()
    d = math.lcm(*(c.denominator for c in fractions)) if fractions else 1
    return [int(c * d) for c in fractions], d


def brute_int_valued(f, s: PAdicSet) -> bool:
    """Is f p-integral on every element of s?  Exact: balls by residue
    enumeration mod p^m, points and sequences by direct evaluation up to
    the index where the residue mod p^m stops changing."""
    p = s.p
    g, d = _integer_form(f)
    m = vp(d, p)
    if m <= 0:
        return True
    for b in s.balls:
        step = p ** b.depth
        if b.depth >= m:
            picks = [b.center]
        else:
            picks = [b.center + step * t for t in range(p ** (m - b.depth))]
        for r in picks:
            if vp(eval_int_poly(g, r), p) < m:
                return False
    for pt in s.points:
        if vp(f.eval_at(pt), p) < 0:
            return False
    for q in s.seqs:
        for n in range(q.start, _seq_stable_index(q, m) + 1):
            if vp(f.eval_at(q.element(n)), p) < 0:
                return False
        if q.include_limit and vp(f.eval_at(q.limit), p) < 0:
            return False
    return True


def root_residues(coeffs, p: int, k: int) -> set[int]:
    """Solutions of q(x) == 0 mod p^k by full enumeration."""
    mod = p ** k
    return {r for r in range(mod) if eval_int_poly(coeffs, r) % mod == 0}


def brute_tree_events(q, ball: Ball, config):
    """The residue-lifting walk of polys._tree_events with every one of the
    p children of an undecided class walked in turn; yields the same
    (r, m, t, s) events, where a dead class always has t = vp(q(r)) < m."""
    p = ball.p
    qq = RatPoly(q.coeffs)
    depth_cap = ball.depth + 2 * vp(resultant(qq, qq.derivative()), p) + 8
    stack = [(ball.center, ball.depth)]
    visited = 0
    while stack:
        r, m = stack.pop()
        visited += 1
        if visited > config.residue_cap:
            raise ResourceLimitError("p-way walk over the residue cap",
                                     visited, config.residue_cap)
        t = vp(eval_int_poly(q.coeffs, r), p)
        if t < m:
            yield r, m, t, None
            continue
        s = vp(eval_int_poly(q.derivative_coeffs, r), p)
        if s < m and t >= m + s:
            yield r, m, t, s
            continue
        if m >= depth_cap:
            raise ResourceLimitError("p-way walk over the depth cap",
                                     m, depth_cap)
        stack.extend((r + j * p ** m, m + 1) for j in range(p))


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0 by trial division up to sqrt(|n|)."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(coeffs) -> tuple[Fraction, ...]:
    """All rational roots of an integer polynomial: every +-a/b with a
    dividing the lowest nonzero coefficient and b the leading one."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise PreconditionError("zero polynomial has every root")
    roots = []
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
        coeffs = coeffs[low:]
    seen = set()
    for num in _divisors(coeffs[0]):
        for den in _divisors(coeffs[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in seen:
                    seen.add(cand)
                    if eval_int_poly(coeffs, cand) == 0:
                        roots.append(cand)
    return tuple(sorted(roots))


def _monic_mod(coeffs, ell) -> list[int]:
    """coeffs mod ell divided by their leading coefficient; [] when they
    all vanish mod ell."""
    f = [c % ell for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return []
    inv = pow(f[-1], -1, ell)
    return [c * inv % ell for c in f]


def _rem_mod(a, f, ell) -> list[int]:
    """The remainder of a on division by the monic f over F_ell, with
    trailing zeros cut."""
    a = [c % ell for c in a]
    d = len(f) - 1
    while len(a) > d:
        top = a.pop()
        for j in range(d):
            a[len(a) - d + j] = (a[len(a) - d + j] - top * f[j]) % ell
    while a and a[-1] == 0:
        a.pop()
    return a


def _mulmod(a, b, f, ell) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _rem_mod(out, f, ell)


def _gcd_mod(a, b, ell) -> list[int]:
    """Monic gcd over F_ell of two polynomials reduced mod ell."""
    while b:
        b = _monic_mod(b, ell)
        a, b = b, _rem_mod(a, b, ell)
    return a


def rabin_irreducible(coeffs, ell: int) -> bool:
    """Rabin's test (SIAM J. Comput. 9, 1980): the reduction f of degree
    d >= 1 is irreducible over F_ell iff X^(ell^d) = X mod f and
    gcd(f, X^(ell^(d/r)) - X) = 1 for every prime r dividing d.  Every
    power and remainder is taken mod f, X itself included."""
    f = _monic_mod(coeffs, ell)
    d = len(f) - 1
    if d < 1:
        return False
    x = _rem_mod([0, 1], f, ell)

    def frobenius_minus_x(k):
        out, base, e = [1], x, ell ** k
        while e:
            if e & 1:
                out = _mulmod(out, base, f, ell)
            base = _mulmod(base, base, f, ell)
            e >>= 1
        diff = out + [0] * (len(x) - len(out))
        for i, c in enumerate(x):
            diff[i] = (diff[i] - c) % ell
        return _rem_mod(diff, f, ell)

    if frobenius_minus_x(d):
        return False
    prime_factors = [r for r in range(2, d + 1)
                     if d % r == 0 and all(r % s for s in range(2, r))]
    return all(len(_gcd_mod(f, frobenius_minus_x(d // r), ell)) == 1
               for r in prime_factors)


def brute_irreducible(coeffs, ell: int) -> bool:
    """Irreducibility over F_ell by trying every monic divisor of degree
    1 to d/2; for small ell and d only."""
    f = _monic_mod(coeffs, ell)
    d = len(f) - 1
    if d < 1:
        return False
    for k in range(1, d // 2 + 1):
        for n in range(ell ** k):
            g = [n // ell ** i % ell for i in range(k)] + [1]
            if not _rem_mod(f, g, ell):
                return False
    return True


def residues_of_ball_free_set(s: PAdicSet, modulus: int) -> set[int]:
    """The residues mod `modulus` of the points, limits and sequence
    elements of s, a set with no ball; `modulus` is prime to p and to
    every denominator of s.  Each sequence contributes one period of p
    mod `modulus` from its first element on, found by stepping p^k."""
    out = {rational_mod(x, modulus) for x in s.points}
    for q in s.seqs:
        limit = rational_mod(q.limit, modulus)
        out.add(limit)
        first = step = (rational_mod(q.unit, modulus)
                        * pow(q.p, q.head, modulus) % modulus)
        while True:
            out.add((limit + step) % modulus)
            step = step * q.p % modulus
            if step == first:
                break
    return out


def brute_max_valuation_lower_bound(q_coeffs, s: PAdicSet, depth: int):
    """max vp(q(x)) over a finite probe of s (every residue the set hits
    mod p^depth is represented by an actual element).  A certified lower
    bound for the supremum; INFINITY when a probe is an exact root."""
    from ivp.exact import INFINITY, is_finite
    p = s.p
    best = None
    for x in probe_elements(s, depth):
        value = sum(Fraction(c) * Fraction(x) ** i
                    for i, c in enumerate(q_coeffs))
        v = vp(value, p)
        if not is_finite(v):
            return INFINITY
        if best is None or v > best:
            best = v
    return best


def probe_elements(s: PAdicSet, depth: int):
    """Concrete elements of s covering every residue mod p^depth it hits."""
    p = s.p
    out: list = []
    for b in s.balls:
        step = p ** b.depth
        if b.depth >= depth:
            out.append(b.center)
        else:
            out.extend(b.center + step * t for t in range(p ** (depth - b.depth)))
    out.extend(s.points)
    for q in s.seqs:
        stop = _seq_stable_index(q, depth)
        out.extend(q.element(n) for n in range(q.start, stop + 2))
        if q.include_limit:
            out.append(q.limit)
    return out


# ---------------------------------------------------------------------------
# integers-with-excluded-classes side
# ---------------------------------------------------------------------------

def intset_elements_in_period(e, extra_modulus: int = 1) -> list[int]:
    """All elements of e in one full period [0, lcm(L, extra_modulus)),
    plus its finite extras; exact because membership in e is periodic mod
    its exclusion modulus L outside the finite parts."""
    if e.is_finite():
        return sorted(set(e.finite_elements()))
    period = math.lcm(e.exclusion_modulus, extra_modulus)
    hits = [n for n in range(period) if e.contains(n)]
    hits.extend(x for x in e.extra if 0 <= x < period and x not in hits)
    return sorted(set(hits))


def brute_hit_residues(e, p: int, depth: int) -> set[int]:
    """Residues mod p^depth realised by elements of e (one period scan)."""
    mod = p ** depth
    if e.is_finite():
        return {x % mod for x in e.finite_elements()}
    res = {n % mod for n in intset_elements_in_period(e, mod)}
    res.update(x % mod for x in e.extra)
    return res


def brute_simultaneous_hit(e, prescriptions: dict[int, int], depth: int) -> bool:
    """Is there one element of e matching x_p mod p^depth for all p at
    once?  Scans a full period of the combined modulus; exact."""
    joint = 1
    for p in prescriptions:
        joint *= p ** depth
    if e.is_finite():
        pool = e.finite_elements()
    else:
        # the period scan keeps only the extras inside the period
        pool = intset_elements_in_period(e, joint) + list(e.extra)
    for n in pool:
        if all(n % p ** depth == x % p ** depth
               for p, x in prescriptions.items()):
            return True
    return False


def is_all_integers(e) -> bool:
    """True when every integer is a member of the IntegerSet e.

    An excluded class removes infinitely many integers while extras
    restore only finitely many, so any exclusion rules this out.
    """
    return e.base is None and not e.excluded


def brute_covers(r: int, m: int, classes) -> bool:
    """Is every n = r mod m in one of the Congruence classes?  Scans the
    lifts of r mod m to the lcm of m and all the class moduli, past which
    membership in any class repeats."""
    period = math.lcm(m, *(c.modulus for c in classes))
    return all(any(c.contains(n) for c in classes)
               for n in range(r % m, period, m))


def brute_product_closure_member(e, x) -> bool:
    """Is every coordinate x_p of the AdelicCandidate x in the closure of
    the IntegerSet e at p?  A finite set is its own closure, and a
    nonempty one is needed to fill the unlisted coordinates.  Otherwise
    the integers of Z minus the excluded classes are periodic mod L, so
    with D = vp(L, p) + 1 the coordinate is in the closure iff it is a
    re-added extra or some such integer in one period mod lcm(L, p^D)
    agrees with it mod p^D."""
    def kept(n):
        return all((n - c.residue) % c.modulus for c in e.excluded)
    L = math.lcm(1, *(c.modulus for c in e.excluded))
    if e.base is not None or not any(kept(n) for n in range(L)):
        elements = {n for n in e.base or () if kept(n)} | set(e.extra)
        return bool(elements) and all(x_p in elements for _, x_p in x.values)
    for p, x_p in x.values:
        m = p ** (brute_int_vp(L, p) + 1)
        r = x_p.numerator * pow(x_p.denominator, -1, m) % m
        if x_p not in e.extra and not any(
                kept(n) for n in range(r, math.lcm(L, m), m)):
            return False
    return True


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    # dense division over Q; b != 0
    r = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        coef = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = coef
        for i, bc in enumerate(b):
            r[shift + i] -= coef * bc
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g) by the Euclidean formula, exact over Q."""
    a = f.fraction_coeffs()
    b = g.fraction_coeffs()
    sign = 1
    acc = Fraction(1)
    while True:
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if not a or not b:
            return Fraction(0)
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return sign * acc * b[0] ** da
        _, r = _poly_divmod(a, b)
        if not r:
            return Fraction(0)
        dr = len(r) - 1
        acc *= b[-1] ** (da - dr)
        if (da % 2) and (db % 2):
            sign = -sign
        a, b = b, r


def sylvester_resultant(f, g) -> Fraction:
    """Res(f, g) as the determinant of the Sylvester matrix, by Gaussian
    elimination over Q.  f and g are coefficient lists, lowest degree
    first, with nonzero leading coefficients."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[0] * i + list(reversed(f)) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(reversed(g)) + [0] * (m - 1 - i) for i in range(m)]
    rows = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            for k in range(col, size):
                rows[r][k] -= factor * rows[col][k]
    return det


def brute_rule_subset(a, b, primes) -> bool:
    """Does rule a prescribe a subset of what rule b prescribes at every
    prime of primes?  That is the answer at all primes when primes holds
    every prime up to one past each |element| and modulus of both rules:
    past those, the two rules compare the same way at every prime."""
    return all(is_subset(instantiate(a, p), instantiate(b, p)) for p in primes)


def referee_representation_equals(rep, r) -> Decision:
    """Does the representation describe exactly the ring r, compared one
    prime at a time?  At each prime listed by either side the closure of
    the pinned values must lie in r's local set (else PreconditionError)
    and be dense in it, and so at every prime for the two tail rules,
    whose sets must be contained both ways.  Then the ring is the polynomial ring of r's sets iff
    all_min is set or the tail is dense: full, units+p or an infinite
    integer set."""
    window = sorted(set(rep.window()) | set(r.window()))
    closures = {}
    for p in window:
        closures[p] = closure(rep.unitary_at(p))
        if not is_subset(closures[p], r.local_set(p)):
            raise PreconditionError(f"pinned values at {p} leave the ring")
    if not rule_subset(rep.default, r.default):
        raise PreconditionError("default pinned values leave the ring")
    for p in window:
        if not is_subset(r.local_set(p), closures[p]):
            return Decision.NO
    if not rule_subset(r.default, rep.default):
        return Decision.NO
    rule = rep.default
    dense = (rule.kind in (RuleKind.FULL, RuleKind.UNITS_AND_SELF)
             or (rule.kind is RuleKind.FROM_INTEGER_SET
                 and not rule.integer_set.is_finite()))
    return Decision.YES if rep.all_min or dense else Decision.NO


def referee_has_root(rep, q) -> bool:
    """Does q have a root in some local set of the representation's
    closure ring?  At a window prime, when roots_in_set finds one in the
    closure of the pinned values.  A dense tail puts a ball at almost
    every prime, which holds a root of every q at infinitely many primes,
    except that units+p never holds 0, the only root of X.  A finite tail
    pins its elements at every prime, so it holds the integer roots of q
    among them; power(k) pins b^k at b, so it holds an integer root that
    is b^k for a prime b off the window, found by trying every b."""
    if any(roots_in_set(q, closure(s)) for _, s in rep.unitary):
        return True
    rule = rep.default
    if rule.kind in (RuleKind.FULL, RuleKind.UNITS_AND_SELF) or (
            rule.kind is RuleKind.FROM_INTEGER_SET
            and not rule.integer_set.is_finite()):
        return not (rule.kind is RuleKind.UNITS_AND_SELF
                    and q.coeffs == (0, 1))
    integer_roots = [int(r) for r in rational_roots(q.coeffs)
                     if r.denominator == 1]
    if rule.kind is RuleKind.FROM_INTEGER_SET:
        return any(r in rule.integer_set.finite_elements()
                   for r in integer_roots)
    if rule.kind is RuleKind.SINGLE_POWER:
        window = rep.window()
        return any(b ** rule.exponent == r and b not in window
                   for r in integer_roots if r > 1
                   for b in primes_below(r + 1))
    return False
