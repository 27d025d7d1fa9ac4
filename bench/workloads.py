"""Seeded query lists for the four workloads.

Each builder draws shifts, scalings, residues and points around fixed
anchor queries, so that every seed asks the same number of questions of
the same size; only the numbers in them change.  A query pairs the call
into ivp with the referee check of its answer.  Queries named in
KNOWN_FAULTS fail on every seed, on inputs that do not depend on it.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import referee as R

WORKLOADS = ("intval", "intset", "local", "cli")

# query name -> why it fails today (the correct answer is in README.md)
KNOWN_FAULTS = {
    "intval.C(X,24).full(2)":
        "membership enumerates p^(m-k) residues where deg+1 points decide",
    "intset.diff.Z-65mod5040":
        "CRT compatibility answered by scanning the joint modulus",
    "intset.hat.720720.2:65,3:65":
        "CRT compatibility answered by scanning the joint modulus",
    "intset.hat.720720.diag65":
        "CRT compatibility answered by scanning the joint modulus",
}


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _unit(rng: random.Random, p: int, lo: int, hi: int) -> int:
    while True:
        u = rng.randrange(lo, hi)
        if u % p:
            return u


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        a = rng.randrange(lo, hi)
        if a != 0 and (a < 0 or math.isqrt(a) ** 2 != a):
            return a


def _to_padic(ivp, s: R.LocalSet):
    return ivp.PAdicSet(
        s.p, [ivp.Ball(s.p, c, k) for c, k in s.balls], list(s.points),
        [ivp.SeqWithLimit(s.p, c, sc, n0, inc) for c, sc, n0, inc in s.seqs])


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def binomial(k: int, shift: int, scale: int):
    """C(scale*X + shift, k) as (integer coefficients, denominator k!)."""
    coeffs = [1]
    for i in range(k):
        coeffs = _poly_mul(coeffs, [shift - i, scale])
    return coeffs, math.factorial(k)


def plus(f, g):
    """Sum of two (coefficients, denominator) polynomials."""
    (fc, fd), (gc, gd) = f, g
    n = max(len(fc), len(gc))
    fc, gc = fc + [0] * (n - len(fc)), gc + [0] * (n - len(gc))
    return [a * gd + b * fd for a, b in zip(fc, gc)], fd * gd


# ---------------------------------------------------------------------------
# intval: residue enumeration in membership
# ---------------------------------------------------------------------------

# (p, degrees on full(p), degree on a depth-3 ball)
_INTVAL_ANCHORS = ((2, (4, 8, 12), 16), (3, (8, 16), 16),
                   (5, (12, 16), 16), (7, (14, 16), 16))


def build_intval(ivp, rng: random.Random) -> list[Query]:
    queries = []

    def intval(name, f, s: R.LocalSet):
        poly, pset = ivp.RatPoly(*f), _to_padic(ivp, s)
        queries.append(Query(
            f"intval.{name}",
            lambda: ivp.is_integer_valued(poly, pset),
            lambda out: out is R.integer_valued(f[0], f[1], s)))

    def separate(name, s: R.LocalSet, alpha):
        pset = _to_padic(ivp, s)
        queries.append(Query(
            f"intval.separate.{name}",
            lambda: ivp.separating_polynomial(pset, alpha),
            lambda out: R.separates(out, s, alpha)))

    for p, full_degrees, ball_degree in _INTVAL_ANCHORS:
        full = R.LocalSet(p, ((0, 0),))

        def shifted(k):
            # bit sizes fixed across seeds, so is the cost of evaluating
            return binomial(k, rng.randrange(1 << 9, 1 << 10),
                            _unit(rng, p, 1 << 5, 1 << 6))

        for k in full_degrees:
            intval(f"C({k}).full({p})", shifted(k), full)
        b = rng.randrange(p ** 3)
        intval(f"C({ball_degree}).ball({p},3)", shifted(ball_degree),
               R.LocalSet(p, ((b, 3),)))
        k = full_degrees[-1]
        # a constant v/p makes every value non-integral
        intval(f"C({k})+v/p.full({p})",
               plus(shifted(k), ([_unit(rng, p, 1, 1000)], p)), full)
        # (X - b)/p is integral exactly on b + pZ_p
        b = rng.randrange(p)
        near_b = plus(shifted(k), ([-b, 1], p))
        intval(f"C({k})+(X-b)/p.ball({p},1)", near_b, R.LocalSet(p, ((b, 1),)))
        intval(f"C({k})+(X-b)/p.full({p})", near_b, full)
        # a union whose elements are all b mod p, and the same plus a stray
        l = _unit(rng, p, 1, 1000)
        L = b + p * l
        scale = p * _unit(rng, p, 1, 1000)
        # the ball's class mod p^2 differs from the limit's
        other = (l + 1 + rng.randrange(p - 1)) % p
        union = R.LocalSet(
            p, ((b + p * other, 2),),
            (Fraction(b + p * rng.randrange(1, 1000)),),
            ((Fraction(L), Fraction(scale), 0, False),))
        stray = R.LocalSet(p, union.balls,
                           union.points + (Fraction(b + 1),), union.seqs)
        intval(f"C({k}).union({p})", shifted(k), union)
        intval(f"C({k})+(X-b)/p.union({p})", near_b, union)
        intval(f"C({k})+(X-b)/p.stray({p})", near_b, stray)
        # alphas outside the closure: another class mod p, and p^4 from
        # the limit without being an element
        separate(f"other-class({p})", union, Fraction(b + 1))
        alpha = Fraction(L + p ** 4 * _unit(rng, p, 1, 1000))
        while R.contains(union.closure(), alpha):
            alpha += p ** 5
        separate(f"near-limit({p})", union, alpha)

    c24 = binomial(24, 0, 1)
    poly24, full2 = ivp.RatPoly(*c24), ivp.full_set(2)
    queries.append(Query(
        "intval.C(X,24).full(2)",
        lambda: ivp.is_integer_valued(poly24, full2),
        lambda out: out is R.integer_valued(c24[0], c24[1],
                                            R.LocalSet(2, ((0, 0),)))))
    return queries


# ---------------------------------------------------------------------------
# intset: period scans in adelic and the prime walk in overrings
# ---------------------------------------------------------------------------

# modulus -> how many seeded sets.  The eight at 5040 put the median query
# latency inside a wide band of like queries, their closures; the 55440
# closures would be a worse home, since their latency, heavy on
# allocation, swings up to twofold from one process to the next.
_MODULI = {72: 1, 5040: 8, 55440: 1, 720720: 1}
# two primes per modulus whose joint adelic modulus stays under the cap
_PAIRS = {72: (2, 3), 5040: (5, 7), 55440: (2, 3), 720720: (11, 13)}


def _intset(ivp, ref: R.IntSet):
    return ivp.IntegerSet(
        excluded=tuple(ivp.Congruence(r, m) for r, m in ref.excluded),
        extra=ref.extra)


def _primes_of(n: int):
    return [p for p in (2, 3, 5, 7, 11, 13) if n % p == 0]


def build_intset(ivp, rng: random.Random) -> list[Query]:
    queries = []
    ring_sets = {}
    for L, i in [(L, i) for L, n in _MODULI.items() for i in range(n)]:
        tag = f"{L}" if _MODULI[L] == 1 else f"{L}#{i}"
        r = rng.randrange(L)
        ref = R.IntSet(((r, L),), (r + L * rng.randrange(1, 100),))
        e = _intset(ivp, ref)
        for p in _primes_of(L):
            queries.append(Query(
                f"intset.closure.{tag}.{p}",
                lambda e=e, p=p: ivp.closure_in_zp(e, p),
                lambda out, p=p, ref=ref: ref.closure_ok(out, p)))
        p1, p2 = _PAIRS[L]
        cand = ((p1, Fraction(rng.randrange(-L, L))),
                (p2, Fraction(rng.randrange(-L, L), _unit(rng, p2, 1, 50))))
        adele = ivp.AdelicCandidate.of(dict(cand))
        queries.append(Query(
            f"intset.prod.{tag}",
            lambda e=e, a=adele: ivp.product_closure_member(e, a),
            lambda out, c=cand, ref=ref: out is all(
                ref.closure_member(x, p) for p, x in c)))
        if L == 720720:
            # the exact-value shortcut: a diagonal member of the set
            z = r + 1 + rng.randrange(L - 1)
            diag = tuple((p, Fraction(z)) for p in _primes_of(L))
            adele = ivp.AdelicCandidate.of(dict(diag))
            queries.append(Query(
                f"intset.hat.{tag}.member",
                lambda e=e, a=adele: ivp.adelic_closure_member(e, a),
                lambda out, d=diag, ref=ref: out is ref.adelic_member(d)))
            continue
        queries.append(Query(
            f"intset.hat.{tag}",
            lambda e=e, a=adele: ivp.adelic_closure_member(e, a),
            lambda out, c=cand, ref=ref: out is ref.adelic_member(c)))
        if i:
            continue
        ring_sets[f"E{L}"] = ref
        if L <= 5040:
            # less one class mod the 2-part of L: the closure at 2 misses a
            # ball, so the ring keeps its integer-set rule
            two = 2 ** R.ival(L, 2)
            ring_sets[f"F{L}"] = R.IntSet(((r, L), (rng.randrange(two), two)),
                                          ref.extra)

    # rings are built by the ring.* queries of the same pass
    rings = {}

    def ring(key, e):
        rings[key] = ivp.RingSpec.from_integer_set(e)
        return rings[key]

    for key, ref in ring_sets.items():
        queries.append(Query(
            f"intset.ring.{key}",
            lambda key=key, e=_intset(ivp, ref): ring(key, e),
            lambda out, ref=ref: _ring_ok(out, ref)))
    for a, b in (("F72", "E72"), ("E72", "F72"), ("F5040", "E5040"),
                 ("E5040", "F5040"), ("F5040", "E55440"), ("E55440", "F5040")):
        queries.append(Query(
            f"intset.ring_contains.{a}.{b}",
            lambda a=a, b=b: ivp.ring_contains(rings[a], rings[b]),
            lambda out, a=ring_sets[a], b=ring_sets[b]:
            out.decision.value == _closures_within(a, b)))

    r = rng.randrange(72)
    ref72 = R.IntSet(((r, 72),))
    e72 = _intset(ivp, ref72)
    queries.append(Query(
        "intset.diff.72",
        lambda: ivp.closures_differ(e72),
        lambda out: out is not None and _differs(ref72, out)))

    # fixed inputs: these fail today on every seed
    ref5040 = R.IntSet(((65, 5040),))
    e5040 = _intset(ivp, ref5040)
    queries.append(Query(
        "intset.diff.Z-65mod5040",
        lambda: ivp.closures_differ(e5040),
        lambda out: out is not None and _differs(ref5040, out)))
    ref720720 = R.IntSet(((65, 720720),))
    e720720 = _intset(ivp, ref720720)
    for name, cand in (
            ("2:65,3:65", ((2, Fraction(65)), (3, Fraction(65)))),
            ("diag65", tuple((p, Fraction(65)) for p in _primes_of(720720)))):
        adele = ivp.AdelicCandidate.of(dict(cand))
        queries.append(Query(
            f"intset.hat.720720.{name}",
            lambda a=adele: ivp.adelic_closure_member(e720720, a),
            lambda out, c=cand: out is ref720720.adelic_member(c)))
    return _spread(queries)


def _spread(queries: list[Query]) -> list[Query]:
    """The same queries in an order that spreads each run of like queries,
    built side by side, over the whole pass.

    A run answers only one or two passes, and the host's load moves the
    CPU time of one query by up to twofold within a second.  Run side by
    side, the 5040 closures that set the median latency would all be timed
    within one such second.  Query j goes to slot j * step mod n,
    with step near n / golden ratio, so neighbours land far apart.  The
    ring queries keep their own order in the slots they get, since
    ring_contains reads the rings that the ring.* queries build.
    """
    n = len(queries)
    step = round(n / ((1 + math.sqrt(5)) / 2))
    while math.gcd(step, n) != 1:
        step += 1
    order = [None] * n
    for j, q in enumerate(queries):
        order[j * step % n] = q
    slots = [i for i, q in enumerate(order) if q.name.startswith("intset.ring")]
    rings = [q for q in queries if q.name.startswith("intset.ring")]
    for i, q in zip(slots, rings):
        order[i] = q
    return order


def _differs(ref: R.IntSet, cand) -> bool:
    values = tuple(cand.values)
    return (all(ref.closure_member(x, p) for p, x in values)
            and not ref.adelic_member(values))


def _closures_within(a: R.IntSet, b: R.IntSet) -> str:
    """'yes' when every closure of a lies in that of b, so that the ring of
    a contains the ring of b; away from the primes of the moduli both
    closures are all of Z_p."""
    for p in _primes_of(math.lcm(a.modulus, b.modulus)):
        d = max(a.depth(p), b.depth(p))
        for c in range(p ** d):
            if a.progression_meets(c, p ** d) and not b.progression_meets(c, p ** d):
                return "no"
    return "yes"


def _ring_ok(ring, ref: R.IntSet) -> bool:
    """A set dense at every prime of its modulus prescribes Z_p everywhere,
    so its rule collapses to the full rule; otherwise the rule stays."""
    dense = all(ref.progression_meets(c, p ** ref.depth(p))
                for p in _primes_of(ref.modulus)
                for c in range(p ** ref.depth(p)))
    return (not ring.exceptional
            and ring.default.kind.value == ("full" if dense else "intset"))


# ---------------------------------------------------------------------------
# local: canonical forms, quadratic vp and the root-lifting tree
# ---------------------------------------------------------------------------

_FAMILIES = ((3, 6), (5, 4), (7, 4), (2, 10))
_BIG_PRIMES = [p for p in range(9800, 10200)
               if all(p % d for d in range(2, math.isqrt(p) + 1))]
_CYCLO5 = [1, 1, 1, 1, 1]


def build_local(ivp, rng: random.Random) -> list[Query]:
    queries = []
    for p, k in _FAMILIES:
        centers = [c + p ** k * rng.randrange(4) for c in range(p ** k)]
        rng.shuffle(centers)
        balls = [ivp.Ball(p, c, k) for c in centers]
        full = ivp.PAdicSet(p, balls)
        queries.append(Query(
            f"local.canonicalize.{p}^{k}",
            lambda s=full: ivp.canonicalize(s),
            R.is_full))
        missing = rng.randrange(p ** k)
        short = ivp.PAdicSet(p, [b for b in balls if b.center != missing])
        queries.append(Query(
            f"local.canonicalize.{p}^{k}-1",
            lambda s=short: ivp.canonicalize(s),
            lambda out, p=p, k=k, m=missing: R.one_short_ok(out, p, k, m)))

    for p in (2, 3):
        queries.extend(_deep_sequence_queries(ivp, rng, p))

    # roots at primes near 10^4: one split and one inert for the cyclotomic
    split = rng.choice([p for p in _BIG_PRIMES if p % 5 == 1])
    inert = rng.choice([p for p in _BIG_PRIMES if p % 5 != 1])
    for p in (split, inert, 2, 3):
        a = _nonsquare(rng, -10 ** 6, 10 ** 6)
        queries.append(_roots_query(ivp, f"X^2-a.full({p})", [-a, 0, 1], p,
                                    R.square_root_count(a, p)))
    for p in (split, inert):
        queries.append(_roots_query(ivp, f"cyclo5.full({p})", _CYCLO5, p,
                                    R.cyclotomic5_root_count(p)))

    # maximal valuations: finite on an inert prime, infinite on a split one
    cyc = ivp.IrreduciblePoly.certify(ivp.RatPoly(_CYCLO5))
    for p in (inert, split):
        full_p = R.LocalSet(p, ((0, 0),))
        queries.append(_maxval_query(
            ivp, f"cyclo5.full({p})", cyc, _CYCLO5, full_p,
            R.cyclotomic5_root_count(p) > 0))
    p = 7
    r = rng.randrange(1, p)
    j = rng.randrange(3, 7)
    a = r * r + p ** j * _unit(rng, p, 1, p)
    q = ivp.IrreduciblePoly.certify(ivp.RatPoly([-a, 0, 1]))
    near = R.LocalSet(p, (), (), ((Fraction(r), Fraction(p ** (j + 1)), 0, True),))
    queries.append(_maxval_query(ivp, f"X^2-a.seq({p})", q, [-a, 0, 1],
                                 near, False))
    p = inert
    while True:
        a = _nonsquare(rng, 2, 10 ** 6)
        if a % p and R.square_root_count(a, p) == 0:
            break
    q = ivp.IrreduciblePoly.certify(ivp.RatPoly([-a, 0, 1]))
    queries.append(_maxval_query(ivp, f"X^2-a.full({p})", q, [-a, 0, 1],
                                 R.LocalSet(p, ((0, 0),)), False))

    for n in range(4, 9):
        c = rng.randrange(100, 200)
        coeffs = [math.comb(n, i) * c ** (n - i) for i in range(n + 1)]
        coeffs[0] -= 2                            # (X + c)^n - 2, Eisenstein
        poly = ivp.RatPoly(coeffs)
        queries.append(Query(
            f"local.certify.(X+c)^{n}-2",
            lambda poly=poly: ivp.IrreduciblePoly.certify(poly),
            lambda out, coeffs=coeffs: _certificate_ok(out, coeffs)))

    queries.extend(_ring_queries(ivp, rng))
    return queries


def _deep_sequence_queries(ivp, rng, p):
    """A ball, a point and a sequence starting near index 10^4."""
    start = 10_000 + rng.randrange(-16, 16)
    b = rng.randrange(p ** 3)
    limit = b + p ** rng.randrange(3) * _unit(rng, p, 1, 1000)   # not in the ball
    scale = _unit(rng, p, 1, 1000)
    while True:
        point = Fraction(b + p ** rng.randrange(3) * _unit(rng, p, 1, 1000))
        if point != limit:
            break
    seq = (Fraction(limit), Fraction(scale), start, False)
    s = R.LocalSet(p, ((b, 3),), (point,), (seq,))
    closed = s.closure()
    pset = _to_padic(ivp, s)
    closed_set = ivp.closure(pset)
    cover = R.LocalSet(p, ((b, 3), (limit, 2)), (point,))
    short = R.LocalSet(p, ((b, 3), (limit, 2)))
    out = []
    out.append(Query(f"local.closure.deepseq({p})",
                     lambda: ivp.closure(pset),
                     lambda got: R.same_set(got, closed)))
    for name, target in (("cover", cover), ("short", short)):
        tset = _to_padic(ivp, target)
        out.append(Query(
            f"local.is_subset.deepseq.{name}({p})",
            lambda t=tset: ivp.is_subset(closed_set, t),
            lambda got, t=target: got is _subset(closed, t)))
    out.append(Query(
        f"local.isolated.deepseq({p})",
        lambda: ivp.isolated_points(closed_set),
        lambda got: (list(got.explicit) == [point] and len(got.tails) == 1
                     and R.tail_matches(got.tails[0].seq, got.tails[0].from_n,
                                        limit, scale, start, p))))
    return out


def _subset(a: R.LocalSet, b: R.LocalSet) -> bool:
    """a within b, for a made of balls, points and sequences and b of
    balls and points: a sequence fits when its limit sits in a ball of b
    and its elements before they enter that ball are members of b."""
    p = a.p
    if not all(R.ball_inside(c, k, b) for c, k in a.balls):
        return False
    if not all(R.contains(b, x) for x in a.points):
        return False
    for c, sc, n0, inc in a.seqs:
        home = [(bc, k) for bc, k in b.balls if R.val(c - bc, p) is None
                or R.val(c - bc, p) >= k]
        if not home:
            return False
        k = min(k for _, k in home)
        sv = R.val(sc, p) + n0
        for n in range(max(0, k - sv)):
            if not R.contains(b, c + sc * Fraction(p) ** (n0 + n)):
                return False
    return True


def _roots_query(ivp, name, coeffs, p, expected):
    q = ivp.IrreduciblePoly.certify(ivp.RatPoly(coeffs))
    full = ivp.full_set(p)
    ref = R.LocalSet(p, ((0, 0),))
    return Query(f"local.roots.{name}",
                 lambda: ivp.roots_in_set(q, full),
                 lambda out: R.certificates_ok(coeffs, ref, out, expected))


def _maxval_query(ivp, name, q, coeffs, s: R.LocalSet, has_root: bool):
    pset = _to_padic(ivp, s)

    def check(out):
        value, witness = out
        if has_root:
            return witness is None and not isinstance(value, int)
        return R.max_valuation_ok(coeffs, s, value, witness)
    return Query(f"local.maxval.{name}",
                 lambda: ivp.max_valuation_witness(q, pset), check)


def _certificate_ok(out, coeffs) -> bool:
    """Irreducible over Q (Eisenstein at 2); the certificate's prime must
    keep the degree and leave no factor of degree <= n/2 mod ell."""
    if list(out.coeffs) != coeffs:
        return False
    ell = out.witness_prime
    return ell is not None and R.irreducible_mod(coeffs, ell)


def _ring_queries(ivp, rng):
    out = []
    p = 2
    limit = Fraction(rng.randrange(3, 1000, 2))
    seq = (limit, Fraction(1), 0, False)
    point = Fraction(limit + 3)                  # 3 is no power of 2
    plain = R.LocalSet(p, (), (point,), (seq,))
    pset = _to_padic(ivp, plain)

    rep = ivp.Representation({p: pset}, ivp.FULL_RULE)
    out.append(Query(
        "local.ring_of.full",
        lambda: ivp.ring_of(rep),
        lambda got: (len(got.spec.exceptional) == 1
                     and R.same_set(got.spec.exceptional[0][1], plain.closure())
                     and got.spec.default.kind.value == "full"
                     and got.polynomial.decision.value == "yes")))
    rep_empty = ivp.Representation({p: pset}, ivp.EMPTY_RULE)
    out.append(Query(
        "local.ring_of.empty",
        lambda: ivp.ring_of(rep_empty),
        lambda got: _escape_ok(got, plain)))

    ring = ivp.RingSpec({p: ivp.closure(pset)}, ivp.EMPTY_RULE)
    out.append(Query(
        "local.minimal_extensions",
        lambda: ivp.minimal_extensions(ring, p),
        lambda got: ([x for x, _ in got.explicit] == [point]
                     and len(got.families) == 1
                     and R.tail_matches(got.families[0].seq,
                                        got.families[0].from_n,
                                        limit, 1, 0, p))))
    out.append(Query(
        "local.irredundant.seq",
        lambda: ivp.has_irredundant_representation(ring),
        lambda got: got.decision.value == "yes"))
    b = rng.randrange(2)
    with_ball = R.LocalSet(p, ((b, 1),), (), ((Fraction(1 - b), Fraction(2), 0, True),))
    ring_ball = ivp.RingSpec({p: _to_padic(ivp, with_ball)}, ivp.EMPTY_RULE)
    out.append(Query(
        "local.irredundant.ball",
        lambda: ivp.has_irredundant_representation(ring_ball),
        lambda got: got.decision.value == "no"))
    return out


def _escape_ok(got, s: R.LocalSet) -> bool:
    """Not the polynomial ring: N/q is integral on the closure at every
    listed prime, since N carries at least the supremum of vp(q) there."""
    w = got.escape
    if got.polynomial.decision.value != "no" or w is None:
        return False
    coeffs = list(w.q.coeffs)
    exps = dict(w.exponents)
    sup = R.sup_valuation(coeffs, s.closure())
    return sup is not None and exps.get(s.p, 0) >= sup


# ---------------------------------------------------------------------------
# cli: one process per command
# ---------------------------------------------------------------------------


def build_cli(ivp, rng: random.Random, launcher) -> list[Query]:
    """launcher.command(argv) and launcher.env() give the process to start.

    Every check binds its numbers through default arguments, because the
    names are reused from one command to the next.
    """
    queries = []

    def call(name, argv, check):
        def run():
            proc = subprocess.run(launcher.command(argv), capture_output=True,
                                  text=True, env=launcher.env(), timeout=60)
            if proc.returncode not in (0, 2):
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
            return proc.returncode, proc.stdout
        queries.append(Query(f"cli.{name}", run,
                             lambda out: out[0] == 0 and check(out[1])))

    # the README examples, with seeded numbers
    c, x = rng.randrange(1 << 10), rng.randrange(1 << 10)
    call("member", ["member", "--set", f"ball(2; {c}, 3)", "--x", str(x)],
         lambda out, yes=(x - c) % 8 == 0: out.strip() == ("yes" if yes else "no"))
    limit = rng.randrange(-500, 500)
    call("closure", ["closure", "--set", f"seq(2; {limit}, 1, 0, -lim)"],
         lambda out, lim=limit: out.strip() == f"seq(2; {lim}, 1, 0, +lim)")
    c = rng.randrange(-500, 500)
    f = ([c * c - c, 2 * c - 1, 1], 2)                # ((X+c)^2 - (X+c))/2
    call("intval", ["intval", "--poly", f"(X^2 + {2 * c - 1}*X + {c * c - c})/2",
                    "--set", "full(2)"],
         lambda out, f=f: out.strip() == ("yes" if R.integer_valued(
             f[0], f[1], R.LocalSet(2, ((0, 0),))) else "no"))
    a = 17 + 8 * rng.randrange(1, 10 ** 4)
    while math.isqrt(a) ** 2 == a:
        a += 8
    call("roots", ["--json", "roots", "--poly", f"X^2 - {a}", "--set", "full(2)"],
         lambda out, a=a: _cli_roots_ok(out, [-a, 0, 1], 2))
    alpha = Fraction(2 * rng.randrange(1, 500) + 1)
    powers = R.LocalSet(2, (), (Fraction(0),), ((Fraction(0), Fraction(1), 0, False),))
    call("separate", ["separate", "--set", "seq(2; 0, 1, 0, -lim) | pts(2; 0)",
                      "--alpha", str(alpha)],
         lambda out, alpha=alpha: R.separates(
             _Poly(*R.parse_poly_text(out)), powers, alpha))
    x5 = rng.randrange(1, 5 ** 4)
    family = {2: R.LocalSet(2, ((0, 0),)), 5: R.LocalSet(5, (), (Fraction(x5),))}
    call("witness", ["witness", "--poly", "X^2 + 1",
                     "--family", f"2: full(2); 5: pts(5; {x5})"],
         lambda out: _cli_witness_ok(out, [1, 0, 1], family))
    r = rng.randrange(72)
    call("adele-diff", ["adele-diff", "--intset", f"Z \\ ({r} mod 72)"],
         lambda out, ref=R.IntSet(((r, 72),)): out.startswith("candidate: ")
         and _differs(ref, _Cand(R.parse_pairs(out.strip()[len("candidate: "):]))))
    limit = rng.randrange(-500, 500)
    ring = {"exceptional": {"2": f"seq(2; {limit}, 1, 0, +lim)"}, "default": "empty"}
    call("min-ext", ["min-ext", "--ring", json.dumps(ring), "--p", "2"],
         lambda out, lim=limit: out.strip().splitlines() == [
             "count: 0 + 1 infinite families",
             f"  drop any element of seq(2; {lim}, 1, 0, +lim) from n=0"])
    call("simple", ["simple", "--ring", '{"exceptional": {}, "default": "units+p"}'],
         lambda out: out.startswith("yes") and R.primes_dense_in_units_and_p())

    # one call each of five more subcommands
    c = rng.choice([2, 3]) + 5 * rng.randrange(5)
    while (c * c + 1) % 25 == 0:
        c += 5
    xm = rng.randrange(1, 10 ** 4)
    ball5 = R.LocalSet(5, ((c, 2),), (Fraction(xm),))
    call("maxval", ["maxval", "--poly", "X^2 + 1",
                    "--set", f"ball(5; {c}, 2) | pts(5; {xm})"],
         lambda out: _cli_maxval_ok(out, [1, 0, 1], ball5))
    limit = rng.randrange(-500, 500)
    point = limit + 1 + 3 * rng.randrange(1, 100)
    call("isolated", ["isolated", "--set",
                      f"seq(3; {limit}, 2, 0, +lim) | pts(3; {point})"],
         lambda out, lim=limit, pt=point: out.strip().splitlines() == [
             f"explicit: {pt}", f"tail: seq(3; {lim}, 2, 0, +lim) from n=0"])
    classes = rng.sample(range(3), 2)
    other = classes if rng.randrange(2) else [classes[0], 3 - sum(classes)]
    r1, r2 = ({"exceptional": {"3": " | ".join(
        f"ball(3; {k + 3 * rng.randrange(100)}, 1)" for k in ks)},
        "default": "full"} for ks in (classes, other))
    call("ring-eq", ["ring-eq", "--r1", json.dumps(r1), "--r2", json.dumps(r2)],
         lambda out, same=sorted(classes) == sorted(other):
         out.split()[0] == ("yes" if same else "no"))
    limit = rng.randrange(-500, 500)
    rep = {"unitary": {"2": f"seq(2; {limit}, 1, 0, -lim)"}, "default": "full"}
    call("ring-of", ["--json", "ring-of", "--rep", json.dumps(rep)],
         lambda out, lim=limit: _cli_ring_of_ok(json.loads(out), lim))
    r = rng.randrange(72)
    cand = ((2, Fraction(rng.randrange(-500, 500))),
            (3, Fraction(rng.randrange(-500, 500))))
    call("adele-hat", ["adele-hat", "--intset", f"Z \\ ({r} mod 72)",
                       "--candidate", ", ".join(f"{p}: {x}" for p, x in cand)],
         lambda out, ref=R.IntSet(((r, 72),)): out.strip() == (
             "yes" if ref.adelic_member(cand) else "no"))
    return queries


@dataclass(frozen=True)
class _Poly:
    coeffs: list
    denominator: int


@dataclass(frozen=True)
class _Cand:
    values: tuple


def _cli_roots_ok(out, coeffs, p) -> bool:
    payload = json.loads(out)
    certs = []
    for entry in payload["certificates"]:
        _, center, depth = R.parse_ball_text(entry["ball"])
        value = Fraction(entry["value"]) if "value" in entry else None
        certs.append(_Cert(_Ball(center, depth), center, value))
    expected = R.square_root_count(-coeffs[0], p)
    return (payload["count"] == expected
            and R.certificates_ok(coeffs, R.LocalSet(p, ((0, 0),)), certs, expected))


@dataclass(frozen=True)
class _Ball:
    center: int
    depth: int


@dataclass(frozen=True)
class _Cert:
    ball: _Ball
    center: int
    value: object


def _cli_witness_ok(out, coeffs, family) -> bool:
    """'N/(q)': N is the product of p^(sup of vp(q) on the p-th set)."""
    num, _, _ = out.strip().partition("/")
    want = 1
    for p, s in family.items():
        sup = R.sup_valuation(coeffs, s)
        if sup is None:
            return False
        want *= p ** sup
    return int(num) == want


def _cli_ring_of_ok(payload, limit) -> bool:
    """The closure adds the limit; a full default rule makes the ring
    polynomial, since every nonconstant q has simple roots mod p, hence
    in Z_p, for infinitely many p."""
    return (payload["polynomial"] == "yes"
            and payload["ring"] == {"default": "full", "exceptional": [
                {"p": 2, "set": f"seq(2; {limit}, 1, 0, +lim)"}]})


def _cli_maxval_ok(out, coeffs, s: R.LocalSet) -> bool:
    lines = out.strip().splitlines()
    if len(lines) != 2 or not lines[1].startswith("attained at "):
        return False
    return R.max_valuation_ok(coeffs, s, int(lines[0]),
                              Fraction(lines[1][len("attained at "):]))


BUILDERS = {"intval": build_intval, "intset": build_intset,
            "local": build_local}
