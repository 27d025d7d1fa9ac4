"""Integer-valued polynomials on representable p-adic sets.

Integer-valuedness is decided by one Polya bound per component of the
set.  With f = g/d and m = vp(d), f is integral at x iff g(x) = 0 mod p^m,
and that only depends on x mod p^m, so every test point is evaluated in
Z/p^m.  A ball c + p^k Z_p has the p-ordering c + p^k j in closed form; a
closed sequence {L} u {L + u p^(v+n) : n >= start} has the p-ordering L,
then its elements in order (Bhargava, J. reine angew. Math. 490, 1997).
By Bhargava's criterion the first deg f + 1 terms of a p-ordering decide a
component, and its residues mod p^m bound it too: a ball has p^(m-k)
of them, and a sequence element agrees with the limit mod p^m from the
exponent m on.  Either bound alone is exact, and the check is finite even
when the set has infinite components.  It also shows closure invariance:
a polynomial is integer valued on S iff it is on the topological closure
of S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, Config
from .errors import InvariantError, PreconditionError, charge
from .exact import INFINITY, Rat, Valuation, is_finite, rational_mod, vp
from .padic import PAdicSet, closure, member, some_elements
from .polys import IrreduciblePoly, RatPoly, max_valuation

__all__ = [
    "is_integer_valued", "separating_polynomial",
    "WitnessRationalFunction", "witness_rational_function",
]


def is_integer_valued(f: RatPoly, s: PAdicSet) -> bool:
    """Does f map every element of s into Z_p (p the set's prime)?

    True vacuously on the empty set.  With f = g/d and m = vp(d), f is
    integral at x iff g(x) = 0 mod p^m, so g's coefficients are reduced
    mod p^m once and every test point is one Horner pass in Z/p^m.  Each
    component is read along its p-ordering up to its Polya bound:
    - a ball of depth k at c + p^k j for j < min(deg f + 1, p^(m-k));
    - a point at itself;
    - a sequence at its limit, then at its first min(deg f, m - head)
      elements, head = valuation + start being the exponent of the first.
    The first deg f + 1 terms of a p-ordering decide a component, and past
    its residues mod p^m every term repeats one already checked.
    """
    p = s.p
    m = vp(f.denominator, p)
    if not is_finite(m):
        raise InvariantError(f"{f} has denominator zero")
    if m == 0:
        return True
    modulus = p ** m
    coeffs = [c % modulus for c in reversed(f.coeffs)]

    def root(x: int) -> bool:
        # x already reduced mod p^m: is g(x) = 0 in Z/p^m?
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % modulus
        return acc == 0

    degree = f.degree
    for ball in s.balls:
        x, step = ball.center % modulus, pow(p, ball.depth, modulus)
        for _ in range(min(degree + 1, p ** max(m - ball.depth, 0))):
            if not root(x):
                return False
            x = (x + step) % modulus
    for x in s.points:
        if not root(rational_mod(x, modulus)):
            return False
    for seq in s.seqs:
        limit = rational_mod(seq.limit, modulus)
        if not root(limit):
            return False                # forces the whole stabilized tail
        # term = unit * p^(valuation + n) mod p^m for n = start, start + 1, ...
        term = rational_mod(seq.unit, modulus) * pow(p, seq.head, modulus)
        term %= modulus
        for _ in range(max(min(degree, m - seq.head), 0)):
            if not root((limit + term) % modulus):
                return False
            term = term * p % modulus
    return True


# ---------------------------------------------------------------------------
# separating polynomials
# ---------------------------------------------------------------------------

def _sum_val(factors: list[Fraction], x: Fraction, p: int):
    """vp of prod (x - a) over the factor list; INFINITY at a factor."""
    total = 0
    for a in factors:
        v = vp(x - a, p)
        if not is_finite(v):
            return INFINITY
        total += v
    return total


def _min_val_ball(factors: list[Fraction], p: int, center: int, depth: int):
    """(min over the ball of vp(prod (x - a)), an element attaining it).

    Factors outside the ball keep a constant distance to every element;
    only factors inside force a descent into the p child cosets.  Distinct
    factors split apart at finite depth, so the recursion terminates.
    """
    inside, fixed = [], 0
    for a in factors:
        d = vp(a - center, p)
        if d >= depth:
            inside.append(a)
        else:
            fixed += d
    if not inside:
        return fixed, Fraction(center)
    if len(inside) == 1:
        # nearest escape: stay at this depth but in another child coset
        a = inside[0]
        digit = rational_mod((a - center) / Fraction(p) ** depth, p)
        other = (digit + 1) % p
        return fixed + depth, Fraction(center + other * p ** depth)
    best = wit = None
    for j in range(p):
        v, w = _min_val_ball(inside, p, center + j * p ** depth, depth + 1)
        if best is None or v < best:
            best, wit = v, w
    return fixed + best, wit


def _min_val_seq(factors, seq, p: int):
    """Minimum over the sequence's elements (and included limit).

    Distances to the factors stabilize once vp(scale) + n passes every
    vp(limit - a); from there the product valuation is constant in n (or
    increasing, when the limit itself is a factor), so a finite prefix
    plus one tail sample is exact.  The sample is no factor, and an
    included limit is no lower: it is as far from every other factor.
    """
    sv = seq.valuation
    gaps = [vp(seq.limit - a, p) for a in factors if a != seq.limit]
    n_star = max((d - sv for d in gaps), default=seq.start) + 1
    best = wit = None
    for n in range(seq.start, max(seq.start, n_star) + 2):
        x = seq.element(n)
        v = _sum_val(factors, x, p)
        if is_finite(v) and (best is None or v < best):
            best, wit = v, x
    return best, wit


def _min_valuation(factors: list[Fraction], s: PAdicSet):
    """(min over the closed set of vp(prod (x - a)), attaining element)."""
    p = s.p
    best, wit = INFINITY, None
    for ball in s.balls:
        v, w = _min_val_ball(factors, p, ball.center, ball.depth)
        if v < best:
            best, wit = v, w
    for x in s.points:
        v = _sum_val(factors, x, p)
        if v < best:
            best, wit = v, x
    for seq in s.seqs:
        v, w = _min_val_seq(factors, seq, p)
        if v < best:
            best, wit = v, w
    return best, wit


def separating_polynomial(e: PAdicSet, alpha: Rat,
                          config: Config = DEFAULT_CONFIG) -> RatPoly:
    """A polynomial integer-valued on e with a non-integral value at alpha.

    Requires alpha outside the closure of e.  Factors (X - a) are added
    greedily, each time through an element a of the set where the current
    product has its smallest valuation.  Such orderings realise the exact
    valuation gaps of the integer-valued polynomials on the set, so as
    soon as the product's valuation at alpha drops below the set minimum
    w, dividing by p^(vp at alpha + 1) gives a separator; alpha outside
    the closure guarantees the drop happens.
    """
    p = e.p
    alpha = Fraction(alpha)
    f_closed = closure(e)
    if member(alpha, f_closed):
        raise PreconditionError(
            f"{alpha} lies in the closure; no separating polynomial exists")
    if f_closed.is_empty():
        return RatPoly([1], p)          # 1/p works against the empty set

    factors: list[Fraction] = []
    product = RatPoly([1])
    while True:
        w, attain = _min_valuation(factors, f_closed)
        at_alpha = _sum_val(factors, alpha, p)
        if not is_finite(at_alpha):
            raise InvariantError(f"{alpha} is a root of the separator")
        if at_alpha < w:
            result = product * Fraction(1, p ** (at_alpha + 1))
            break
        if attain is None:
            raise InvariantError("minimum valuation not attained")
        charge(config, "search_degree_cap", len(factors) + 1,
               "linear factors in a separator")
        factors.append(attain)
        product = product * RatPoly.from_fractions([-attain, 1])

    if not is_integer_valued(result, f_closed):
        raise InvariantError("separator failed validation on the set")
    if vp(result.eval_at(alpha), p) >= 0:
        raise InvariantError("separator failed validation at alpha")
    return result


# ---------------------------------------------------------------------------
# witness rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRationalFunction:
    """N/q(X) with N = product of p^(sup of vp(q) over the p-th set).

    Integer valued (p-adically, at each constrained prime) on the family
    by construction, yet not a polynomial: it certifies that the family's
    intersection of valuation overrings is not contained in the overring
    attached to q.
    """

    q: IrreduciblePoly
    exponents: tuple[tuple[int, int], ...]   # (prime, exponent), exponent > 0

    @property
    def numerator(self) -> int:
        out = 1
        for prime, exp in self.exponents:
            out *= prime ** exp
        return out

    def value_at(self, x: Rat) -> Fraction:
        qx = self.q.eval_at(x)
        if qx == 0:
            raise ZeroDivisionError(f"{x} is a root of {self.q}")
        return self.numerator / qx

    def __str__(self):
        return f"{self.numerator}/({self.q})"


def witness_rational_function(q: IrreduciblePoly, family: dict[int, PAdicSet],
                              config: Config = DEFAULT_CONFIG) -> WitnessRationalFunction:
    """Build N/q integer-valued on the finite family of per-prime sets.

    Each constrained prime contributes p^m with m the exact supremum of
    vp(q(x)) over its set; a root anywhere makes the supremum infinite and
    is reported as an error instead.
    """
    valuations = {}
    for p in sorted(family):
        s = family[p]
        if s.p != p:
            raise PreconditionError(f"set at key {p} lives at prime {s.p}")
        if not s.is_empty():
            valuations[p] = max_valuation(q, s, config)
    return witness_from_valuations(q, family, valuations)


def witness_from_valuations(q: IrreduciblePoly, family: dict[int, PAdicSet],
                            valuations: dict[int, Valuation]
                            ) -> WitnessRationalFunction:
    """The witness N/q from the suprema of vp(q) over the nonempty sets
    of the family, already computed by the caller."""
    exponents = []
    for p in sorted(valuations):
        mv = valuations[p]
        if not is_finite(mv):
            raise PreconditionError(
                f"{q} has a root in the set at prime {p}; no witness exists")
        if mv > 0:
            exponents.append((p, mv))
    witness = WitnessRationalFunction(q, tuple(exponents))
    _spot_check_witness(witness, family)
    return witness


def _spot_check_witness(w: WitnessRationalFunction,
                        family: dict[int, PAdicSet]) -> None:
    for p, s in family.items():
        for x in some_elements(s, 3):
            if vp(w.value_at(x), p) < 0:
                raise InvariantError(
                    f"witness {w} fails at {x} for prime {p}")
