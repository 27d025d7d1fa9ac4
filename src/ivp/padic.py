"""Representable subsets of the p-adic integers.

A set is a finite union of three kinds of components at a fixed prime p:

* ``Ball(p, c, k)``       -- the coset c + p^k Z_p (k = 0 is all of Z_p),
* finite rational points  -- elements of Z_p given exactly,
* ``SeqWithLimit``        -- a geometric tail {c + a*p^n : n >= N} whose
                             unique accumulation point is c.

This algebra is closed under the operations the library needs: closure,
canonicalization, subset tests, isolated points, and removal of an
isolated point.  Canonical forms are unique for sets presented in the
algebra, so structural equality of canonical forms is set equality.

The set algebra takes no ``Config``: Z_p is ultrametric, so balls are
nested or disjoint, and no question here needs a capped search.  Only
``units_and_self_set`` takes one, as it builds p - 1 unit balls and
charges them against ``residue_cap`` first.

This module holds the set algebra and the sets of the plain tail rules
(full, empty, units+p, power(k)) at one prime.  The rules themselves,
which prescribe such a set at almost every prime, live with the rings
they describe, in ``overrings``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, Config
from .errors import PreconditionError, charge
from .exact import (Rat, check_prime_arg, check_printable, power_exponent,
                    rational_mod, vp)

# the most digits of p^head, the power canonicalize writes each ray with:
# a bound of cost, as rays at p = 3 from start 10^4 pass the print limit
_HEAD_DIGITS = 10 ** 6


def _p_integral(x: Rat, p: int) -> bool:
    """vp(x) >= 0, read off the reduced denominator."""
    return Fraction(x).denominator % p != 0


@dataclass(frozen=True)
class Ball:
    """The coset center + p^depth * Z_p; the center is stored reduced."""

    p: int
    center: int
    depth: int

    def __init__(self, p: int, center: Rat, depth: int):
        check_prime_arg(p)
        if depth < 0:
            raise PreconditionError(f"ball depth must be >= 0, got {depth}")
        check_printable(1, p, depth, "ball modulus ")
        if not _p_integral(center, p):
            raise PreconditionError(f"ball center {center} is not p-integral")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "center", rational_mod(center, p ** depth))

    def contains(self, x: Rat) -> bool:
        d = Fraction(x) - self.center
        return (d.denominator % self.p != 0
                and d.numerator % self.p ** self.depth == 0)

    def contains_ball(self, other: "Ball") -> bool:
        """Is the ball `other` inside this one?"""
        return (self.depth <= other.depth
                and (other.center - self.center) % (self.p ** self.depth) == 0)

    def __str__(self):
        return f"ball({self.p}, {self.center}, {self.depth})"


@dataclass(frozen=True)
class SeqWithLimit:
    """Geometric sequence {limit + scale * p^n : n >= start} with its limit.

    The elements converge to ``limit``; include_limit records whether the
    limit itself belongs to the set.  All elements must be p-integral,
    which amounts to vp(limit) >= 0 and vp(scale) + start >= 0.

    The constructor also works out, once, the valuation of the scale and
    its unit part: scale = unit * p^valuation, so element n is
    limit + unit * p^(valuation + n).  Every operation reads these two
    instead of dividing numbers of the size of p^start again.  They are
    derived data: they take no part in equality, hashing or printing.
    """

    p: int
    limit: Fraction
    scale: Fraction
    start: int
    include_limit: bool
    unit: Fraction = field(init=False, repr=False, compare=False)
    valuation: int = field(init=False, repr=False, compare=False)

    def __init__(self, p: int, limit: Rat, scale: Rat, start: int = 0,
                 include_limit: bool = True):
        check_prime_arg(p)
        limit, scale = Fraction(limit), Fraction(scale)
        if scale == 0:
            raise PreconditionError("sequence scale must be nonzero")
        if not _p_integral(limit, p):
            raise PreconditionError(f"sequence limit {limit} is not p-integral")
        sv = vp(scale, p)
        if sv + start < 0:
            raise PreconditionError(
                f"sequence elements leave Z_p (vp(scale)={sv}, start={start})")
        if (sv + start) * math.log10(p) > _HEAD_DIGITS:
            raise PreconditionError(f"sequence power {p}^{sv + start} has "
                                    f"over {_HEAD_DIGITS} digits")
        unit = scale
        if sv > 0:
            unit = Fraction(scale.numerator // p ** sv, scale.denominator)
        elif sv < 0:
            unit = Fraction(scale.numerator, scale.denominator // p ** -sv)
        self._set(p, limit, scale, start, include_limit, unit, sv)

    def _set(self, p, limit, scale, start, include_limit, unit, valuation):
        # frozen: fill the instance dictionary directly
        self.__dict__.update(p=p, limit=limit, scale=scale, start=start,
                             include_limit=include_limit, unit=unit,
                             valuation=valuation)

    @classmethod
    def _ray(cls, p: int, limit: Fraction, unit: Fraction, head: int,
            include_limit: bool) -> "SeqWithLimit":
        """{limit + unit * p^k : k >= head} at start 0, from a known p-adic
        unit and head >= 0: no valuation is computed again."""
        seq = object.__new__(cls)
        seq._set(p, limit, Fraction(unit.numerator * p ** head, unit.denominator),
                 0, include_limit, unit, head)
        return seq

    @property
    def head(self) -> int:
        """The exponent k of the first element, limit + unit * p^k."""
        return self.valuation + self.start

    def element(self, n: int) -> Fraction:
        k = self.valuation + n
        power = self.p ** k if k >= 0 else Fraction(1, self.p ** -k)
        return self.limit + self.unit * power

    def element_index(self, x: Rat) -> Optional[int]:
        """The n with element(n) == x, or None (the limit is not an element)."""
        t = (Fraction(x) - self.limit) / self.unit
        if t.denominator != 1:
            return None
        k = power_exponent(t.numerator, self.p)
        if k is None or k < self.head:
            return None
        return k - self.valuation

    def contains(self, x: Rat) -> bool:
        if self.include_limit and Fraction(x) == self.limit:
            return True
        return self.element_index(x) is not None

    def __str__(self):
        tag = "+lim" if self.include_limit else "-lim"
        return f"seq({self.p}; {self.limit}, {self.scale}, {self.start}, {tag})"


@dataclass(frozen=True)
class PAdicSet:
    """A finite union of balls, points and sequences at one prime."""

    p: int
    balls: tuple[Ball, ...] = ()
    points: tuple[Fraction, ...] = ()
    seqs: tuple[SeqWithLimit, ...] = ()

    def __init__(self, p: int, balls: Iterable[Ball] = (),
                 points: Iterable[Rat] = (), seqs: Iterable[SeqWithLimit] = ()):
        check_prime_arg(p)
        balls = tuple(balls)
        seqs = tuple(seqs)
        pts = tuple(Fraction(x) for x in points)
        for b in balls:
            if b.p != p:
                raise PreconditionError(f"ball prime {b.p} != set prime {p}")
        for s in seqs:
            if s.p != p:
                raise PreconditionError(f"sequence prime {s.p} != set prime {p}")
        for x in pts:
            if not _p_integral(x, p):
                raise PreconditionError(f"point {x} is not p-integral")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "balls", balls)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "seqs", seqs)

    def is_empty(self) -> bool:
        return not (self.balls or self.points or self.seqs)

    def __str__(self):
        if self.is_empty():
            return f"empty({self.p})"
        parts = [str(b) for b in self.balls]
        if self.points:
            parts.append(f"pts({self.p}; " + ", ".join(map(str, self.points)) + ")")
        parts.extend(str(s) for s in self.seqs)
        return " | ".join(parts)


def empty_set(p: int) -> PAdicSet:
    return PAdicSet(p)


def full_set(p: int) -> PAdicSet:
    return PAdicSet(p, balls=[Ball(p, 0, 0)])


def point_set(p: int, *points: Rat) -> PAdicSet:
    return PAdicSet(p, points=[Fraction(x) for x in points])


def units_and_self_set(p: int, config: Config = DEFAULT_CONFIG) -> PAdicSet:
    """p itself plus every unit: {p} with the p - 1 unit cosets mod p,
    refused before they are built when p - 1 passes residue_cap."""
    check_prime_arg(p)
    charge(config, "residue_cap", p - 1, f"unit balls for units+p({p})")
    return PAdicSet(p, balls=[Ball(p, r, 1) for r in range(1, p)],
                    points=[Fraction(p)])


def power_set(p: int, exponent: int) -> PAdicSet:
    """The single point p^exponent, exponent >= 1, checked before it is
    formed."""
    if exponent < 1:
        raise PreconditionError(
            f"power needs an exponent >= 1, got {exponent}")
    check_prime_arg(p)
    check_printable(1, p, exponent, "")
    return PAdicSet(p, points=[Fraction(p) ** exponent])


# ---------------------------------------------------------------------------
# membership and closure
# ---------------------------------------------------------------------------

def member(alpha: Rat, s: PAdicSet) -> bool:
    """Exact membership of a p-integral rational in the set."""
    alpha = Fraction(alpha)
    if not _p_integral(alpha, s.p):
        raise PreconditionError(f"{alpha} is not {s.p}-integral")
    return (any(b.contains(alpha) for b in s.balls)
            or alpha in s.points
            or any(q.contains(alpha) for q in s.seqs))


def closure(s: PAdicSet) -> PAdicSet:
    """Topological closure: the set plus all sequence limits, canonical."""
    limits = tuple(q.limit for q in s.seqs)
    return canonicalize(PAdicSet(s.p, s.balls, s.points + limits, s.seqs))


def is_closed(s: PAdicSet) -> bool:
    """Canonicalization includes a limit exactly when it lies in the set,
    so the set is closed iff every canonical sequence includes its own."""
    return all(q.include_limit for q in canonicalize(s).seqs)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def _canonical_balls(p: int, balls: Iterable[Ball]) -> list[Ball]:
    """Disjoint maximal balls with the same union (unique for clopen sets).

    Centers are bucketed by depth.  From the deepest depth up, each
    complete family of p siblings merges into its parent, which joins the
    level above; only depths that hold a ball are visited.  Balls nested
    in a shallower one are then dropped (ultrametric: nested or disjoint).
    """
    levels: dict[int, set[int]] = {}
    for b in balls:
        levels.setdefault(b.depth, set()).add(b.center)
    depth = max(levels, default=0)
    while depth > 0:
        if len(levels[depth]) >= p:
            modulus = p ** (depth - 1)
            families = Counter(c % modulus for c in levels[depth])
            full = {parent for parent, n in families.items() if n == p}
            if full:
                levels[depth] = {c for c in levels[depth]
                                 if c % modulus not in full}
                levels.setdefault(depth - 1, set()).update(full)
        depth = max((d for d in levels if d < depth), default=0)
    keep: list[Ball] = []
    above: list[tuple[int, set[int]]] = []      # (p^depth, centers) kept so far
    depths = sorted(levels)
    for depth in depths:
        centers = {c for c in levels[depth]
                   if not any(c % m in kept for m, kept in above)}
        keep.extend(Ball(p, c, depth) for c in sorted(centers))
        if depth != depths[-1]:
            above.append((p ** depth, centers))
    return keep


def _in_ball_union(x: Fraction, balls: Sequence[Ball]) -> bool:
    return any(b.contains(x) for b in balls)


def _last_index_in_balls(seq: SeqWithLimit, balls: Sequence[Ball]) -> int:
    """Upper bound on n with element(n) inside the ball union.

    Requires the limit to lie outside every ball; beyond the bound the
    elements stay outside too (ultrametric: the distance to each ball
    center stabilizes at vp(limit - center) < depth).
    """
    bound = seq.start - 1
    for b in balls:
        bound = max(bound, vp(seq.limit - b.center, seq.p) - seq.valuation)
    return bound


def canonicalize(s: PAdicSet) -> PAdicSet:
    """Normal form: a function of the set alone, so structural equality of
    canonical forms is set equality.  It takes no ``Config``.

    Balls take their unique maximal disjoint decomposition.  A sequence
    whose limit falls in a ball dissolves into the points before its tail
    enters the ball.  Every other sequence is a ray: its limit c and the
    unit part u of its scale, with elements c + u*p^n for n >= e.  Rays
    with one key are tails of one another, so each keeps its least e, and
    then steps down while its next element lies in the set.  The walk
    ends without a cap: a ball holds at most one element of a ray whose
    limit lies outside it, and two rays with different limits share at
    most three elements.  Points that a ball, a ray element or a ray
    limit holds are dropped, and a limit is included exactly when it lies
    in the set.
    """
    p = s.p
    balls = _canonical_balls(p, s.balls)
    whole = PAdicSet(p, balls, s.points, s.seqs)
    points = set(s.points)
    rays: dict[tuple[Fraction, Fraction], int] = {}
    for q in s.seqs:
        b = next((b for b in balls if b.contains(q.limit)), None)
        if b is None:
            key = (q.limit, q.unit)
            rays[key] = min(rays.get(key, q.head), q.head)
        else:
            # from exponent b.depth on the elements lie in b; keep the rest
            points.update(q.element(n)
                          for n in range(q.start, b.depth - q.valuation))
    seqs = []
    for (c, unit), e in rays.items():
        while e > 0 and member(c + unit * p ** (e - 1), whole):
            e -= 1
        seqs.append(SeqWithLimit._ray(p, c, unit, e, member(c, whole)))
    seqs.sort(key=lambda q: (q.limit, q.scale))
    kept = sorted(x for x in points
                  if not _in_ball_union(x, balls)
                  and not any(x == q.limit or q.element_index(x) is not None
                              for q in seqs))
    return PAdicSet(p, balls, kept, seqs)


def sets_equal(a: PAdicSet, b: PAdicSet) -> bool:
    if a.p != b.p:
        raise PreconditionError("sets live at different primes")
    return canonicalize(a) == canonicalize(b)


# ---------------------------------------------------------------------------
# subset, density
# ---------------------------------------------------------------------------

def _seq_subset(q: SeqWithLimit, b: PAdicSet) -> bool:
    """Is every element (and included limit) of q contained in the
    canonical set b?

    The tail is handled symbolically: beyond an explicit index bound the
    elements are either uniformly inside one component of b or uniformly
    outside all of them.
    """
    c = q.limit
    if q.include_limit and not member(c, b):
        return False

    # a tail rule covers all exponents past its threshold: exponents
    # k >= depth sit inside a ball holding c, and k >= head in a ray of b
    # with q's limit and unit.  Canonical b has at most one such holder,
    # since its balls are disjoint and no ray's limit lies in a ball.
    # Without one, balls, points and foreign sequences can only catch
    # finitely many elements, so some element of q escapes b
    uniform_from = next((ball.depth for ball in b.balls if ball.contains(c)),
                        None)
    if uniform_from is None:
        uniform_from = next((other.head for other in b.seqs
                             if other.limit == c and other.unit == q.unit),
                            None)
    if uniform_from is None:
        return False
    return all(member(q.element(n), b)
               for n in range(q.start, uniform_from - q.valuation))


def is_subset(a: PAdicSet, b: PAdicSet) -> bool:
    """Decide containment of closed sets exactly, with no ``Config``.

    Canonical balls are disjoint and maximal, so a ball of a lies in b iff
    one canonical ball of b holds it: a cover by several would hold a
    complete sibling family, which canonicalization merges.
    """
    if a.p != b.p:
        raise PreconditionError("sets live at different primes")
    a, b = canonicalize(a), canonicalize(b)
    levels: dict[int, dict[int, Ball]] = {}       # depth -> center -> ball
    for c in b.balls:
        levels.setdefault(c.depth, {})[c.center] = c
    for ball in a.balls:
        held = (bucket.get(ball.center % b.p ** d) for d, bucket in levels.items())
        if not any(h is not None and h.contains_ball(ball) for h in held):
            return False
    for x in a.points:
        if not member(x, b):
            return False
    return all(_seq_subset(q, b) for q in a.seqs)


def is_dense_in(e: PAdicSet, f: PAdicSet) -> bool:
    """Does the closure of e cover f?"""
    return is_subset(f, closure(e))


# ---------------------------------------------------------------------------
# isolated points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsolatedTail:
    """All elements of seq with index >= from_n are isolated points."""

    seq: SeqWithLimit
    from_n: int


@dataclass(frozen=True)
class IsolatedPoints:
    """The isolated locus: finitely many explicit points plus whole tails."""

    explicit: tuple[Fraction, ...]
    tails: tuple[IsolatedTail, ...]


def isolated_points(s: PAdicSet) -> IsolatedPoints:
    """Isolated points of a closed set.

    Balls contribute none.  Canonical finite points are always isolated.
    A sequence element is isolated unless it sits inside a ball or equals
    another sequence's limit; both can happen only finitely often, so each
    sequence reports finitely many explicit elements plus one whole tail.
    Limits of sequences are never isolated.
    """
    s = canonicalize(s)
    if not all(q.include_limit for q in s.seqs):    # is_closed, on canonical s
        raise PreconditionError("isolated_points expects a closed set")
    explicit = list(s.points)
    tails = []
    other_limits = [q.limit for q in s.seqs]
    for q in s.seqs:
        bound = q.start - 1
        if s.balls:
            bound = max(bound, _last_index_in_balls(q, s.balls))
        skip = set()
        for lim in other_limits:
            if lim == q.limit:
                continue
            n = q.element_index(lim)
            if n is not None:
                skip.add(n)
                bound = max(bound, n)
        for n in range(q.start, bound + 1):
            if n in skip:
                continue
            e = q.element(n)
            if not _in_ball_union(e, s.balls):
                explicit.append(e)
        tails.append(IsolatedTail(q, bound + 1))
    # distinct sequences can share individual elements; report each once
    return IsolatedPoints(tuple(sorted(set(explicit))), tuple(tails))


def remove_isolated_point(s: PAdicSet, alpha: Rat) -> PAdicSet:
    """The closed set minus one isolated point (stays in the algebra)."""
    alpha = Fraction(alpha)
    s = canonicalize(s)
    if not member(alpha, s):
        raise PreconditionError(f"{alpha} is not in the set")
    if _in_ball_union(alpha, s.balls):
        raise PreconditionError(f"{alpha} lies in a ball, so it is not isolated")
    if any(q.limit == alpha for q in s.seqs):
        raise PreconditionError(f"{alpha} is a sequence limit, not isolated")
    if alpha in s.points:
        return PAdicSet(s.p, s.balls,
                        tuple(x for x in s.points if x != alpha), s.seqs)
    # alpha is a sequence element; split every sequence that lists it
    new_points = list(s.points)
    new_seqs = []
    for q in s.seqs:
        n = q.element_index(alpha)
        if n is None:
            new_seqs.append(q)
            continue
        new_points.extend(q.element(i) for i in range(q.start, n))
        new_seqs.append(SeqWithLimit._ray(q.p, q.limit, q.unit,
                                          q.valuation + n + 1, q.include_limit))
    return canonicalize(PAdicSet(s.p, s.balls, new_points, new_seqs))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def some_elements(s: PAdicSet, per_component: int = 4) -> Iterator[Fraction]:
    """A few concrete elements of the set, for sampling and validation."""
    for b in s.balls:
        for t in range(per_component):
            yield Fraction(b.center + t * b.p ** b.depth)
    yield from s.points
    for q in s.seqs:
        for n in range(q.start, q.start + per_component):
            yield q.element(n)
        if q.include_limit:
            yield q.limit
