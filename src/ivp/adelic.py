"""Integer sets with congruence exclusions and their closures.

An IntegerSet is either a finite explicit set or all of Z minus finitely
many congruence classes, plus finitely many explicitly re-added integers.
Each prime sees such a set through its closure in Z_p; the product of
those closures can be strictly larger than the closure inside the
restricted product, because congruence conditions at different primes
interact through the Chinese remainder theorem.  Both membership
questions, like finiteness, come down to whether one congruence class is
covered by the excluded classes, which ``exact.covers`` decides without
scanning the exclusion modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import DEFAULT_CONFIG, Config
from .errors import InvariantError, PreconditionError, charge
from .exact import (Congruence, Rat, check_prime_arg, covers, crt_solve,
                    iter_primes, prime_divisors, rational_mod, vp)
from .padic import Ball, PAdicSet, canonicalize, full_set

__all__ = [
    "IntegerSet", "AdelicCandidate", "closure_in_zp",
    "product_closure_member", "adelic_closure_member", "closures_differ",
]


@dataclass(frozen=True)
class IntegerSet:
    """(Z or a finite base) minus congruence classes, plus extras.

    base=None means all of Z.  Membership of an integer n is: n is in the
    base and avoids every excluded class, or n is listed in extra.
    """

    base: Optional[tuple[int, ...]] = None
    excluded: tuple[Congruence, ...] = ()
    extra: tuple[int, ...] = ()

    def __post_init__(self):
        if self.base is not None:
            object.__setattr__(self, "base", tuple(sorted(set(self.base))))
        object.__setattr__(self, "excluded", tuple(sorted(
            set(self.excluded), key=lambda c: (c.modulus, c.residue))))
        object.__setattr__(self, "extra", tuple(sorted(set(self.extra))))

    @classmethod
    def all_integers(cls) -> "IntegerSet":
        """Z itself.  Public API: nothing in the library calls it."""
        return cls()

    @classmethod
    def finite(cls, elements) -> "IntegerSet":
        return cls(base=tuple(int(n) for n in elements))

    @classmethod
    def without_classes(cls, *excluded: Congruence) -> "IntegerSet":
        return cls(excluded=excluded)

    def contains(self, n: int) -> bool:
        if n in self.extra:
            return True
        if self.base is not None and n not in self.base:
            return False
        return not any(c.contains(n) for c in self.excluded)

    @property
    def exclusion_modulus(self) -> int:
        out = 1
        for c in self.excluded:
            out = math.lcm(out, c.modulus)
        return out

    def special_primes(self,
                       config: Config = DEFAULT_CONFIG) -> tuple[int, ...]:
        """The primes of the exclusion modulus, where closures can differ."""
        return prime_divisors(self.exclusion_modulus, config)

    def is_finite(self, config: Config = DEFAULT_CONFIG) -> bool:
        return self.base is not None or covers(0, 1, self.excluded, config)

    def finite_elements(self,
                        config: Config = DEFAULT_CONFIG) -> tuple[int, ...]:
        if not self.is_finite(config):
            raise PreconditionError("integer set is infinite")
        if self.base is None:
            return self.extra
        kept = [n for n in self.base
                if not any(c.contains(n) for c in self.excluded)]
        return tuple(sorted(set(kept) | set(self.extra)))

    def is_empty(self, config: Config = DEFAULT_CONFIG) -> bool:
        return self.is_finite(config) and not self.finite_elements(config)

    def __str__(self):
        if self.base is not None:
            body = "{" + ", ".join(map(str, self.base)) + "}"
        else:
            body = "Z"
        for c in self.excluded:
            body += f" \\ ({c})"
        if self.extra:
            body += " U {" + ", ".join(map(str, self.extra)) + "}"
        return body


def _stable_depth(L: int, p: int) -> int:
    """A depth D where each class mod p^D is disjoint from or dense in an
    infinite set with exclusion modulus L."""
    return vp(L, p) + 1


def closure_in_zp(e: IntegerSet, p: int,
                  config: Config = DEFAULT_CONFIG) -> PAdicSet:
    """Topological closure of the integer set inside Z_p.

    Finite sets close to themselves.  At a prime p not dividing the
    exclusion modulus L an infinite set is dense: by CRT, exclusions with
    moduli prime to p cover a class mod p^k only if they cover Z.
    Otherwise the closure is the classes mod p^D, D from _stable_depth,
    that the exclusions do not cover, plus the re-added points; the p^D
    classes are capped by residue_cap, and so are the nodes of each
    covering check.
    """
    check_prime_arg(p)
    if e.is_finite(config):
        return canonicalize(PAdicSet(
            p, points=[Fraction(n) for n in e.finite_elements(config)]))
    L = e.exclusion_modulus
    if L % p:
        return full_set(p)
    depth = _stable_depth(L, p)
    count = p ** depth
    charge(config, "residue_cap", count, f"residue classes at prime {p}")
    balls = [Ball(p, c, depth) for c in range(count)
             if not covers(c, count, e.excluded, config)]
    points = [Fraction(n) for n in e.extra]
    return canonicalize(PAdicSet(p, balls, points))


@dataclass(frozen=True)
class AdelicCandidate:
    """A finitely-supported prescription: value x_p at each listed prime,
    an unspecified integral value everywhere else."""

    values: tuple[tuple[int, Fraction], ...]

    @classmethod
    def of(cls, values: dict[int, Rat]) -> "AdelicCandidate":
        items = []
        for p in sorted(values):
            check_prime_arg(p)
            x = Fraction(values[p])
            if vp(x, p) < 0:
                raise PreconditionError(f"{x} is not {p}-integral")
            items.append((p, x))
        return cls(tuple(items))

    @classmethod
    def diagonal(cls, n: int, primes) -> "AdelicCandidate":
        return cls.of({p: Fraction(n) for p in primes})

    def value_at(self, p: int) -> Optional[Fraction]:
        for q, x in self.values:
            if q == p:
                return x
        return None

    def __str__(self):
        return ", ".join(f"{p}: {x}" for p, x in self.values)


def product_closure_member(e: IntegerSet, x: AdelicCandidate,
                           config: Config = DEFAULT_CONFIG) -> bool:
    """Membership in the plain product of the per-prime closures.

    Coordinates are independent here: each listed value must lie in the
    closure at its prime, the restricted-product closure of that
    coordinate alone, and the unlisted coordinates can be filled with any
    element as long as the set is nonempty.
    """
    return not e.is_empty(config) and all(
        adelic_closure_member(e, AdelicCandidate(((p, x_p),)), config)
        for p, x_p in x.values)


def adelic_closure_member(e: IntegerSet, x: AdelicCandidate,
                          config: Config = DEFAULT_CONFIG) -> bool:
    """Membership in the closure taken inside the restricted product.

    Here one single integer must approximate every listed coordinate
    simultaneously to arbitrary depth.  The congruence constraints
    stabilize one level past the p-part of the exclusion modulus L
    (_stable_depth), so by the Chinese remainder theorem the coordinates
    fold into one class c mod M, and the candidate is a member iff the
    exclusions do not cover that class.  An exact rational match with a
    finite-set element or a re-added extra also settles it.
    """
    # a member z of e equal to every listed coordinate works at all depths
    exact_common = _common_exact_value(x)
    exact = exact_common is not None and e.contains(exact_common)
    if e.is_finite(config) or exact:
        # a finite set's candidates z are each expelled in the end unless exact
        return exact

    L = e.exclusion_modulus
    congruences = []
    for p, x_p in x.values:
        modulus = p ** _stable_depth(L, p)
        congruences.append(Congruence(rational_mod(x_p, modulus), modulus))
    # powers of distinct primes are coprime, so the fold always succeeds
    c = crt_solve(congruences)
    return not covers(c.residue, c.modulus, e.excluded, config)


def _common_exact_value(x: AdelicCandidate) -> Optional[int]:
    vals = {x_p for _, x_p in x.values}
    if len(vals) == 1:
        v = vals.pop()
        if v.denominator == 1:
            return int(v)
    return None


def closures_differ(e: IntegerSet,
                    config: Config = DEFAULT_CONFIG) -> Optional[AdelicCandidate]:
    """A candidate in the product of closures but not in the restricted-
    product closure, or None when the canonical candidates all fail.

    Finite sets of size two or more always separate: prescribing two
    different elements at two suitable primes cannot be matched by one
    integer.  For congruence-defined sets the candidates are integers of
    the excluded classes, prescribed diagonally at the primes of the
    modulus.
    """
    if e.is_finite(config):
        elems = e.finite_elements(config)
        if len(elems) < 2:
            return None
        a, b = elems[0], elems[1]
        primes = (q for q in iter_primes() if (a - b) % q)
        cand = AdelicCandidate.of({next(primes): a, next(primes): b})
        # each coordinate is an element of e, and no element equals both
        if (product_closure_member(e, cand, config)
                and not adelic_closure_member(e, cand, config)):
            return cand
        raise InvariantError(f"{cand} fails to separate the closures of {e}")

    # Each excluded class takes, at every prime of L, a closure ball that
    # meets it; the CRT fold of those congruences gives an integer n in
    # every ball.  n lies in an excluded class and is not re-added, so it
    # is outside the restricted-product closure: no adelic test is needed.
    closures = {p: closure_in_zp(e, p, config)
                for p in e.special_primes(config)}
    for c in e.excluded:
        balls = [_ball_meeting(f, c) for f in closures.values()]
        if None in balls:
            continue
        r = crt_solve([c] + [Congruence(b.center, b.p ** b.depth) for b in balls])
        n = r.residue
        while n in e.extra:
            n += r.modulus
        return AdelicCandidate.diagonal(n, closures)
    return None


def _ball_meeting(f: PAdicSet, c: Congruence) -> Optional[Ball]:
    """A ball of f that meets the class c; one holding c.residue first."""
    k = vp(c.modulus, f.p)
    meeting = [b for b in f.balls
               if (b.center - c.residue) % f.p ** min(b.depth, k) == 0]
    return min(meeting, key=lambda b: not b.contains(c.residue), default=None)
