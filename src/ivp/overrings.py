"""Overrings of the ring of integer-valued polynomials on Z.

A ring here is described by closed sets: one per prime, almost all of
them given by a uniform default rule.  Rings ordered by inclusion
correspond (inclusion-reversing) to their families of closed sets, so
containment and equality reduce to per-prime set comparisons plus a
comparison of the default rules.

Representations are intersections of one-point valuation overrings: a
unitary factor pins a value at (p, alpha), a non-unitary factor pins the
denominator polynomial q.  The operations below decide which factors are
forced by the others, which are superfluous, and when a representation
without redundancy exists.

The tail rules live here too: the uniform recipes (full, empty, units+p,
power(k), intset(...)) that give the closed set at almost every prime,
with every question about them decided from one dense/sparse split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .adelic import IntegerSet, closure_in_zp
from .config import DEFAULT_CONFIG, Config
from .errors import InvariantError, PreconditionError, charge
from .exact import (Congruence, Rat, check_prime_arg, is_finite, is_prime,
                    iter_primes, perfect_power, prime_divisors)
from .membership import is_integer_valued, witness_from_valuations, WitnessRationalFunction
from .padic import (PAdicSet, SeqWithLimit, canonicalize, closure,
                    empty_set, full_set, is_subset, isolated_points, member,
                    power_set, remove_isolated_point, units_and_self_set)
from .polys import IrreduciblePoly, RatPoly, max_valuation

__all__ = [
    "Decision", "TriState", "RingSpec", "Representation", "RingOfResult",
    "RuleKind", "DefaultRule", "FULL_RULE", "UNITS_AND_SELF_RULE",
    "EMPTY_RULE", "single_power_rule", "integer_set_rule", "instantiate",
    "normalize_rule", "rule_subset", "ring_contains", "ring_equal", "ring_of",
    "ring_member", "representation_equals", "unitary_contains",
    "nonunitary_contains", "superfluous_unitary", "superfluous_nonunitary",
    "MinimalExtensionFamily", "MinimalExtensions", "minimal_extensions",
    "has_irredundant_representation", "localize", "globalize",
    "SimpleWitness", "is_simple_integer_set_ring",
]


# ---------------------------------------------------------------------------
# three-valued answers
# ---------------------------------------------------------------------------

class Decision(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TriState:
    """A definite yes/no, or an honest unknown with its reason.

    payload carries op-specific evidence: a witness rational function for
    a "no" containment, an escaping polynomial, and so on.
    """

    decision: Decision
    reason: str = ""
    payload: object = None

    @classmethod
    def yes(cls, reason: str = "", payload=None) -> "TriState":
        return cls(Decision.YES, reason, payload)

    @classmethod
    def no(cls, reason: str = "", payload=None) -> "TriState":
        return cls(Decision.NO, reason, payload)

    @classmethod
    def unknown(cls, reason: str, payload=None) -> "TriState":
        return cls(Decision.UNKNOWN, reason, payload)

    @property
    def is_yes(self) -> bool:
        return self.decision is Decision.YES

    @property
    def is_no(self) -> bool:
        return self.decision is Decision.NO

    @property
    def is_unknown(self) -> bool:
        return self.decision is Decision.UNKNOWN

    def __str__(self):
        body = self.decision.value
        if self.reason:
            body += f" ({self.reason})"
        return body


# ---------------------------------------------------------------------------
# tail rules: one closed set prescribed at almost every prime
# ---------------------------------------------------------------------------

class RuleKind(Enum):
    FULL = "full"
    UNITS_AND_SELF = "units+p"
    SINGLE_POWER = "power"
    FROM_INTEGER_SET = "intset"
    EMPTY = "empty"


@dataclass(frozen=True)
class DefaultRule:
    """A uniform recipe assigning a set in Z_p to every prime p."""

    kind: RuleKind
    exponent: Optional[int] = None
    integer_set: Optional[IntegerSet] = None

    def __post_init__(self):
        if self.kind is RuleKind.SINGLE_POWER:
            if self.exponent is None or self.exponent < 1:
                raise PreconditionError(
                    f"power needs an exponent >= 1, got {self.exponent}")
        elif self.exponent is not None:
            raise PreconditionError(f"{self.kind} takes no exponent")
        if (self.integer_set is None) == (self.kind is RuleKind.FROM_INTEGER_SET):
            raise PreconditionError("integer_set is for FROM_INTEGER_SET only")

    def __str__(self):
        if self.kind is RuleKind.SINGLE_POWER:
            return f"power({self.exponent})"
        if self.kind is RuleKind.FROM_INTEGER_SET:
            return f"intset({self.integer_set})"
        return self.kind.value


FULL_RULE = DefaultRule(RuleKind.FULL)
UNITS_AND_SELF_RULE = DefaultRule(RuleKind.UNITS_AND_SELF)
EMPTY_RULE = DefaultRule(RuleKind.EMPTY)


def single_power_rule(exponent: int) -> DefaultRule:
    return DefaultRule(RuleKind.SINGLE_POWER, exponent=exponent)


def integer_set_rule(integer_set: IntegerSet) -> DefaultRule:
    return DefaultRule(RuleKind.FROM_INTEGER_SET, integer_set=integer_set)


def instantiate(rule: DefaultRule, p: int,
                config: Config = DEFAULT_CONFIG) -> PAdicSet:
    """The concrete closed set the rule prescribes at prime p."""
    if rule.kind is RuleKind.FULL:
        return full_set(p)
    if rule.kind is RuleKind.EMPTY:
        return empty_set(p)
    if rule.kind is RuleKind.SINGLE_POWER:
        return power_set(p, rule.exponent)
    if rule.kind is RuleKind.UNITS_AND_SELF:
        return units_and_self_set(p, config)
    if rule.kind is RuleKind.FROM_INTEGER_SET:
        return closure_in_zp(rule.integer_set, p, config)
    raise PreconditionError(f"unknown rule {rule.kind}")


def normalize_rule(rule: DefaultRule,
                   config: Config = DEFAULT_CONFIG) -> DefaultRule:
    """Collapse degenerate integer-set rules to their plain equivalents.

    An infinite set whose closure is everything even at the primes of its
    exclusion modulus prescribes exactly what the full rule does.
    """
    if rule.kind is not RuleKind.FROM_INTEGER_SET:
        return rule
    residues = _tail_residues(rule, config)
    if residues is not None:
        return rule if residues else EMPTY_RULE
    if all(instantiate(rule, p, config) == full_set(p)
           for p in rule.integer_set.special_primes(config)):
        return FULL_RULE
    return rule


def _tail_residues(rule: DefaultRule,
                   config: Config) -> Optional[tuple[int, ...]]:
    """None for a dense rule, which puts a ball in the set at almost every
    prime: full, units+p and an infinite integer set.  A sparse rule pins
    finitely many integers at each prime p; this gives their residues mod
    p, the same at every p: () for empty, (0,) for power(k), as p^k = 0
    mod p, and the elements of a finite integer set.

    Finiteness of an integer set is a covering check, so callers decide
    it once and pass the answer on.
    """
    if rule.kind is RuleKind.EMPTY:
        return ()
    if rule.kind is RuleKind.SINGLE_POWER:
        return (0,)
    if (rule.kind is RuleKind.FROM_INTEGER_SET
            and rule.integer_set.is_finite(config)):
        return rule.integer_set.finite_elements(config)
    return None


def rule_subset(a: DefaultRule, b: DefaultRule,
                config: Config = DEFAULT_CONFIG) -> bool:
    """Is the set prescribed by a contained in the one prescribed by b at
    every single prime?  Decidable for every rule pair."""
    if a == b or b.kind is RuleKind.FULL:
        return True
    residues = _tail_residues(a, config)
    if residues == ():
        return True
    if b.kind is RuleKind.UNITS_AND_SELF:
        # no ball fits, p^k fits only as p itself, and a pinned integer
        # must be a unit at every prime except possibly itself
        if a.kind is RuleKind.SINGLE_POWER:
            return a.exponent == 1
        return residues is not None and all(
            n in (1, -1) or (n > 1 and is_prime(n)) for n in residues)
    b_residues = _tail_residues(b, config)
    if b_residues is None:      # an infinite integer set
        return all(is_subset(instantiate(a, p, config),
                             instantiate(b, p, config))
                   for p in b.integer_set.special_primes(config))
    # no ball fits in a sparse set, no finite set holds p^k at every p,
    # and two powers differ
    return (residues is not None
            and a.kind is b.kind is RuleKind.FROM_INTEGER_SET
            and set(residues) <= set(b_residues))


# ---------------------------------------------------------------------------
# ring descriptions
# ---------------------------------------------------------------------------

def _sets_by_prime(sets):
    """The (p, canonical set) pairs of a prime-keyed mapping, by prime;
    each key must be a prime and the prime of its set."""
    for p, s in sorted(dict(sets or {}).items()):
        check_prime_arg(p)
        if s.p != p:
            raise PreconditionError(f"set at key {p} lives at prime {s.p}")
        yield p, canonicalize(s)


def _set_at(pairs: tuple[tuple[int, PAdicSet], ...], rule: DefaultRule,
            p: int, config: Config) -> PAdicSet:
    """The set listed for p, or else the one the tail rule gives at p."""
    for q, s in pairs:
        if q == p:
            return s
    return instantiate(rule, p, config)


@dataclass(frozen=True)
class RingSpec:
    """A ring given by its closed set at finitely many exceptional primes
    and a default rule everywhere else.

    Exceptional sets must be closed; they are canonicalized, and entries
    equal to the default rule's instantiation are pruned, so structurally
    equal specs describe equal rings.
    """

    exceptional: tuple[tuple[int, PAdicSet], ...]
    default: DefaultRule

    def __init__(self, exceptional=None, default: DefaultRule = FULL_RULE,
                 config: Config = DEFAULT_CONFIG):
        default = normalize_rule(default, config)
        items = []
        for p, s in _sets_by_prime(exceptional):
            # is_closed, read off the canonical s without canonicalizing again
            if not all(q.include_limit for q in s.seqs):
                raise PreconditionError(
                    f"exceptional set at {p} is not closed")
            # canonical units+p(p) has p - 1 balls, so any other count
            # differs from it without building it
            if ((default.kind is RuleKind.UNITS_AND_SELF
                 and len(s.balls) != p - 1)
                    or s != instantiate(default, p, config)):
                items.append((p, s))
        object.__setattr__(self, "exceptional", tuple(items))
        object.__setattr__(self, "default", default)

    def window(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.exceptional)

    def local_set(self, p: int, config: Config = DEFAULT_CONFIG) -> PAdicSet:
        """The closed set this ring carves out inside Z_p."""
        return _set_at(self.exceptional, self.default, p, config)

    @classmethod
    def integers(cls) -> "RingSpec":
        """Int(Z): every local set is the whole of Z_p."""
        return cls({}, FULL_RULE)

    @classmethod
    def rationals(cls) -> "RingSpec":
        """Q[X]: every local set is empty.  Public API: nothing in the
        library calls it."""
        return cls({}, EMPTY_RULE)

    @classmethod
    def primes_ring(cls) -> "RingSpec":
        """Polynomials sending primes to integers: {p} plus units at p."""
        return cls({}, UNITS_AND_SELF_RULE)

    @classmethod
    def from_integer_set(cls, e: IntegerSet,
                         config: Config = DEFAULT_CONFIG) -> "RingSpec":
        return cls({}, integer_set_rule(e), config)


def ring_contains(r1: RingSpec, r2: RingSpec,
                  config: Config = DEFAULT_CONFIG) -> TriState:
    """Is r1 a superset of r2?  Containment of rings reverses containment
    of their local sets at every prime."""
    window = sorted(set(r1.window()) | set(r2.window()))
    for p in window:
        if not is_subset(r1.local_set(p, config), r2.local_set(p, config)):
            return TriState.no(f"local set at {p} not contained")
    if not rule_subset(r1.default, r2.default, config):
        return TriState.no("default rule not contained")
    return TriState.yes()


def ring_equal(r1: RingSpec, r2: RingSpec,
               config: Config = DEFAULT_CONFIG) -> TriState:
    if r1 == r2:
        return TriState.yes("identical canonical form")
    a = ring_contains(r1, r2, config)
    if not a.is_yes:
        return a
    return ring_contains(r2, r1, config)


def localize(r: RingSpec, p: int, config: Config = DEFAULT_CONFIG) -> RingSpec:
    """Keep only the constraint at p; every other prime becomes free."""
    return RingSpec({p: r.local_set(p, config)}, EMPTY_RULE, config)


def globalize(parts: dict[int, PAdicSet], default: DefaultRule = EMPTY_RULE,
              config: Config = DEFAULT_CONFIG) -> RingSpec:
    """Assemble a ring from per-prime closed sets plus a tail rule."""
    return RingSpec(parts, default, config)


def ring_member(f: RatPoly, r: RingSpec,
                config: Config = DEFAULT_CONFIG) -> bool:
    """Membership of a polynomial: integer valued on the local set at
    every prime of its denominator."""
    if f.denominator == 1:
        return True
    return all(is_integer_valued(f, r.local_set(p, config))
               for p in prime_divisors(f.denominator, config))


# ---------------------------------------------------------------------------
# representations by valuation overrings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Representation:
    """An intersection of one-point valuation overrings.

    unitary maps finitely many primes to the set of pinned values there;
    unlisted primes use the default rule.  nonunitary lists denominator
    polynomials explicitly; all_min additionally includes every
    irreducible polynomial with no root in any of the per-prime sets.
    """

    unitary: tuple[tuple[int, PAdicSet], ...]
    default: DefaultRule
    nonunitary: tuple[IrreduciblePoly, ...]
    all_min: bool

    def __init__(self, unitary=None, default: DefaultRule = FULL_RULE,
                 nonunitary=(), all_min: bool = False,
                 config: Config = DEFAULT_CONFIG):
        items = tuple(_sets_by_prime(unitary))
        polys = {}
        for q in nonunitary:
            if not isinstance(q, IrreduciblePoly):
                raise PreconditionError("nonunitary entries must be certified")
            polys.setdefault(q.coeffs, q)
        object.__setattr__(self, "unitary", items)
        object.__setattr__(self, "default", normalize_rule(default, config))
        object.__setattr__(self, "nonunitary", tuple(polys.values()))
        object.__setattr__(self, "all_min", bool(all_min))

    def window(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.unitary)

    def unitary_at(self, p: int, config: Config = DEFAULT_CONFIG) -> PAdicSet:
        return _set_at(self.unitary, self.default, p, config)

    def lists(self, q: IrreduciblePoly) -> bool:
        return any(q.coeffs == r.coeffs for r in self.nonunitary)


@dataclass(frozen=True)
class RingOfResult:
    spec: RingSpec
    polynomial: TriState            # does the representation's ring equal
    #                                 the polynomial ring of its closures?
    escape: Optional[WitnessRationalFunction] = None


def ring_of(rep: Representation, config: Config = DEFAULT_CONFIG) -> RingOfResult:
    """The closed sets the representation cuts out, and whether the
    represented ring is exactly the polynomial ring of those sets.

    The unitary part alone always gives the polynomial ring of the
    closures.  Listed denominator polynomials never shrink it, so the
    answer is yes when the default rule forces every denominator or the
    whole minimal family is listed (all_min).  Otherwise the default rule
    is sparse and the answer is no: a constructed irreducible q escapes,
    and the escape witness is 1/q.
    """
    spec = _closure_spec(rep, config)
    poly = _polynomiality(rep, spec, config)
    return RingOfResult(spec, poly, poly.payload)


def _polynomiality(rep: Representation, spec: RingSpec,
                   config: Config) -> TriState:
    """Is the intersection described by rep, whose unitary part closes
    onto spec, exactly the polynomial ring of spec's sets?  A no carries
    the escape witness as its payload."""
    # listed denominator factors contain every polynomial, so they never
    # push the intersection below the polynomial ring; only an irreducible
    # *outside* the family can, by escaping every factor
    if rep.all_min:
        return TriState.yes("includes the full minimal denominator family")
    residues = _tail_residues(spec.default, config)
    if residues is None:
        return TriState.yes("default rule forces every denominator")
    q = _escaping_polynomial(rep, spec, residues or (0,), config)
    forced, _ = _unitary_forces_vq(spec, q, residues, config)
    if not forced.is_no:
        raise InvariantError(
            f"constructed unit polynomial {q} is forced: {forced}")
    return TriState.no(f"{q} is not represented and escapes",
                       payload=forced.payload)


def _escaping_polynomial(rep: Representation, spec: RingSpec,
                         zs: tuple[int, ...],
                         config: Config) -> IrreduciblePoly:
    """An unlisted irreducible q that is a unit on every local set of a
    spec with a sparse default rule, so that 1/q escapes.

    q = v * prod_{z in Z} (X - z) - 1, with v the product of the window
    primes and Z the nonempty integers zs: the tail residues, or {0} for
    an empty tail.  q = -1 mod every window prime, so vp(q) = 0 on Z_p
    there; q(z) = -1 on Z, so q = -1 mod p on the points a tail prime p
    pins, which are z mod p.
    q is primitive, as q(z) = -1, and irreducible (Schur): if q = g*h
    over Z with both factors nonconstant, then g(z) = -h(z) = +-1 at the
    |Z| points while g + h has degree below |Z|, so g + h = 0 and
    q = -g^2, which contradicts q's positive leading coefficient.  A
    listed q is replaced by one with v multiplied by a new prime; rep
    lists finitely many polynomials and each round makes v larger, so
    the loop ends.
    """
    monic = RatPoly([1])
    for z in zs:
        monic = monic * RatPoly([-z, 1])
    one = RatPoly([1])
    v = math.prod(spec.window())
    q = IrreduciblePoly.assert_irreducible(monic * v - one, config)
    while rep.lists(q):
        v *= next(ell for ell in iter_primes() if v % ell)
        q = IrreduciblePoly.assert_irreducible(monic * v - one, config)
    return q


def _unitary_forces_vq(spec: RingSpec, q: IrreduciblePoly,
                       residues: Optional[tuple[int, ...]],
                       config: Config) -> tuple[TriState, bool]:
    """Does the intersection of the unitary factors described by spec lie
    inside the valuation overring of q?  residues are those of the tail
    rule, as _tail_residues gives them.

    Yes when q has a root in one of the sets or the positive suprema of
    vp(q) spread over infinitely many primes; otherwise the finitely many
    finite suprema assemble an escaping rational function and the answer
    is no, with that witness attached.  The flag is true when the answer
    rests on a root of q in a local set, as every yes does except for
    q = X under units+p or power(k), so it is false exactly for q in the
    all_min family.  A sparse tail pins integers only, and its roots are
    found in closed form before any q(z) is factored.
    """
    window = dict(spec.exceptional)
    valuations = {}
    for p, f_p in window.items():
        if f_p.is_empty():
            continue
        # the sets are closed, so an infinite supremum is a root in the set
        valuations[p] = max_valuation(q, f_p, config)
        if not is_finite(valuations[p]):
            return TriState.yes(f"root inside the set at {p}"), True
    rule = spec.default
    if residues is None:
        if rule.kind is not RuleKind.UNITS_AND_SELF:
            return TriState.yes("roots exist at infinitely many primes"), True
        if q.coeffs == (0, 1):
            return (TriState.yes("vp at the pinned value p is 1 for every p"),
                    False)
        return TriState.yes("unit roots exist at infinitely many primes"), True

    # sparse tail: only an integer root can lie in a set it pins, a finite
    # set's element at every prime off the window or b^k at the prime b;
    # under power(k), q(0) = 0 makes q = X, of finite positive vp at p^k
    for z in residues:
        if q.eval_int(z) == 0:
            if rule.kind is RuleKind.SINGLE_POWER:
                return TriState.yes(
                    "vp at the pinned power is positive for every p"), False
            return TriState.yes(f"root {z} pinned at every prime"), True
    root = q.rational_root()
    if (rule.kind is RuleKind.SINGLE_POWER and root is not None
            and root.denominator == 1):
        base = perfect_power(int(root), rule.exponent)
        if base is not None and base not in window:
            return TriState.yes(f"root inside the set at {base}"), True
    # no root anywhere: q is a unit on the points pinned at p unless p
    # divides q(z) for a tail residue z, so finitely many primes contribute
    tail_primes = {ell for z in residues
                   for ell in prime_divisors(q.eval_int(z), config)}
    family = {p: s for p, s in window.items() if not s.is_empty()}
    for p in sorted(tail_primes.difference(window)):
        family[p] = instantiate(rule, p, config)
        valuations[p] = max_valuation(q, family[p], config)
    witness = witness_from_valuations(q, family, valuations)
    return (TriState.no("finitely many finite contributions", payload=witness),
            False)


def representation_equals(rep: Representation, r: RingSpec,
                          config: Config = DEFAULT_CONFIG) -> TriState:
    """Does the representation describe exactly the ring r?

    The unitary part closes onto the ring of its closures, which must
    contain r: a pinned value outside r's local set is a precondition
    error, not an answer.  Given that, the representation matches r iff
    r contains that ring too, so the pinned values are dense in each
    local set, and no irreducible polynomial outside the listed family
    escapes the intersection.  Unless all_min is set, a sparse default
    rule lets some q escape, and the no carries the witness 1/q, as in
    ring_of.
    """
    spec = _closure_spec(rep, config)
    inside = ring_contains(spec, r, config)
    if not inside.is_yes:
        raise PreconditionError(
            f"pinned values leave the ring's local sets: {inside.reason}")
    dense = ring_contains(r, spec, config)
    if not dense.is_yes:
        return TriState.no(f"pinned values not dense: {dense.reason}")
    return _polynomiality(rep, r, config)


def unitary_contains(rep: Representation, p: int, alpha: Rat,
                     config: Config = DEFAULT_CONFIG) -> bool:
    """Is the valuation overring at (p, alpha) a superset of the
    represented ring?  Exactly when alpha is a limit of pinned values."""
    check_prime_arg(p)
    return member(Fraction(alpha), closure(rep.unitary_at(p, config)))


def nonunitary_contains(rep: Representation, q: IrreduciblePoly,
                        config: Config = DEFAULT_CONFIG) -> TriState:
    """Is the valuation overring of q a superset of the represented ring?

    Listed factors and the all_min family are containments by fiat; all
    other cases are settled by root and tail analysis of the unitary
    part, with a witness attached to every no.
    """
    if rep.lists(q):
        return TriState.yes("listed factor")
    if rep.all_min:
        # an unlisted q either has a root in some set, making the
        # containment automatic, or belongs to the minimal family
        return TriState.yes("covered by the minimal denominator family")
    spec = _closure_spec(rep, config)
    return _unitary_forces_vq(spec, q, _tail_residues(spec.default, config),
                              config)[0]


def superfluous_unitary(rep: Representation, p: int, alpha: Rat,
                        config: Config = DEFAULT_CONFIG) -> bool:
    """Can the factor pinning alpha at p be dropped without changing the
    ring?  Exactly when alpha is not isolated among the pinned values."""
    check_prime_arg(p)
    alpha = Fraction(alpha)
    e_p = canonicalize(rep.unitary_at(p, config))
    if not member(alpha, e_p):
        raise PreconditionError(f"{alpha} is not pinned at {p}")
    if any(b.contains(alpha) for b in e_p.balls):
        return True
    return any(s.limit == alpha for s in e_p.seqs)


def superfluous_nonunitary(rep: Representation, q: IrreduciblePoly,
                           config: Config = DEFAULT_CONFIG) -> TriState:
    """Can the factor for q be dropped without changing the ring?

    The factor is listed, or belongs to the all_min family: q has no root
    in any local set.  Other denominator factors never imply this one, so
    the question is whether the unitary part alone forces the
    containment; one analysis decides that and whether q has a root.
    """
    listed = rep.lists(q)
    if not listed and not rep.all_min:
        raise PreconditionError(f"{q} is not part of the representation")
    spec = _closure_spec(rep, config)
    forced, rooted = _unitary_forces_vq(
        spec, q, _tail_residues(spec.default, config), config)
    if rooted and not listed:
        raise PreconditionError(f"{q} is not part of the representation")
    return forced


def _closure_spec(rep: Representation, config: Config) -> RingSpec:
    return RingSpec({p: closure(s) for p, s in rep.unitary},
                    rep.default, config)


# ---------------------------------------------------------------------------
# minimal ring extensions and irredundance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalExtensionFamily:
    """A cofinite tail of a sequence of isolated pinned values: each index
    from from_n on yields one minimal extension of the base ring."""

    base: "RingSpec"
    prime: int
    seq: SeqWithLimit
    from_n: int

    def value_at(self, n: int) -> Fraction:
        if n < self.from_n:
            raise PreconditionError(f"family starts at index {self.from_n}")
        return self.seq.element(n)

    def ring_at(self, n: int, config: Config = DEFAULT_CONFIG) -> "RingSpec":
        """The minimal extension at index n: the base ring with the pinned
        value of that index dropped.  Public API: nothing in the library
        calls it."""
        return _drop_point(self.base, self.prime, self.value_at(n), config)


@dataclass(frozen=True)
class MinimalExtensions:
    base: "RingSpec"
    prime: int
    explicit: tuple[tuple[Fraction, "RingSpec"], ...]
    families: tuple[MinimalExtensionFamily, ...]

    def count_description(self) -> str:
        if not self.families:
            return str(len(self.explicit))
        return (f"{len(self.explicit)} + {len(self.families)} infinite "
                "families")


def _drop_point(r: RingSpec, p: int, alpha: Fraction,
                config: Config) -> RingSpec:
    removed = remove_isolated_point(r.local_set(p, config), alpha)
    parts = dict(r.exceptional)
    parts[p] = removed
    return RingSpec(parts, r.default, config)


def minimal_extensions(r: RingSpec, p: int,
                       config: Config = DEFAULT_CONFIG) -> MinimalExtensions:
    """All minimal ring extensions of r supported at the prime p.

    They correspond exactly to the isolated points of the local set:
    removing one isolated point is the smallest possible strict shrink of
    a closed set, hence the smallest possible strict ring extension.
    """
    z_p = r.local_set(p, config)
    iso = isolated_points(z_p)
    explicit = tuple((x, _drop_point(r, p, x, config)) for x in iso.explicit)
    families = tuple(MinimalExtensionFamily(r, p, t.seq, t.from_n)
                     for t in iso.tails)
    return MinimalExtensions(r, p, explicit, families)


def has_irredundant_representation(r: RingSpec,
                                   config: Config = DEFAULT_CONFIG) -> TriState:
    """Does some intersection of valuation overrings give r with no
    superfluous factor?

    Requires the isolated points to be dense in every local set.  In a
    closed set that means no ball: a ball holds no isolated point, every
    canonical point is one, and every other element is a limit of
    isolated sequence elements.  The default rule decides the
    almost-all-primes part: single points are isolated, balls never are.
    """
    for p in r.window():
        if r.local_set(p, config).balls:
            return TriState.no(f"isolated points are not dense at {p}")
    kind = r.default.kind
    if _tail_residues(r.default, config) is None:
        if kind is RuleKind.FULL:
            return TriState.no(
                "no isolated points in Z_p at almost all primes")
        if kind is RuleKind.UNITS_AND_SELF:
            return TriState.no("unit balls have no isolated points")
        return TriState.no("full local sets at almost all primes")
    if kind is RuleKind.EMPTY:
        return TriState.yes("no constraints at almost all primes")
    if kind is RuleKind.SINGLE_POWER:
        return TriState.yes("one isolated value at almost all primes")
    return TriState.yes("finitely many isolated values at almost all primes")


# ---------------------------------------------------------------------------
# simple rings of an integer set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleWitness:
    description: str
    integer_set: Optional[IntegerSet] = None


def is_simple_integer_set_ring(r: RingSpec,
                               config: Config = DEFAULT_CONFIG) -> tuple[TriState, Optional[SimpleWitness]]:
    """Is r the ring of polynomials integer valued on one set of integers?

    Such a set E must be dense in every local set at once, so it lies in
    the integers of each.  Under a full tail, local sets made of balls
    assemble through the Chinese remainder theorem, and a yes carries E.
    A window set S_p with no ball refutes.  Its t points and limits and
    its s rays c + u*p^k hold integers in at most
    s*ord_q(p)*q^(j-1) + t classes mod q^j, for a prime q off the window
    that divides no denominator of S_p, since p^k mod q^j has period at
    most ord_q(p)*q^(j-1).  At the primes q = 1 mod s where p is an s-th
    power, a positive density by Chebotarev, ord_q(p) <= (q-1)/s, so
    once q^(j-1) > t some class mod q^j holds no integer of S_p, and E
    is not dense in Z_q.  A window mixing balls with points or sequences,
    and a units+p or integer-set tail with a window, are reported
    unknown.
    """
    kind = r.default.kind
    window = r.window()

    # RingSpec drops window sets equal to the tail's: they agree iff no window
    if kind is RuleKind.EMPTY:
        if not window:
            return (TriState.yes("the empty set works: the ring is Q[X]"),
                    SimpleWitness("empty set", IntegerSet.finite([])))
        return (TriState.no(
            "integers dense in a nonempty local set would constrain"
            " almost all primes"), None)

    if kind is RuleKind.SINGLE_POWER:
        return (TriState.no(
            "no integer is the pinned power at two different primes"), None)

    if kind is RuleKind.UNITS_AND_SELF:
        if not window:
            return (TriState.yes(
                "the primes together with 1 and -1 are dense in every"
                " local set"),
                SimpleWitness("all primes together with 1 and -1", None))
        return (TriState.unknown(
            "units-style tails with exceptional primes are outside the"
            " supported shapes"), None)

    if kind is RuleKind.FROM_INTEGER_SET:
        e: IntegerSet = r.default.integer_set
        if not window:
            return (TriState.yes("the defining integer set itself works"),
                    SimpleWitness(str(e), e))
        return (TriState.unknown(
            "exceptional sets differ from the defining set's closures"), None)

    # full tail
    for p, s in r.exceptional:
        if not s.balls:
            return (TriState.no(
                f"the set at {p} holds no ball, so its integers miss a class"
                " mod q^j at some prime q off the window"), None)
    if any(s.points or s.seqs for _, s in r.exceptional):
        return (TriState.unknown(
            "the window mixes balls with points or sequences, beyond the"
            " supported analysis"), None)
    e = _crt_integer_set(r, config)
    return (TriState.yes("congruence classes assemble by CRT"),
            SimpleWitness(str(e), e))


def _crt_integer_set(r: RingSpec, config: Config) -> IntegerSet:
    """Excluded-classes description of the integers allowed by balls-only
    local sets at the window primes."""
    excluded = []
    for p in r.window():
        s = r.local_set(p, config)
        depth = max(b.depth for b in s.balls)
        modulus = p ** depth
        charge(config, "residue_cap", modulus, f"residue classes at prime {p}")
        held = {c for b in s.balls for c in range(b.center, modulus, p ** b.depth)}
        excluded.extend(Congruence(c, modulus) for c in range(modulus)
                        if c not in held)
    return IntegerSet(excluded=tuple(excluded))
