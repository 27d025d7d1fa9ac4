"""Rings attached to families of closed sets, and their representations
as intersections of valuation rings.

Containment between rings reverses containment between their sets, so
most properties here are mirror images of the set-algebra tests.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import padic_sets
from oracles import (brute_rule_subset, is_all_integers, isolated_closure,
                     primes_below, probe_elements, referee_has_root,
                     referee_representation_equals, residues_of_ball_free_set)

from ivp.adelic import IntegerSet, closure_in_zp
from ivp.errors import PreconditionError
from ivp.exact import Congruence, vp
from ivp.membership import is_integer_valued
from ivp.overrings import (
    Decision,
    DefaultRule,
    EMPTY_RULE,
    FULL_RULE,
    Representation,
    RingSpec,
    RuleKind,
    TriState,
    UNITS_AND_SELF_RULE,
    globalize,
    has_irredundant_representation,
    instantiate,
    integer_set_rule,
    is_simple_integer_set_ring,
    localize,
    minimal_extensions,
    nonunitary_contains,
    normalize_rule,
    representation_equals,
    ring_contains,
    ring_equal,
    ring_member,
    ring_of,
    rule_subset,
    single_power_rule,
    superfluous_nonunitary,
    superfluous_unitary,
    unitary_contains,
)
from ivp.padic import (
    Ball,
    PAdicSet,
    SeqWithLimit,
    closure,
    full_set,
    is_subset,
    member,
    point_set,
    sets_equal,
)
from ivp.polys import IrreduciblePoly, RatPoly


def P(*coeffs):
    return RatPoly.from_fractions([Fraction(c) for c in coeffs])


def irr(*coeffs):
    return IrreduciblePoly.certify(P(*coeffs))


TWO_POWERS = closure(PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)]))  # {2^n} U {0}

ALL_RULES = [
    FULL_RULE, EMPTY_RULE, UNITS_AND_SELF_RULE,
    single_power_rule(1), single_power_rule(2),
    integer_set_rule(IntegerSet.without_classes(Congruence(65, 72))),
    integer_set_rule(IntegerSet.finite([0, 1, 8])),
]


# ---------------------------------------------------------------------------
# rule subsets: decidable for every pair
# ---------------------------------------------------------------------------

def test_rule_subset_is_total_and_sound():
    for a in ALL_RULES:
        for b in ALL_RULES:
            verdict = rule_subset(a, b)
            assert isinstance(verdict, bool)
            # soundness at a few concrete primes
            for p in (2, 3, 5, 11):
                inst_a = instantiate(a, p)
                inst_b = instantiate(b, p)
                if verdict:
                    assert is_subset(inst_a, inst_b)


def test_rule_subset_frozen_relations():
    assert rule_subset(EMPTY_RULE, single_power_rule(2))
    assert rule_subset(single_power_rule(1), UNITS_AND_SELF_RULE)
    assert not rule_subset(single_power_rule(2), UNITS_AND_SELF_RULE)
    assert rule_subset(UNITS_AND_SELF_RULE, FULL_RULE)
    assert not rule_subset(FULL_RULE, UNITS_AND_SELF_RULE)
    finite = integer_set_rule(IntegerSet.finite([2, 1]))
    assert rule_subset(finite, UNITS_AND_SELF_RULE)    # 1 unit, 2 prime
    off = integer_set_rule(IntegerSet.finite([4]))
    assert not rule_subset(off, UNITS_AND_SELF_RULE)   # 4 is neither


@st.composite
def tail_rules(draw):
    """Rules of all five kinds: power(1..3), small finite integer sets,
    and Z less classes whose moduli divide 72, plus a few extras."""
    kind = draw(st.sampled_from(RuleKind))
    if kind is RuleKind.SINGLE_POWER:
        return single_power_rule(draw(st.integers(1, 3)))
    if kind is not RuleKind.FROM_INTEGER_SET:
        return DefaultRule(kind)
    small = st.lists(st.integers(-12, 12), max_size=4)
    if draw(st.booleans()):
        return integer_set_rule(IntegerSet.finite(draw(small)))
    moduli = [m for m in range(2, 73) if 72 % m == 0]
    classes = st.builds(Congruence, st.integers(0, 71), st.sampled_from(moduli))
    return integer_set_rule(IntegerSet(
        excluded=tuple(draw(st.lists(classes, max_size=3))),
        extra=tuple(draw(small))))


def _primes_past_every_number(*rules):
    """The primes up to 2M, M the largest |element| or modulus of the
    rules: by Bertrand's postulate one of them exceeds M."""
    numbers = [1]
    for rule in rules:
        e = rule.integer_set
        if e is not None:
            numbers += [abs(n) for n in (e.base or ()) + e.extra]
            numbers += [c.modulus for c in e.excluded]
    return primes_below(2 * max(numbers) + 1)


@settings(max_examples=150, deadline=None)
@given(tail_rules(), tail_rules())
def test_rule_subset_matches_the_rules_at_every_prime(a, b):
    primes = _primes_past_every_number(a, b)
    assert rule_subset(a, b) == brute_rule_subset(a, b, primes)


def test_normalize_rule_densifies_and_empties():
    dense = integer_set_rule(IntegerSet.without_classes(Congruence(65, 72)))
    assert normalize_rule(dense) == FULL_RULE
    hollow = integer_set_rule(IntegerSet.finite([]))
    assert normalize_rule(hollow) == EMPTY_RULE
    sparse = integer_set_rule(IntegerSet.without_classes(Congruence(1, 4)))
    assert normalize_rule(sparse).kind == sparse.kind   # genuine hole kept


# ---------------------------------------------------------------------------
# RingSpec canonical form
# ---------------------------------------------------------------------------

def test_spec_prunes_entries_matching_the_default():
    r = RingSpec({2: full_set(2), 3: point_set(3, 1, -1, 3)}, FULL_RULE)
    assert r.window() == (3,)           # the 2-entry repeated the default
    assert sets_equal(r.local_set(2), full_set(2))


def test_spec_requires_closed_sets():
    open_seq = PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1, include_limit=False)])
    with pytest.raises(PreconditionError):
        RingSpec({2: open_seq}, EMPTY_RULE)


def test_named_rings():
    assert RingSpec.integers().default == FULL_RULE
    assert RingSpec.rationals().default == EMPTY_RULE
    primes_ring = RingSpec.primes_ring()
    assert sets_equal(primes_ring.local_set(13),
                      instantiate(UNITS_AND_SELF_RULE, 13))


def test_ring_descriptions_are_frozen_values():
    r = RingSpec({2: TWO_POWERS}, EMPTY_RULE)
    assert r == RingSpec({2: TWO_POWERS}, EMPTY_RULE)
    assert hash(r) == hash(RingSpec({2: TWO_POWERS}, EMPTY_RULE))
    with pytest.raises(AttributeError):
        r.default = FULL_RULE
    rep = Representation({2: TWO_POWERS}, EMPTY_RULE,
                         nonunitary=[irr(-1, 1), irr(-1, 1)])
    assert rep.nonunitary == (irr(-1, 1),)
    assert rep == Representation({2: TWO_POWERS}, EMPTY_RULE,
                                 nonunitary=[irr(-1, 1)])
    assert rep != Representation({2: TWO_POWERS}, EMPTY_RULE,
                                 nonunitary=[irr(-1, 1)], all_min=True)
    with pytest.raises(AttributeError):
        rep.all_min = True
    for make in (RingSpec, Representation):
        with pytest.raises(PreconditionError,
                           match="set at key 3 lives at prime 2"):
            make({3: TWO_POWERS})


# ---------------------------------------------------------------------------
# containment reverses set containment (the core correspondence)
# ---------------------------------------------------------------------------

def test_containment_frozen_chain():
    # Q[X] >= Int(primes) >= Int(Z), each strictly
    q_ring = RingSpec.rationals()
    primes_ring = RingSpec.primes_ring()
    int_z = RingSpec.integers()
    assert ring_contains(q_ring, primes_ring).is_yes
    assert ring_contains(primes_ring, int_z).is_yes
    assert ring_contains(int_z, primes_ring).is_no
    assert ring_equal(int_z, int_z).is_yes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_containment_mirrors_subset_on_exceptional_sets(data):
    a = closure(data.draw(padic_sets(p=2)))
    b = closure(data.draw(padic_sets(p=2)))
    ra = RingSpec({2: a}, EMPTY_RULE)
    rb = RingSpec({2: b}, EMPTY_RULE)
    assert ring_contains(ra, rb).is_yes == is_subset(a, b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_equality_is_antisymmetric_containment(data):
    a = closure(data.draw(padic_sets(p=3)))
    b = closure(data.draw(padic_sets(p=3)))
    ra = RingSpec({3: a}, EMPTY_RULE)
    rb = RingSpec({3: b}, EMPTY_RULE)
    both = ring_contains(ra, rb).is_yes and ring_contains(rb, ra).is_yes
    assert both == ring_equal(ra, rb).is_yes
    assert ring_equal(ra, rb).is_yes == (ra == rb)


def test_localize_globalize_roundtrip():
    r = RingSpec({2: TWO_POWERS, 5: point_set(5, 1)}, EMPTY_RULE)
    local = localize(r, 2)
    assert local.window() == (2,)
    assert sets_equal(local.local_set(2), TWO_POWERS)
    rebuilt = globalize({p: r.local_set(p) for p in r.window()}, r.default)
    assert ring_equal(rebuilt, r).is_yes


# ---------------------------------------------------------------------------
# membership of rational polynomials in a ring
# ---------------------------------------------------------------------------

def test_ring_member_frozen():
    binomial = P(0, Fraction(-1, 2), Fraction(1, 2))    # (X^2 - X)/2
    assert ring_member(binomial, RingSpec.integers())
    assert ring_member(binomial, RingSpec.primes_ring())
    sixth = P(0, Fraction(1, 6))                         # X/6
    assert not ring_member(sixth, RingSpec.integers())
    assert ring_member(sixth, RingSpec.rationals())
    # X/2 is integral on even numbers only
    evens = RingSpec({2: PAdicSet(2, balls=[Ball(2, 0, 1)])}, EMPTY_RULE)
    assert ring_member(P(0, Fraction(1, 2)), evens)
    assert not ring_member(P(Fraction(1, 2), Fraction(1, 2)), evens)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_member_agrees_with_local_checks(data):
    s = closure(data.draw(padic_sets(p=2)))
    r = RingSpec({2: s}, FULL_RULE)
    f = P(0, Fraction(1, 2))
    if s.is_empty():
        assert ring_member(f, r)
    else:
        assert ring_member(f, r) == is_integer_valued(f, s)


# ---------------------------------------------------------------------------
# representations and the rings they cut out
# ---------------------------------------------------------------------------

def test_ring_of_unitary_only_is_polynomial():
    rep = Representation({2: full_set(2)}, FULL_RULE)
    out = ring_of(rep)
    assert out.polynomial.is_yes
    assert ring_equal(out.spec, RingSpec.integers()).is_yes


def test_ring_of_sparse_tail_is_not_polynomial():
    rep = Representation({}, single_power_rule(1))
    out = ring_of(rep)
    assert out.polynomial.is_no
    assert out.escape is not None
    # the escape witness certifies a non-polynomial ring element
    w = out.escape
    for p in (2, 3, 5, 7):
        assert vp(w.value_at(p), p) >= 0     # integral at every pinned point


def test_ring_of_empty_tail_no_window_is_rationals():
    # the intersection of nothing imposes no conditions at all: even 1/X
    # survives, so the ring is strictly bigger than any polynomial ring
    rep = Representation({}, EMPTY_RULE)
    out = ring_of(rep)
    assert ring_equal(out.spec, RingSpec.rationals()).is_yes
    assert out.polynomial.is_no
    assert out.escape is not None
    assert out.escape.q.coeffs == (-1, 1)
    assert out.escape.exponents == ()


@pytest.mark.parametrize("count", [10, 25])
def test_ring_of_full_window_empty_tail_escapes_by_unit_polynomial(count):
    # the product v of the window primes makes vX - 1 a unit on every
    # Z_p in the window, so 1/(vX - 1) escapes with no numerator
    window = primes_below(100)[:count]
    out = ring_of(Representation({p: full_set(p) for p in window},
                                 EMPTY_RULE))
    assert out.polynomial.is_no
    assert out.escape.q.coeffs == (-1, math.prod(window))
    assert out.escape.exponents == ()


def test_ring_of_finite_tail_escapes_by_schur_polynomial():
    window = primes_below(100)[:12]
    tail = (1, 5, 9)
    out = ring_of(Representation({p: full_set(p) for p in window},
                                 integer_set_rule(IntegerSet.finite(tail))))
    assert out.polynomial.is_no
    q = out.escape.q
    v = math.prod(window)
    expected = P(v) * P(-1, 1) * P(-5, 1) * P(-9, 1) - P(1)
    assert q.coeffs == expected.coeffs
    assert [q.eval_int(z) for z in tail] == [-1, -1, -1]
    assert out.escape.exponents == ()


def test_ring_of_skips_listed_unit_polynomials():
    # 6X - 1 and 30X - 1 are listed, so v picks up 5 and then 7
    rep = Representation({2: full_set(2), 3: full_set(3)}, EMPTY_RULE,
                         nonunitary=[irr(-1, 6), irr(-1, 30)])
    out = ring_of(rep)
    assert out.polynomial.is_no
    assert out.escape.q.coeffs == (-1, 210)
    verdict = representation_equals(rep, out.spec)
    assert verdict.is_no and verdict.payload.q.coeffs == (-1, 210)


sparse_tails = st.one_of(
    st.just(EMPTY_RULE),
    st.builds(single_power_rule, st.integers(1, 3)),
    st.builds(lambda zs: integer_set_rule(IntegerSet.finite(zs)),
              st.lists(st.integers(-20, 20), min_size=1, max_size=4,
                       unique=True)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_tail_escape_is_a_unit_everywhere(data):
    window = data.draw(st.lists(st.sampled_from((2, 3, 5)), unique=True,
                                max_size=3))
    rep = Representation({p: data.draw(padic_sets(p)) for p in window},
                         data.draw(sparse_tails))
    out = ring_of(rep)
    assert out.polynomial.is_no
    q = out.escape.q
    for p, s in out.spec.exceptional:
        for x in probe_elements(s, 2):
            assert vp(q.eval_at(x), p) == 0
    rule = out.spec.default
    tail = (rule.integer_set.finite_elements()
            if rule.kind is RuleKind.FROM_INTEGER_SET else (0,))
    assert all(q.eval_int(z) == -1 for z in tail)
    verdict = representation_equals(rep, out.spec)
    assert verdict.is_no and verdict.payload.q == q


def test_representation_equals_frozen():
    rep = Representation({2: full_set(2)}, FULL_RULE)
    assert representation_equals(rep, RingSpec.integers()).is_yes
    # a dense subset represents the same ring
    odds_and_evens = closure(PAdicSet(
        2, seqs=[SeqWithLimit(2, 0, 1), SeqWithLimit(2, 1, 2)]))
    sparse_rep = Representation({2: odds_and_evens}, FULL_RULE)
    verdict = representation_equals(sparse_rep, RingSpec.integers())
    assert not verdict.is_yes       # {2^n} U {1+2^n} misses e.g. 5 + 8Z_2
    with pytest.raises(PreconditionError):
        # unitary set not inside the ring's local set: malformed query
        tiny = RingSpec({2: point_set(2, 0)}, EMPTY_RULE)
        representation_equals(rep, tiny)


def _decision_or_error(decide):
    try:
        return decide()
    except PreconditionError:
        return PreconditionError


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_representation_equals_agrees_with_the_referee(data):
    # each ring set is the closure of the pinned values or a random closed
    # set, so yes, no and precondition errors all occur
    tails = st.sampled_from((FULL_RULE, EMPTY_RULE, single_power_rule(1),
                             single_power_rule(2)))
    primes = st.lists(st.sampled_from((2, 3)), unique=True)
    rep = Representation({p: data.draw(padic_sets(p))
                          for p in data.draw(primes)},
                         data.draw(tails), all_min=data.draw(st.booleans()))
    ring_sets = {}
    for p in data.draw(primes):
        pinned = closure(rep.unitary_at(p))
        ring_sets[p] = data.draw(st.one_of(st.just(pinned),
                                           padic_sets(p).map(closure)))
    r = RingSpec(ring_sets, data.draw(st.one_of(st.just(rep.default), tails)))
    ours = _decision_or_error(lambda: representation_equals(rep, r).decision)
    assert ours == _decision_or_error(
        lambda: referee_representation_equals(rep, r))


def test_unitary_contains_is_closure_membership():
    rep = Representation({2: TWO_POWERS}, EMPTY_RULE)
    assert unitary_contains(rep, 2, Fraction(8))
    assert unitary_contains(rep, 2, Fraction(0))
    assert not unitary_contains(rep, 2, Fraction(3))


def test_nonunitary_contains_frozen():
    # pinned-power tail: X vanishes at 0 = the pinned value's valuation
    # grows with p, so V_X is forced
    rep = Representation({}, single_power_rule(1))
    assert nonunitary_contains(rep, irr(0, 1)).is_yes
    # X - 1 escapes: 1/(X - 1) is integral at every pinned power
    verdict = nonunitary_contains(rep, irr(-1, 1))
    assert verdict.is_no
    assert verdict.payload is not None
    # with a root inside a window set the factor is always forced
    rep2 = Representation({2: full_set(2)}, EMPTY_RULE)
    assert nonunitary_contains(rep2, irr(-17, 0, 1)).is_yes
    assert nonunitary_contains(rep2, irr(-3, 1)).is_yes
    # rootless with finite sups: not forced, witness attached
    out = nonunitary_contains(rep2, irr(1, 1, 1))
    assert out.is_no and out.payload is not None


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_root_at_a_pinned_power_forces_the_factor(p, k):
    # X - p^k vanishes on the set power(k) pins at p, so V_q is forced;
    # asking for a witness used to raise PreconditionError
    q = irr(-p ** k, 1)
    rep = Representation({}, single_power_rule(k))
    verdict = nonunitary_contains(rep, q)
    assert verdict.is_yes and verdict.reason == f"root inside the set at {p}"
    listed = Representation({}, single_power_rule(k), nonunitary=[q])
    assert superfluous_nonunitary(listed, q).is_yes
    # off its own exponent the power is no root: X - p^k escapes
    other = Representation({}, single_power_rule(k % 3 + 1))
    verdict = nonunitary_contains(other, q)
    assert verdict.is_no and verdict.payload is not None


def _is_prime_power(n: int, k: int) -> bool:
    return any(p ** k == n for p in primes_below(abs(n) + 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_denominators_over_sparse_tails(data):
    # with no window, V_(X - n) contains the ring exactly when X - n has
    # a root in a pinned set, or n = 0 under a power tail, where vp of
    # the pinned power p^k is k at every p; every no carries a witness
    if data.draw(st.booleans()):
        k = data.draw(st.integers(1, 3))
        rule = single_power_rule(k)
        n = data.draw(st.one_of(
            st.integers(-40, 1100),
            st.sampled_from(primes_below(12)).map(lambda p: p ** k)))
        forced = n == 0 or _is_prime_power(n, k)
    else:
        tail = data.draw(st.lists(st.integers(-30, 30), max_size=4))
        rule = integer_set_rule(IntegerSet.finite(tail))
        n = data.draw(st.one_of(st.integers(-40, 40),
                                st.sampled_from(tail or [0])))
        forced = n in tail
    verdict = nonunitary_contains(Representation({}, rule), irr(-n, 1))
    assert verdict.is_yes == forced
    if verdict.is_no:
        assert verdict.payload is not None


def test_nonunitary_contains_walks_each_root_tree_once(monkeypatch):
    import ivp.polys as polys
    walks = []
    tree_events = polys._tree_events

    def counted(q, ball, config):
        walks.append(ball.p)
        return tree_events(q, ball, config)
    monkeypatch.setattr(polys, "_tree_events", counted)
    rep = Representation({2: full_set(2), 3: full_set(3), 5: full_set(5)},
                         EMPTY_RULE)
    verdict = nonunitary_contains(rep, irr(-2, 0, 1))
    assert verdict.is_no and str(verdict.payload) == "2/(X^2 - 2)"
    assert verdict.reason == "finitely many finite contributions"
    assert sorted(walks) == [2, 3, 5]


def test_nonunitary_contains_listed_and_all_min():
    rep = Representation({}, single_power_rule(1),
                         nonunitary=[irr(-1, 1)])
    assert nonunitary_contains(rep, irr(-1, 1)).is_yes      # listed
    rep_min = Representation({2: full_set(2)}, EMPTY_RULE, all_min=True)
    assert nonunitary_contains(rep_min, irr(-3, 1)).is_yes  # minimal family


def test_superfluous_unitary_detects_isolated_points():
    # inside a ball every pinned point is redundant
    rep = Representation({2: full_set(2)}, EMPTY_RULE)
    assert superfluous_unitary(rep, 2, Fraction(5))
    # an isolated point of the set is essential
    rep2 = Representation({2: TWO_POWERS}, EMPTY_RULE)
    assert not superfluous_unitary(rep2, 2, Fraction(4))
    # the limit 0 is not isolated: dropping it changes nothing
    assert superfluous_unitary(rep2, 2, Fraction(0))
    with pytest.raises(PreconditionError):
        superfluous_unitary(rep2, 2, Fraction(3))   # not a member at all


def test_superfluous_nonunitary_frozen():
    rep = Representation({}, single_power_rule(1),
                         nonunitary=[irr(0, 1)])         # V_X listed
    # the other factors force V_X, so it may be dropped
    assert superfluous_nonunitary(rep, irr(0, 1)).is_yes
    rep2 = Representation({}, EMPTY_RULE, nonunitary=[irr(-1, 1)])
    # nothing else forces V_{X-1} over Q[X]
    assert superfluous_nonunitary(rep2, irr(-1, 1)).is_no
    with pytest.raises(PreconditionError):
        superfluous_nonunitary(rep2, irr(-3, 1))     # not part of the rep


def test_nonunitary_contains_over_dense_tails():
    # a ball at almost every prime holds a root of any q at infinitely
    # many of them; units+p pins p itself, where X has valuation 1
    full_rep = Representation({}, FULL_RULE)
    assert (str(nonunitary_contains(full_rep, irr(1, 0, 1)))
            == "yes (roots exist at infinitely many primes)")
    units_rep = Representation({}, UNITS_AND_SELF_RULE)
    assert (str(nonunitary_contains(units_rep, irr(0, 1)))
            == "yes (vp at the pinned value p is 1 for every p)")
    assert (str(nonunitary_contains(units_rep, irr(-3, 1)))
            == "yes (unit roots exist at infinitely many primes)")


@pytest.mark.parametrize("unitary, rule, outside, member_q, witness", [
    # 9 = 3^2 is the pinned power at 3, so X - 9 has a root in the tail
    ({}, single_power_rule(2), irr(-9, 1), irr(-7, 1), "7/(X - 7)"),
    ({}, integer_set_rule(IntegerSet.finite([1, 2])), irr(-2, 1),
     irr(-5, 1), "12/(X - 5)"),
    ({2: full_set(2)}, EMPTY_RULE, irr(7, 0, 1), irr(1, 0, 1),
     "2/(X^2 + 1)"),
])
def test_superfluous_nonunitary_over_the_minimal_family(unitary, rule,
                                                       outside, member_q,
                                                       witness):
    rep = Representation(unitary, rule, all_min=True)
    with pytest.raises(PreconditionError) as refused:
        superfluous_nonunitary(rep, outside)
    assert str(refused.value) == f"{outside} is not part of the representation"
    verdict = superfluous_nonunitary(rep, member_q)
    assert str(verdict) == "no (finitely many finite contributions)"
    assert str(verdict.payload) == witness


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_superfluous_nonunitary_refuses_exactly_the_rooted(data):
    # an unlisted q lies in the all_min family iff it has no root in any
    # local set, and then the answer is the one without all_min
    pinned = (0, 1, -1, 4, 8, 9, 27)
    finite_tails = st.lists(st.sampled_from(pinned), min_size=1,
                            unique=True).map(
        lambda xs: integer_set_rule(IntegerSet.finite(xs)))
    tails = st.one_of(
        st.sampled_from((FULL_RULE, EMPTY_RULE, UNITS_AND_SELF_RULE,
                         integer_set_rule(IntegerSet.without_classes(
                             Congruence(1, 4))))),
        st.integers(1, 3).map(single_power_rule), finite_tails)
    primes = st.lists(st.sampled_from((2, 3)), unique=True)
    unitary = {p: data.draw(padic_sets(p)) for p in data.draw(primes)}
    rule = data.draw(tails)
    # roots the tails pin (2, 5, 25 = 5^2) are drawn as often as the rest
    q = data.draw(st.one_of(
        st.sampled_from(pinned + (2, 5, 25)).map(lambda r: irr(-r, 1)),
        st.integers(-10, 32).map(lambda r: irr(-r, 1)),
        st.sampled_from((irr(-17, 0, 1), irr(1, 0, 1), irr(-2, 0, 1)))))
    rep = Representation(unitary, rule, all_min=True)
    if referee_has_root(rep, q):
        with pytest.raises(PreconditionError,
                           match="is not part of the representation"):
            superfluous_nonunitary(rep, q)
    else:
        assert (superfluous_nonunitary(rep, q)
                == nonunitary_contains(Representation(unitary, rule), q))


def test_superfluous_nonunitary_walks_each_root_tree_once(monkeypatch):
    import ivp.polys as polys
    walks = []
    tree_events = polys._tree_events

    def counted(q, ball, config):
        walks.append(ball.p)
        return tree_events(q, ball, config)
    monkeypatch.setattr(polys, "_tree_events", counted)
    rep = Representation({2: full_set(2), 3: full_set(3), 5: full_set(5)},
                         EMPTY_RULE, all_min=True)
    verdict = superfluous_nonunitary(rep, irr(-2, 0, 1))
    assert verdict.is_no and str(verdict.payload) == "2/(X^2 - 2)"
    assert sorted(walks) == [2, 3, 5]


# ---------------------------------------------------------------------------
# minimal extensions and irredundance
# ---------------------------------------------------------------------------

def test_minimal_extensions_of_two_powers_ring():
    r = RingSpec({2: TWO_POWERS}, EMPTY_RULE)
    ext = minimal_extensions(r, 2)
    assert ext.explicit == ()
    assert len(ext.families) == 1
    fam = ext.families[0]
    assert fam.from_n == 0
    # each dropped power gives a strictly larger ring
    bigger = fam.ring_at(3)
    assert ring_contains(bigger, r).is_yes
    assert not ring_contains(r, bigger).is_yes
    assert not member(Fraction(8), bigger.local_set(2))


def test_minimal_extensions_of_ball_ring_is_empty():
    r = RingSpec({2: full_set(2)}, EMPTY_RULE)
    ext = minimal_extensions(r, 2)
    assert ext.explicit == () and ext.families == ()
    assert ext.count_description() == "0"


def test_minimal_extensions_finite_points():
    r = RingSpec({3: point_set(3, 0, 1)}, EMPTY_RULE)
    ext = minimal_extensions(r, 3)
    assert {x for x, _ in ext.explicit} == {0, 1}
    for x, bigger in ext.explicit:
        assert ring_contains(bigger, r).is_yes


def test_irredundant_frozen_cases():
    assert has_irredundant_representation(RingSpec.integers()).is_no
    two_powers_ring = RingSpec({2: TWO_POWERS}, EMPTY_RULE)
    assert has_irredundant_representation(two_powers_ring).is_yes
    assert has_irredundant_representation(RingSpec.primes_ring()).is_no
    finite_ring = RingSpec({5: point_set(5, 1, 2)}, EMPTY_RULE)
    assert has_irredundant_representation(finite_ring).is_yes


@pytest.mark.parametrize("ring, answer", [
    (RingSpec({}, single_power_rule(2)),
     "yes (one isolated value at almost all primes)"),
    (RingSpec.from_integer_set(IntegerSet.finite([1, 2])),
     "yes (finitely many isolated values at almost all primes)"),
    (RingSpec.from_integer_set(IntegerSet.without_classes(Congruence(1, 4))),
     "no (full local sets at almost all primes)"),
    (RingSpec({2: PAdicSet(2, [Ball(2, 0, 1)])}, EMPTY_RULE),
     "no (isolated points are not dense at 2)"),
])
def test_irredundant_reasons_by_tail(ring, answer):
    assert str(has_irredundant_representation(ring)) == answer


@settings(max_examples=200, deadline=None)
@given(padic_sets(max_seqs=3))
def test_irredundant_agrees_with_the_isolated_points_referee(s):
    # with an empty tail, the window set alone decides: yes exactly when
    # its isolated points are dense in it
    s = closure(s)
    answer = has_irredundant_representation(RingSpec({s.p: s}, EMPTY_RULE))
    assert answer.is_yes != answer.is_no
    assert answer.is_yes == is_subset(s, isolated_closure(s))


# ---------------------------------------------------------------------------
# rings cut out by one set of integers
# ---------------------------------------------------------------------------

def test_simple_frozen_cases():
    verdict, witness = is_simple_integer_set_ring(RingSpec.integers())
    assert verdict.is_yes and is_all_integers(witness.integer_set)

    verdict, witness = is_simple_integer_set_ring(RingSpec.rationals())
    assert verdict.is_yes and witness.integer_set.is_empty()

    verdict, witness = is_simple_integer_set_ring(RingSpec.primes_ring())
    assert verdict.is_yes              # the primes themselves

    verdict, _ = is_simple_integer_set_ring(
        RingSpec({}, single_power_rule(2)))
    assert verdict.is_no               # no single integer hits p^2 at every p

    two_powers_ring = RingSpec({2: TWO_POWERS}, EMPTY_RULE)
    verdict, _ = is_simple_integer_set_ring(two_powers_ring)
    assert verdict.is_no               # a finite integer part at one prime


def test_simple_congruence_ring_witness_validates():
    e = IntegerSet.without_classes(Congruence(1, 4))
    r = RingSpec.from_integer_set(e)
    verdict, witness = is_simple_integer_set_ring(r)
    assert verdict.is_yes
    w = witness.integer_set
    # the witness set reproduces the ring's local sets
    from ivp.adelic import closure_in_zp
    for p in r.window() or (2,):
        assert sets_equal(closure_in_zp(w, p), r.local_set(p))


def test_simple_empty_and_integer_set_tails_with_and_without_a_window():
    # a window set equal to the tail's is dropped, so it leaves no window
    e = IntegerSet.without_classes(Congruence(1, 4))
    rule = integer_set_rule(e)
    same = RingSpec({2: closure_in_zp(e, 2), 5: full_set(5)}, rule)
    assert same.window() == ()
    verdict, witness = is_simple_integer_set_ring(same)
    assert verdict.is_yes and witness.integer_set == e
    other = RingSpec({5: PAdicSet(5, [Ball(5, 0, 1)])}, rule)
    verdict, witness = is_simple_integer_set_ring(other)
    assert str(verdict) == ("unknown (exceptional sets differ from the"
                            " defining set's closures)")
    assert witness is None
    verdict, witness = is_simple_integer_set_ring(
        RingSpec({3: PAdicSet(3)}, EMPTY_RULE))
    assert verdict.is_yes and witness.integer_set.is_empty()
    verdict, witness = is_simple_integer_set_ring(
        RingSpec({3: PAdicSet(3, points=[0])}, EMPTY_RULE))
    assert verdict.is_no and witness is None


def test_simple_full_tail_assembles_ball_windows_by_crt():
    local = {2: PAdicSet(2, [Ball(2, 1, 3)]),
             3: PAdicSet(3, [Ball(3, 2, 1), Ball(3, 0, 2)])}
    r = RingSpec(local, FULL_RULE)
    verdict, witness = is_simple_integer_set_ring(r)
    assert str(verdict) == "yes (congruence classes assemble by CRT)"
    for p in (2, 3, 5):
        assert sets_equal(closure_in_zp(witness.integer_set, p),
                          r.local_set(p))


def test_simple_full_tail_with_a_sequence_or_an_empty_window():
    seq_ring = RingSpec({2: PAdicSet(2, seqs=[SeqWithLimit(2, 1, 1, 0)])})
    verdict, witness = is_simple_integer_set_ring(seq_ring)
    assert verdict.is_no and witness is None
    verdict, witness = is_simple_integer_set_ring(RingSpec({2: PAdicSet(2)}))
    assert verdict.is_no and witness is None


@settings(max_examples=100, deadline=None)
@given(padic_sets(max_balls=0))
def test_simple_refutes_a_ball_free_window_by_a_missed_class(s):
    s = closure(s)
    verdict, witness = is_simple_integer_set_ring(RingSpec({s.p: s}))
    assert verdict.is_no and witness is None
    # the refutation's counting argument, replayed: the integers of s miss
    # a class mod q^j at a prime q off the window and off its denominators
    denominators = math.prod(x.denominator for x in (
        *s.points, *(q.limit for q in s.seqs), *(q.unit for q in s.seqs)))
    assert any(len(residues_of_ball_free_set(s, q ** j)) < q ** j
               for q in primes_below(60) if q != s.p and denominators % q
               for j in (1, 2, 3))


# ---------------------------------------------------------------------------
# TriState mechanics
# ---------------------------------------------------------------------------

def test_tristate_constructors_and_str():
    assert TriState.yes("because").decision is Decision.YES
    assert TriState.no().is_no
    u = TriState.unknown("ran out")
    assert u.is_unknown and u.reason == "ran out"
    assert "because" in str(TriState.yes("because"))
