"""The set algebra: membership, closure, canonical forms, subsets.

Randomised tests compare against the naive component-by-component
definitions in oracles.py; the frozen cases pin down the canonical forms
the rest of the library relies on.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import PRIMES, p_integral, padic_sets, primes, seqs
from oracles import (brute_in_closure, brute_member, isolated_closure,
                     meets_ball, probe_elements, set_residues)

from ivp.errors import PreconditionError
from ivp.overrings import (
    EMPTY_RULE,
    FULL_RULE,
    UNITS_AND_SELF_RULE,
    instantiate,
    integer_set_rule,
    single_power_rule,
)
from ivp.padic import (
    Ball,
    PAdicSet,
    SeqWithLimit,
    canonicalize,
    closure,
    empty_set,
    full_set,
    is_closed,
    is_dense_in,
    is_subset,
    isolated_points,
    member,
    point_set,
    remove_isolated_point,
    sets_equal,
    some_elements,
)


def probes(s, extra=()):
    """Elements of s, near-misses around them, and a few fixed rationals."""
    out = set(probe_elements(s, 4))
    for x in list(out):
        out.add(x + s.p ** 6)
        out.add(x + 1)
    out.update(Fraction(v) for v in (0, 1, -1, s.p, Fraction(1, 7)))
    out.update(Fraction(v) for v in extra)
    return out


# ---------------------------------------------------------------------------
# membership and closure against the naive definitions
# ---------------------------------------------------------------------------

@settings(max_examples=120)
@given(padic_sets(), st.data())
def test_member_matches_naive_definition(s, data):
    x = data.draw(p_integral(s.p) | st.sampled_from(sorted(probes(s))))
    assert member(x, s) == brute_member(x, s)


@settings(max_examples=120)
@given(padic_sets())
def test_closure_adds_exactly_the_limits(s):
    c = closure(s)
    for x in probes(s):
        assert member(x, c) == brute_in_closure(x, s)


@settings(max_examples=80)
@given(padic_sets())
def test_closure_is_idempotent_and_closed(s):
    c = closure(s)
    assert is_closed(c)
    assert sets_equal(closure(c), c)


@settings(max_examples=150)
@given(padic_sets())
def test_is_closed_matches_canonical_closure(s):
    assert is_closed(s) == (canonicalize(s) == closure(s))


@settings(max_examples=100)
@given(padic_sets())
def test_canonicalize_preserves_membership(s):
    canon = canonicalize(s)
    for x in probes(s):
        assert member(x, canon) == member(x, s)


@settings(max_examples=60)
@given(padic_sets())
def test_canonicalize_is_idempotent(s):
    canon = canonicalize(s)
    assert canonicalize(canon) == canon


# ---------------------------------------------------------------------------
# subset order
# ---------------------------------------------------------------------------

@st.composite
def ball_unions(draw, p):
    """Ball-only sets, rarely canonical: loose balls, nested ones, and
    complete or one-short families of the p or p^2 balls under a parent."""
    out = draw(st.lists(st.builds(lambda c, k: Ball(p, c, k),
                                  st.integers(0, p ** 4), st.integers(0, 4)),
                        max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        c, k = draw(st.integers(0, p ** 3)), draw(st.integers(0, 3))
        g = draw(st.integers(1, 2))
        family = [Ball(p, c + j * p ** k, k + g) for j in range(p ** g)]
        if draw(st.booleans()):
            family.pop(draw(st.integers(0, len(family) - 1)))
        out.extend(family)
    return PAdicSet(p, balls=draw(st.permutations(out)))


@settings(max_examples=200)
@given(st.data())
def test_ball_subset_matches_residues(data):
    # past the deepest depth every ball is a union of residue classes
    p = data.draw(primes)
    a, b = data.draw(ball_unions(p)), data.draw(ball_unions(p))
    m = max((x.depth for x in a.balls + b.balls), default=0) + 1
    assert is_subset(a, b) == (set_residues(a, m) <= set_residues(b, m))


@settings(max_examples=80)
@given(padic_sets())
def test_subset_is_reflexive(s):
    assert is_subset(s, s)


@settings(max_examples=60)
@given(st.data())
def test_subset_respects_union(data):
    p = data.draw(primes)
    a = data.draw(padic_sets(p=p))
    b = data.draw(padic_sets(p=p))
    union = PAdicSet(p, a.balls + b.balls, a.points + b.points,
                     a.seqs + b.seqs)
    assert is_subset(a, union)
    assert is_subset(b, union)


@settings(max_examples=60)
@given(st.data())
def test_subset_implies_pointwise_containment(data):
    p = data.draw(primes)
    a = data.draw(padic_sets(p=p))
    b = data.draw(padic_sets(p=p))
    if is_subset(a, b):
        for x in probe_elements(a, 4):
            assert member(x, b)
    else:
        # refutation must be visible at some probe of a
        assert any(not member(x, b) for x in probe_elements(a, 6))


@settings(max_examples=60)
@given(st.data())
def test_subset_antisymmetry_is_canonical_equality(data):
    p = data.draw(primes)
    a = data.draw(padic_sets(p=p))
    b = data.draw(padic_sets(p=p))
    both = is_subset(a, b) and is_subset(b, a)
    assert both == sets_equal(a, b)
    if both:
        assert canonicalize(a) == canonicalize(b)


@pytest.mark.parametrize("start", [0, 1000])
def test_subset_checks_the_elements_before_a_ball_holds_the_tail(start):
    # the elements 2 + 3^k with k > start lie in ball(3; 2, start + 1)
    a = closure(PAdicSet(3, seqs=[SeqWithLimit(3, 2, 1, start)]))
    tail_ball = Ball(3, 2, start + 1)
    assert not is_subset(a, PAdicSet(3, [tail_ball]))
    assert is_subset(a, PAdicSet(3, [tail_ball], [2 + 3 ** start]))


def test_ball_cover_needs_no_residue_scan():
    # the balls of valuation 0..59 leave out 2^60 Z_2, a cover with 2^60
    # residues; nesting in the canonical balls decides it without them
    cover = PAdicSet(2, [Ball(2, 2 ** j, j + 1) for j in range(60)])
    assert not is_subset(full_set(2), cover)
    assert is_subset(full_set(2), PAdicSet(2, cover.balls + (Ball(2, 0, 60),)))


def test_constructors_refuse_powers_past_their_bound():
    # refused from the depth and the start alone: 3^(10^10) and 2^(10^10)
    # are never formed
    with pytest.raises(PreconditionError, match=r"ball modulus 3\^10000000000"
                       r" has about \d+ digits, over the \d+-digit limit"):
        Ball(3, 1, 10 ** 10)
    with pytest.raises(PreconditionError, match=r"sequence power 2\^10000000000"
                       r" has over 1000000 digits"):
        SeqWithLimit(2, 0, 1, 10 ** 10)


def test_cross_prime_comparison_rejected():
    with pytest.raises(PreconditionError):
        is_subset(full_set(2), full_set(3))


# ---------------------------------------------------------------------------
# frozen canonical forms
# ---------------------------------------------------------------------------

def test_sibling_balls_merge_to_parent():
    s = PAdicSet(2, balls=[Ball(2, 0, 1), Ball(2, 1, 1)])
    assert canonicalize(s) == full_set(2)


def test_partial_sibling_cover_does_not_merge():
    s = PAdicSet(3, balls=[Ball(3, 0, 1), Ball(3, 1, 1)])
    canon = canonicalize(s)
    assert len(canon.balls) == 2
    assert not member(Fraction(2), canon)


def test_nested_ball_is_removed():
    s = PAdicSet(2, balls=[Ball(2, 0, 1), Ball(2, 4, 3)])
    assert canonicalize(s) == PAdicSet(2, balls=[Ball(2, 0, 1)])


def test_points_inside_balls_are_absorbed():
    s = PAdicSet(2, balls=[Ball(2, 1, 2)], points=[5, 2])
    canon = canonicalize(s)
    assert canon.points == (Fraction(2),)


def test_sequence_inside_ball_is_absorbed():
    seq = SeqWithLimit(2, 1, 4)          # 5, 9, 17, ... -> 1, all = 1 mod 4
    s = PAdicSet(2, balls=[Ball(2, 1, 2)], seqs=[seq])
    assert canonicalize(s) == PAdicSet(2, balls=[Ball(2, 1, 2)])


def test_sequence_extends_down_through_covered_elements():
    # {odd ball} U {1,2,4,...} and {odd ball} U {2,4,8,...} are the same
    # set (1 is odd); both must reach the same canonical form
    ball = Ball(2, 1, 1)
    a = PAdicSet(2, balls=[ball], seqs=[SeqWithLimit(2, 0, 1)])
    b = PAdicSet(2, balls=[ball], seqs=[SeqWithLimit(2, 0, 2)])
    assert canonicalize(a) == canonicalize(b)
    assert member(Fraction(1), canonicalize(b))
    assert member(Fraction(2), canonicalize(b))


def test_excluded_limit_point_becomes_included_limit():
    seq = SeqWithLimit(2, 3, 1, include_limit=False)
    s = PAdicSet(2, points=[3], seqs=[seq])
    canon = canonicalize(s)
    assert canon.points == ()
    assert canon.seqs[0].include_limit
    assert member(Fraction(3), canon)


def test_same_limit_power_ratio_sequences_merge():
    a = SeqWithLimit(2, 0, 1)            # 1, 2, 4, ...
    b = SeqWithLimit(2, 0, 2)            # 2, 4, 8, ...  subset of a
    canon = canonicalize(PAdicSet(2, seqs=[a, b]))
    assert len(canon.seqs) == 1
    for n in range(6):
        assert member(a.element(n), canon)


def test_same_set_in_either_sequence_order():
    # 1 is a point, 2 an element of the first ray: the ray towards 3 steps
    # down through both, whichever sequence comes first
    first, second = SeqWithLimit(2, 0, 2), SeqWithLimit(2, 3, -4)
    a = PAdicSet(2, points=[1], seqs=[first, second])
    b = PAdicSet(2, points=[1], seqs=[second, first])
    assert canonicalize(a) == canonicalize(b)
    assert sets_equal(a, b)
    assert str(canonicalize(a)) == "seq(2; 0, 1, 0, +lim) | seq(2; 3, -1, 0, +lim)"


def test_limit_held_by_another_sequence_is_included():
    # 3 = 0 + 1*3^1 is an element of the first sequence, so the set is closed
    held = SeqWithLimit(3, 0, 1)
    s = PAdicSet(3, seqs=[held, SeqWithLimit(3, 3, -189, 0, include_limit=False)])
    assert is_closed(s)
    assert sets_equal(s, PAdicSet(3, seqs=[held, SeqWithLimit(3, 3, -189, 0)]))
    assert all(q.include_limit for q in canonicalize(s).seqs)


def test_deep_sibling_families_merge():
    # 7^6 balls merge level by level into Z_7; one missing ball leaves its
    # six siblings at each of the six depths
    assert canonicalize(PAdicSet(7, [Ball(7, c, 6) for c in range(7 ** 6)])) == full_set(7)
    short = canonicalize(PAdicSet(7, [Ball(7, c, 6) for c in range(1, 7 ** 6)]))
    assert sorted({b.depth for b in short.balls}) == [1, 2, 3, 4, 5, 6]
    assert len(short.balls) == 36 and not member(7 ** 6, short) and member(1, short)


def _with_components(p, comps):
    return PAdicSet(p, [c for c in comps if isinstance(c, Ball)],
                    [c for c in comps if isinstance(c, Fraction)],
                    [c for c in comps if isinstance(c, SeqWithLimit)])


@settings(max_examples=150, deadline=None)
@given(padic_sets(), st.randoms(use_true_random=False), st.data())
def test_canonical_form_depends_only_on_the_set(s, rnd, data):
    if not s.is_empty() and data.draw(st.booleans()):
        # a sequence converging to a member makes rays meet more often
        q = data.draw(seqs(s.p))
        limit = data.draw(st.sampled_from(list(some_elements(s))))
        s = PAdicSet(s.p, s.balls, s.points, s.seqs + (
            SeqWithLimit(s.p, limit, q.scale, q.start, q.include_limit),))
    canon = canonicalize(s)
    # the order of the components
    comps = list(s.balls) + list(s.points) + list(s.seqs)
    rnd.shuffle(comps)
    assert canonicalize(_with_components(s.p, comps)) == canon
    # presenting the canonical form again
    assert canonicalize(canon) == canon
    # listing a member once more, as a point
    elems = list(some_elements(s))
    if elems:
        x = data.draw(st.sampled_from(elems))
        assert canonicalize(PAdicSet(s.p, s.balls, s.points + (x,), s.seqs)) == canon
    # including a limit that the set already holds
    held = [i for i, q in enumerate(s.seqs) if member(q.limit, s)]
    if held:
        i = data.draw(st.sampled_from(held))
        q = s.seqs[i]
        closed = list(s.seqs)
        closed[i] = SeqWithLimit(q.p, q.limit, q.scale, q.start, True)
        assert canonicalize(PAdicSet(s.p, s.balls, s.points, closed)) == canon


def test_str_roundtrip_shapes():
    s = PAdicSet(2, balls=[Ball(2, 1, 2)], points=[0],
                 seqs=[SeqWithLimit(2, 0, 1, 3, False)])
    text = str(s)
    assert "ball(2, 1, 2)" in text and "pts(2; 0)" in text and "-lim" in text


# ---------------------------------------------------------------------------
# deep sequences
# ---------------------------------------------------------------------------

@st.composite
def deep_seq_cases(draw):
    """A sequence starting at an index up to 1500, at p = 3 or 5, with a
    negative or rational unit, and probes around its elements."""
    p = draw(st.sampled_from((3, 5)))
    unit = Fraction(draw(st.sampled_from([-7, -2, -1, 1, 2, 4, 7])),
                    draw(st.sampled_from([1, 2, 7])))
    scale_exp = draw(st.integers(-3, 3))
    start = draw(st.integers(max(0, -scale_exp), 1500))
    scale = unit * Fraction(p) ** scale_exp
    limit = draw(p_integral(p, 20))
    seq = SeqWithLimit(p, limit, scale, start, draw(st.booleans()))
    head = scale_exp + start
    # a point one step before the start moves the canonical start down
    before = [limit + scale * Fraction(p) ** (start - 1)] if head > 0 else []
    extend = bool(before) and draw(st.booleans())
    points = before if extend else []
    js = [0, 1, head - 1, head, head + 1, draw(st.integers(0, head + 4))]
    elements = [limit + scale * Fraction(p) ** (start + k) for k in range(4)]
    probes = set(elements) | set(before) | {limit}
    probes |= {x + sign * p ** j for x in elements for j in js if j >= 0
               for sign in (1, -1)}
    return seq, points, head - 1 if extend else head, probes


@settings(max_examples=60, deadline=None)
@given(deep_seq_cases())
def test_deep_sequences_match_the_naive_definition(case):
    seq, points, head, probes = case
    p = seq.p
    s = PAdicSet(p, points=points, seqs=[seq])
    canon = canonicalize(s)
    elements_only = PAdicSet(p, seqs=[SeqWithLimit(p, seq.limit, seq.scale,
                                                   seq.start, False)])
    for x in probes:
        assert member(x, s) == brute_member(x, s)
        assert member(x, canon) == brute_member(x, s)
        n = seq.element_index(x)
        assert (n is not None) == brute_member(x, elements_only)
        assert n is None or seq.element(n) == x
    # the ray canonicalize builds equals the one the constructor builds
    built = SeqWithLimit(p, seq.limit, seq.scale * Fraction(p) ** (
        head - seq.valuation), 0, seq.include_limit)
    assert canon.points == () and canon.seqs == (built,)
    assert hash(canon.seqs[0]) == hash(built)
    assert (canon.seqs[0].unit, canon.seqs[0].valuation) == (built.unit,
                                                             built.valuation)


def test_deep_sequence_operations_compute_no_large_valuation(monkeypatch):
    # the scale valuation of a sequence is worked out once, as it is built;
    # closure, isolated points and subset tests read it and never divide
    # out a power of p the size of p^start again
    import ivp.padic
    from ivp.exact import is_finite, vp
    large = []

    def counted(x, p):
        v = vp(x, p)
        if is_finite(v) and v > 1000:
            large.append(v)
        return v
    monkeypatch.setattr(ivp.padic, "vp", counted)
    start = 10 ** 5
    seqs = [SeqWithLimit(3, 2, 1, start, False),
            SeqWithLimit(3, 0, 1, start, True)]
    s = PAdicSet(3, [Ball(3, 5, 3)], [7], seqs)
    closed = closure(s)
    iso = isolated_points(closed)
    assert iso.explicit == (7,) and [t.from_n for t in iso.tails] == [0, 0]
    assert is_subset(closed, PAdicSet(3, [Ball(3, 5, 3), Ball(3, 2, 2),
                                          Ball(3, 0, 2)], [7]))
    assert not is_subset(closed, PAdicSet(3, [Ball(3, 5, 3), Ball(3, 2, 2)]))
    assert len(large) <= len(seqs)


# ---------------------------------------------------------------------------
# isolated points
# ---------------------------------------------------------------------------

def test_ball_has_no_isolated_points():
    iso = isolated_points(full_set(2))
    assert iso.explicit == () and iso.tails == ()


def test_finite_points_are_all_isolated():
    iso = isolated_points(point_set(3, 0, 1, 9))
    assert set(iso.explicit) == {0, 1, 9}
    assert iso.tails == ()


def test_sequence_tail_is_isolated_but_limit_is_not():
    s = closure(PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)]))   # {2^n} U {0}
    iso = isolated_points(s)
    assert iso.explicit == ()
    assert len(iso.tails) == 1
    assert iso.tails[0].from_n == 0
    # 0 is only a limit: in the closure of the isolated points, not one
    assert member(Fraction(0), isolated_closure(s))
    assert Fraction(0) not in iso.explicit


def test_isolated_points_canonicalizes_once(monkeypatch):
    import ivp.padic
    calls = []

    def counted(*args):
        calls.append(1)
        return canonicalize(*args)
    monkeypatch.setattr(ivp.padic, "canonicalize", counted)
    s = PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)])               # {2^n} U {0}
    assert len(isolated_points(s).tails) == 1
    assert len(calls) == 1


def test_isolated_point_inside_ball_is_not_isolated():
    s = PAdicSet(2, balls=[Ball(2, 0, 2)], points=[8])
    iso = isolated_points(canonicalize(s))
    assert iso.explicit == () and iso.tails == ()


# {2^n} and {4 + 2^n}, with their limits 0 and 4 = 2^2
TWO_RAYS = PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1, 0, True),
                             SeqWithLimit(2, 4, 1, 0, True)])


def test_isolated_points_skip_limits_and_keep_elements_outside_balls():
    # 1 = 2^0 comes before the ball bound and lies outside ball(2, 3, 2)
    s = PAdicSet(2, [Ball(2, 3, 2)], seqs=[SeqWithLimit(2, 0, 1, 0, True)])
    iso = isolated_points(s)
    assert iso.explicit == (1,) and [t.from_n for t in iso.tails] == [1]
    # 4 is the second sequence's limit, so only 1 and 2 precede the tail
    iso = isolated_points(TWO_RAYS)
    assert iso.explicit == (1, 2)
    assert [t.from_n for t in iso.tails] == [3, 0]


def test_remove_isolated_point_frozen():
    s = canonicalize(point_set(5, 1, 2))
    out = remove_isolated_point(s, 1)
    assert sets_equal(out, point_set(5, 2))
    powers = closure(PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)]))  # {2^n} U {0}
    out = remove_isolated_point(powers, 4)
    assert sets_equal(out, PAdicSet(2, points=[1, 2],
                                    seqs=[SeqWithLimit(2, 0, 1, 3)]))
    deep = closure(PAdicSet(3, seqs=[SeqWithLimit(3, 2, 1, 1000)]))
    out = remove_isolated_point(deep, 2 + 3 ** 1000)
    assert sets_equal(out, PAdicSet(3, seqs=[SeqWithLimit(3, 2, 1, 1001)]))
    # the second sequence does not list 2 and stays as it is
    out = remove_isolated_point(TWO_RAYS, 2)
    assert sets_equal(out, PAdicSet(2, points=[1], seqs=[
        SeqWithLimit(2, 0, 1, 2, True), SeqWithLimit(2, 4, 1, 0, True)]))
    with pytest.raises(PreconditionError):
        remove_isolated_point(full_set(5), 0)


@settings(max_examples=60)
@given(padic_sets())
def test_isolated_points_are_members_with_private_neighborhoods(s):
    s = closure(s)
    iso = isolated_points(s)
    for x in iso.explicit:
        assert member(x, s)
        # some depth separates x from the rest: removing it changes the set
        out = remove_isolated_point(s, x)
        assert not member(x, out)


# ---------------------------------------------------------------------------
# density, meets_ball, elements
# ---------------------------------------------------------------------------

def test_density_frozen_cases():
    evens = PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)])        # {2^n : n >= 0}
    assert is_dense_in(evens, closure(evens))
    assert not is_dense_in(point_set(2, 0), closure(evens))
    assert is_dense_in(full_set(3), full_set(3))
    integers_2adic = full_set(2)
    assert not is_dense_in(PAdicSet(2, balls=[Ball(2, 0, 1)]), integers_2adic)


@settings(max_examples=60)
@given(padic_sets())
def test_some_elements_are_members(s):
    for x in some_elements(s):
        assert member(x, s)


@settings(max_examples=60)
@given(padic_sets(), st.integers(0, 3), st.data())
def test_meets_ball_matches_residues(s, depth, data):
    c = data.draw(st.integers(0, s.p ** depth - 1) if depth else st.just(0))
    ball = Ball(s.p, c, depth)
    truth = any(r % s.p ** depth == c % s.p ** depth
                for r in set_residues(s, depth)) if depth else not s.is_empty()
    if not s.seqs:
        assert meets_ball(s, ball) == truth
    elif meets_ball(s, ball):
        assert truth or any(ball.contains(q.limit) for q in s.seqs)


# ---------------------------------------------------------------------------
# default rules
# ---------------------------------------------------------------------------

def test_instantiate_frozen_rules():
    assert instantiate(FULL_RULE, 7) == full_set(7)
    assert instantiate(EMPTY_RULE, 7) == empty_set(7)
    # units-and-self: the whole unit group (all nonzero residues mod p)
    # together with the point p itself
    units = instantiate(UNITS_AND_SELF_RULE, 5)
    assert set(units.points) == {5}
    assert {(b.center, b.depth) for b in units.balls} == {(c, 1) for c in (1, 2, 3, 4)}
    assert member(Fraction(-1), units) and member(Fraction(7), units)
    assert not member(Fraction(10), units)
    power = instantiate(single_power_rule(3), 2)
    assert set(power.points) == {8}


def test_instantiate_integer_set_rule():
    from ivp.adelic import IntegerSet
    from ivp.exact import Congruence
    rule = integer_set_rule(IntegerSet.without_classes(Congruence(0, 2)))
    s = instantiate(rule, 2)        # odd integers, 2-adically
    assert member(Fraction(1), s) and member(Fraction(3), s)
    assert not member(Fraction(0), s)
    t = instantiate(rule, 3)        # odd integers are 3-adically dense
    assert sets_equal(t, full_set(3))
