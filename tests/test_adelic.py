"""Integer sets with excluded congruence classes and their two closures:
the product of per-prime closures versus the closure in the profinite
completion.  Oracles scan one full period, which is exact because
membership is periodic outside the finite extras.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_hit_residues,
    brute_product_closure_member,
    is_all_integers,
    brute_simultaneous_hit,
    intset_elements_in_period,
)

from ivp.adelic import (
    AdelicCandidate,
    IntegerSet,
    adelic_closure_member,
    closure_in_zp,
    closures_differ,
    product_closure_member,
)
from ivp.config import Config
from ivp.errors import InvariantError, PreconditionError, ResourceLimitError
from ivp.exact import Congruence, vp
from ivp.padic import full_set, member, sets_equal


congruences = st.builds(lambda r, m: Congruence(r % m, m),
                        st.integers(0, 71), st.sampled_from([2, 3, 4, 6, 8, 9, 12, 72]))

integer_sets = st.builds(
    lambda excl, extra: IntegerSet(excluded=tuple(excl), extra=tuple(extra)),
    st.lists(congruences, max_size=3),
    st.lists(st.integers(-50, 50), max_size=2),
)

finite_sets = st.builds(lambda xs: IntegerSet.finite(xs),
                        st.lists(st.integers(-60, 60), min_size=0, max_size=6))


THE_72_SET = IntegerSet.without_classes(Congruence(65, 72))   # Z minus {-7+72k}


# ---------------------------------------------------------------------------
# IntegerSet itself
# ---------------------------------------------------------------------------

def test_integer_set_membership_frozen():
    e = THE_72_SET
    assert not e.contains(65) and not e.contains(65 + 72) and not e.contains(-7)
    assert e.contains(64) and e.contains(0) and e.contains(137 + 1)


def test_extras_override_exclusions():
    e = IntegerSet(excluded=(Congruence(1, 2),), extra=(9,))
    assert e.contains(9) and not e.contains(7)


@given(integer_sets, st.integers(-300, 300))
def test_membership_is_periodic_outside_extras(e, n):
    period = e.exclusion_modulus
    if n in e.extra or n + period in e.extra:
        return
    assert e.contains(n) == e.contains(n + period)


def test_finite_and_empty_detection():
    assert IntegerSet.finite([3, 1, 3]).finite_elements() == (1, 3)
    assert IntegerSet.finite([]).is_empty()
    # excluding both classes mod 2 empties Z
    both = IntegerSet(excluded=(Congruence(0, 2), Congruence(1, 2)))
    assert both.is_finite() and both.is_empty()
    assert not THE_72_SET.is_finite()
    # Erdős's covering system: every integer lies in one of these classes
    system = tuple(Congruence(r, m)
                   for r, m in ((0, 2), (0, 3), (1, 4), (5, 6), (7, 12)))
    assert IntegerSet(excluded=system, extra=(5,)).finite_elements() == (5,)
    assert not IntegerSet(excluded=system[:-1]).is_finite()
    assert is_all_integers(IntegerSet.all_integers())
    assert not is_all_integers(THE_72_SET)


def test_str_shapes():
    assert str(THE_72_SET) == "Z \\ (65 mod 72)"
    assert "U {9}" in str(IntegerSet(excluded=(Congruence(1, 2),), extra=(9,)))


# ---------------------------------------------------------------------------
# per-prime closures against the period-scan oracle
# ---------------------------------------------------------------------------

def _separating_depth(e, p, *probes):
    """A scan depth deep enough that agreeing with some element of e mod
    p^depth really means lying in the closure: past the periodic part and
    past every finite extra that is merely close to a probe."""
    depth = vp(e.exclusion_modulus, p) + 1
    for t in e.extra:
        for x in probes:
            if t != x:
                depth = max(depth, vp(x - t, p) + 1)
    return depth


@settings(max_examples=100, deadline=None)
@given(integer_sets, st.sampled_from([2, 3, 5, 7]), st.integers(0, 40))
def test_closure_residues_match_period_scan(e, p, probe):
    depth = _separating_depth(e, p, probe)
    hit = brute_hit_residues(e, p, depth)
    s = closure_in_zp(e, p)
    assert member(Fraction(probe), s) == (probe % p ** depth in hit)


@settings(max_examples=60, deadline=None)
@given(finite_sets, st.sampled_from([2, 3, 5]))
def test_finite_set_closure_is_itself(e, p):
    s = closure_in_zp(e, p)
    for n in range(-60, 61):
        assert member(Fraction(n), s) == e.contains(n)


def test_72_set_closures_are_full_everywhere():
    # one excluded class mod 72 leaves every residue mod 16 and mod 27
    # reachable, and primes outside 72 see the full ring anyway
    for p in (2, 3, 5, 7, 97):
        assert sets_equal(closure_in_zp(THE_72_SET, p), full_set(p))


@settings(max_examples=60, deadline=None)
@given(integer_sets, st.sampled_from([5, 7, 11, 10007, 1048583]))
def test_closure_is_all_of_zp_at_a_prime_outside_the_modulus(e, p):
    # 1048583 classes mod p would pass the default residue cap of 2^20
    if not e.is_finite():
        assert closure_in_zp(e, p) == full_set(p)


@pytest.mark.parametrize("p", [4, 1])
def test_closure_refuses_a_composite_before_any_covering_check(p):
    e = IntegerSet.without_classes(Congruence(1, 4))
    with pytest.raises(PreconditionError, match=f"expected a prime, got {p}"):
        closure_in_zp(e, p)


def test_closure_sees_genuine_exclusion():
    # excluding 1 mod 4 leaves a visible 2-adic hole
    e = IntegerSet.without_classes(Congruence(1, 4))
    s = closure_in_zp(e, 2)
    assert not member(Fraction(1), s)
    assert member(Fraction(3), s) and member(Fraction(0), s)


# ---------------------------------------------------------------------------
# candidates and the two closures
# ---------------------------------------------------------------------------

def test_candidate_validation():
    with pytest.raises(PreconditionError):
        AdelicCandidate.of({2: Fraction(1, 2)})     # not 2-integral
    with pytest.raises(PreconditionError):
        AdelicCandidate.of({4: 1})                  # not a prime
    x = AdelicCandidate.diagonal(65, (2, 3))
    assert x.value_at(2) == 65 and x.value_at(3) == 65


def test_72_example_product_yes_hat_no():
    x = AdelicCandidate.diagonal(65, (2, 3))
    assert product_closure_member(THE_72_SET, x)
    assert not adelic_closure_member(THE_72_SET, x)


def test_hat_membership_detects_actual_elements():
    x = AdelicCandidate.diagonal(64, (2, 3))
    assert adelic_closure_member(THE_72_SET, x)
    y = AdelicCandidate.of({2: Fraction(1), 3: Fraction(64)})
    # 1 mod 16 and 64 mod 27 are simultaneously approximable (CRT inside E)
    assert adelic_closure_member(THE_72_SET, y) == brute_simultaneous_hit(
        THE_72_SET, {2: 1, 3: 64}, 5)


@settings(max_examples=80, deadline=None)
@given(integer_sets, st.integers(-100, 100))
def test_hat_closure_contains_the_diagonal_of_elements(e, n):
    if not e.contains(n):
        return
    x = AdelicCandidate.diagonal(n, (2, 3))
    assert adelic_closure_member(e, x)
    assert product_closure_member(e, x)


# moduli dividing 5040, and so 72; finite bases; candidates with rational
# coordinates at up to four primes, or none
moduli_of_5040 = st.sampled_from([d for d in range(2, 5041) if 5040 % d == 0])
wide_integer_sets = st.builds(
    lambda base, excl, extra: IntegerSet(base=base, excluded=tuple(excl),
                                         extra=tuple(extra)),
    st.none() | st.lists(st.integers(-8, 8), max_size=5),
    st.lists(st.builds(lambda r, m: Congruence(r % m, m),
                       st.integers(0, 5039), moduli_of_5040), max_size=3),
    st.lists(st.integers(-50, 50), max_size=2),
)
coordinates = st.dictionaries(
    st.sampled_from([2, 3, 5, 7]),
    st.tuples(st.integers(-8, 8) | st.integers(-5000, 5000),
              st.integers(1, 12)),
    max_size=4,
).map(lambda d: AdelicCandidate.of({
    p: Fraction(n, q + 1 if q % p == 0 else q) for p, (n, q) in d.items()}))


@settings(max_examples=200, deadline=None)
@given(wide_integer_sets, coordinates)
def test_product_membership_matches_the_residue_scan(e, x):
    assert product_closure_member(e, x) == brute_product_closure_member(e, x)


@settings(max_examples=80, deadline=None)
@given(integer_sets, st.integers(-100, 100), st.integers(-100, 100))
def test_hat_is_contained_in_product(e, a, b):
    x = AdelicCandidate.of({2: Fraction(a), 3: Fraction(b)})
    if adelic_closure_member(e, x):
        assert product_closure_member(e, x)


@settings(max_examples=60, deadline=None)
@given(integer_sets, st.integers(-100, 100), st.integers(-100, 100))
def test_hat_matches_simultaneous_period_scan(e, a, b):
    x = AdelicCandidate.of({2: Fraction(a), 3: Fraction(b)})
    depth = max(_separating_depth(e, 2, a), _separating_depth(e, 3, b))
    assert adelic_closure_member(e, x) == brute_simultaneous_hit(
        e, {2: a, 3: b}, depth)


@settings(max_examples=60, deadline=None)
@given(integer_sets, st.integers(-100, 100))
def test_hat_matches_period_scan_with_one_coordinate(e, a):
    # the odd part of L carries no coordinate, so the candidate's CRT class
    # has several lifts to check
    x = AdelicCandidate.of({2: Fraction(a)})
    depth = _separating_depth(e, 2, a)
    assert adelic_closure_member(e, x) == brute_simultaneous_hit(
        e, {2: a}, depth)


# ---------------------------------------------------------------------------
# witnesses that the closures differ
# ---------------------------------------------------------------------------

def test_72_set_closures_differ_with_verified_witness():
    w = closures_differ(THE_72_SET)
    assert w is not None
    assert product_closure_member(THE_72_SET, w)
    assert not adelic_closure_member(THE_72_SET, w)


# 720720 = 2^4 3^2 5 7 11 13: the joint moduli of the candidates below pass
# the residue cap, while the CRT fold of each leaves 5005 and 1 lifts
THE_720720_SET = IntegerSet.without_classes(Congruence(65, 720720))


def test_hat_membership_on_a_large_modulus():
    x = AdelicCandidate.of({2: 65, 3: 65})
    assert adelic_closure_member(THE_720720_SET, x)


def test_hat_membership_needs_no_scan_of_the_lifts():
    # the fold 65 mod 864 has 5005 lifts mod 720720; one covering node
    # decides it, so a cap of 1000 is plenty
    x = AdelicCandidate.of({2: 65, 3: 65})
    assert adelic_closure_member(THE_720720_SET, x, Config(residue_cap=1000))


def test_hat_rejects_the_excluded_diagonal_on_a_large_modulus():
    x = AdelicCandidate.diagonal(65, (2, 3, 5, 7, 11, 13))
    assert not adelic_closure_member(THE_720720_SET, x)


def test_closures_differ_past_the_joint_residue_cap():
    e = IntegerSet.without_classes(Congruence(65, 5040))
    assert closures_differ(e) == AdelicCandidate.diagonal(65, (2, 3, 5, 7))


def test_closures_differ_skips_a_class_no_closure_ball_meets():
    # no closure ball at 2 meets the even class, so 1 mod 55440 gives the
    # witness without walking the 27720 lifts of 0 mod 2
    e = IntegerSet.without_classes(Congruence(0, 2), Congruence(1, 55440))
    w = closures_differ(e)
    assert w == AdelicCandidate.diagonal(1, (2, 3, 5, 7, 11))
    assert product_closure_member(e, w)
    assert not adelic_closure_member(e, w)


def test_closures_differ_steps_past_a_re_added_residue():
    # 1 is re-added, so the witness is the next integer of its fold class
    e = IntegerSet(excluded=(Congruence(1, 6),), extra=(1,))
    w = closures_differ(e)
    assert w == AdelicCandidate.diagonal(7, (2, 3))
    assert product_closure_member(e, w)
    assert not adelic_closure_member(e, w)


def test_closures_differ_reports_a_failed_finite_set_witness(monkeypatch):
    import ivp.adelic
    monkeypatch.setattr(ivp.adelic, "adelic_closure_member",
                        lambda *args: True)
    with pytest.raises(InvariantError, match=r"^2: 0, 3: 1 fails to separate"
                       r" the closures of \{0, 1\}$"):
        closures_differ(IntegerSet.finite([0, 1]))


def test_unobstructed_sets_report_no_difference():
    assert closures_differ(IntegerSet.all_integers()) is None
    assert closures_differ(IntegerSet.without_classes(Congruence(1, 4))) is None


def test_finite_sets_differ_when_two_elements_exist():
    w = closures_differ(IntegerSet.finite([0, 1]))
    assert w is not None
    assert product_closure_member(IntegerSet.finite([0, 1]), w)
    assert not adelic_closure_member(IntegerSet.finite([0, 1]), w)
    assert closures_differ(IntegerSet.finite([4])) is None


@settings(max_examples=60, deadline=None)
@given(integer_sets)
def test_any_returned_witness_is_valid(e):
    w = closures_differ(e)
    if w is not None:
        assert product_closure_member(e, w)
        assert not adelic_closure_member(e, w)


def test_finiteness_checks_obey_the_callers_residue_cap():
    # the odd multiples of 3 that are 3 mod 4 are infinitely many, but a
    # covering check must split the root class more than twice to see it
    e = IntegerSet.without_classes(Congruence(0, 2), Congruence(1, 4),
                                   Congruence(1, 3), Congruence(2, 3))
    x = AdelicCandidate.of({2: 3})
    assert adelic_closure_member(e, x)
    tight = Config(residue_cap=2)
    for check in (lambda: adelic_closure_member(e, x, tight),
                  lambda: e.is_finite(tight), lambda: e.is_empty(tight),
                  lambda: product_closure_member(e, x, tight)):
        with pytest.raises(ResourceLimitError, match=(
                r"^3 covering-check classes, over the residue cap "
                r"\(residue_cap = 2\)$")):
            check()
