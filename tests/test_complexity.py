"""The README's growth claims as exact counts of work, never as timings.

Each test counts calls of a module-level function (through monkeypatch),
of a nested one (through sys.setprofile) or the lines a module runs
(through sys.settrace) on a family of inputs of growing size, and
asserts the claimed bound with an explicit constant.
Counts do not depend on the host, so these tests are exact and fast.
"""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import padic_sets, primes

import ivp.exact as exact
import ivp.membership as membership
import ivp.padic as padic
import ivp.polys as polys
from ivp.dsl import parse_irreducible
from ivp.padic import (Ball, PAdicSet, SeqWithLimit, canonicalize, closure,
                       full_set, is_subset, isolated_points)
from ivp.polys import RatPoly


def test_root_tree_classes_do_not_grow_with_p(monkeypatch):
    # "root trees cost O(deg q) classes per level, whatever the size of p":
    # the tree charges residue_cap with the running count of its classes
    charge, visited = polys.charge, []

    def counting_charge(config, field, amount, what):
        if field == "residue_cap":
            visited.append(amount)
        charge(config, field, amount, what)

    monkeypatch.setattr(polys, "charge", counting_charge)
    q = parse_irreducible("X^2 - 17")
    for p in (7, 10007, 2 ** 31 - 1):
        visited.clear()
        polys.roots_in_set(q, full_set(p))
        assert 1 <= max(visited) <= 2 * q.degree, p


def _size(value) -> int:
    """Bit length of an integer or of a fraction's larger term, else 0."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(),
                   value.denominator.bit_length())
    return value.bit_length() if type(value) is int else 0


def test_deep_sequence_queries_take_a_fixed_number_of_steps():
    # "after it is built, each operation on a sequence takes a fixed number
    # of steps on numbers of at most the size of p^start, and reads an
    # exponent back in O(log start) squarings": trace the calls and lines
    # that padic and exact run for the queries, and the largest number
    # their frames hold on return
    files = {padic.__file__, exact.__file__}
    counts = []
    for start in (10 ** 3, 10 ** 4, 3 * 10 ** 4):
        s = PAdicSet(3, [Ball(3, 5, 3)], [7],
                     [SeqWithLimit(3, 2, 1, start, False)])
        calls, lines, largest = Counter(), Counter(), [0]

        def local(frame, event, arg):
            if event == "line":
                lines[frame.f_code.co_name] += 1
            elif event == "return":
                values = [arg, *frame.f_locals.values()]
                largest[0] = max(largest[0], *map(_size, values))
            return local

        def on_call(frame, event, arg):
            if frame.f_code.co_filename in files:
                calls[frame.f_code.co_name] += 1
                return local
            return None

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            closed = closure(s)
            answers = (is_subset(s, closed), is_subset(closed, s),
                       bool(isolated_points(closed).tails))
        finally:
            sys.settrace(previous)
        assert answers == (True, False, True)
        bits = (3 ** start).bit_length()
        # power_exponent squares p up to about the square root of its
        # argument: three lines a rung, one rung per doubling of the bits
        assert (lines.pop("power_exponent")
                <= calls["power_exponent"] * (6 + 3 * bits.bit_length()))
        assert bits <= largest[0] <= bits + 8
        counts.append((calls, lines))
    assert counts[0] == counts[1] == counts[2]


def _binomial(d: int) -> RatPoly:
    """X(X - 1)...(X - d + 1)/d!, integer-valued on every Z_p."""
    f = RatPoly([1])
    for j in range(d):
        f = f * RatPoly([-j, 1])
    return f * RatPoly([1], math.factorial(d))


def _bhargava_terms(component: PAdicSet, f: RatPoly) -> int:
    """min(deg f + 1, J) for the one component of the set, J the least j
    with nu_j >= m, from the closed forms of its Bhargava factorials:
    nu_j = k j + vp(j!) for a ball of depth k, j h + j(j - 1)/2 for a
    sequence whose first element lies p^h from its limit, and nu_1
    infinite for a point."""
    p, m = component.p, exact.vp(f.denominator, component.p)
    if component.points:
        return 1
    if component.balls:
        k = component.balls[0].depth

        def nu(j):
            return k * j + exact.vp(math.factorial(j), p)
    else:
        h = component.seqs[0].head

        def nu(j):
            return j * h + j * (j - 1) // 2
    return next((j for j in range(f.degree + 1) if nu(j) >= m),
                f.degree + 1)


@pytest.mark.parametrize("component", [
    PAdicSet(2, balls=[Ball(2, 0, 0)]),
    PAdicSet(2, balls=[Ball(2, 1, 3)]),
    PAdicSet(2, points=[5]),
    PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1, 0, True)]),
    PAdicSet(3, seqs=[SeqWithLimit(3, 1, 1, 1, True)]),
])
def test_integer_valuedness_evaluates_each_component_deg_plus_1_times(
        component):
    # "an integer-valuedness check evaluates f at most min(deg f + 1, J)
    # times per ball or sequence": count the calls of is_integer_valued's
    # root test against deg f + 1 and against the Bhargava bound
    evaluations = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "root"
                and frame.f_code.co_filename == membership.__file__):
            evaluations.append(frame.f_code)

    for d in range(1, 17):
        f = _binomial(d)
        evaluations.clear()
        sys.setprofile(profile)
        try:
            answer = membership.is_integer_valued(f, component)
        finally:
            sys.setprofile(None)
        assert answer and len(evaluations) <= d + 1, d
        assert len(evaluations) <= _bhargava_terms(component, f), d
    if component.balls == (Ball(2, 0, 0),):
        # C(X, 16) over 2^15: nu_16(Z_2) = vp(16!) = 15 = m, so 16 points
        # decide where deg f + 1 = 17 would be read
        assert len(evaluations) == 16


@given(st.data())
def test_containment_tries_one_ball_per_depth(data):
    # "containment of p-adic sets needs no cap: one candidate ball per
    # depth": is_subset calls contains_ball at most once for each ball of
    # canonical a and each distinct depth of canonical b's balls
    p = data.draw(primes)
    a = data.draw(padic_sets(p, max_balls=4))
    b = data.draw(padic_sets(p, max_balls=4))
    calls = [0]
    contains_ball = Ball.contains_ball

    def counting(self, other):
        calls[0] += 1
        return contains_ball(self, other)

    ca, cb = canonicalize(a), canonicalize(b)
    Ball.contains_ball = counting
    try:
        is_subset(a, b)
    finally:
        Ball.contains_ball = contains_ball
    assert calls[0] <= len(ca.balls) * len({c.depth for c in cb.balls})
