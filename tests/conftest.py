"""Shared strategies for randomised tests.

Sets are generated at the small primes 2, 3, 5 where brute-force residue
enumeration stays cheap.
"""

from fractions import Fraction

from hypothesis import settings, strategies as st

from ivp.padic import Ball, PAdicSet, SeqWithLimit

# selected with --hypothesis-profile no_deadline, for runs slowed down by a
# tracer (tests/line_coverage.py), where the default 200 ms deadline fails
# examples that pass untraced
settings.register_profile("no_deadline", deadline=None)

PRIMES = (2, 3, 5)

primes = st.sampled_from(PRIMES)


def p_integral(p: int, bound: int = 60):
    """Rationals in Z_p with small numerator and denominator."""
    denominators = [d for d in (1, 2, 3, 5, 7, 9) if d % p != 0]
    return st.builds(Fraction, st.integers(-bound, bound),
                     st.sampled_from(denominators))


def balls(p: int):
    return st.builds(lambda c, k: Ball(p, c, k),
                     p_integral(p), st.integers(0, 5))


def seqs(p: int, max_start: int = 2):
    def build(limit, scale_num, scale_exp, start, include):
        # scale = scale_num * p**scale_exp with vp(scale) + start >= 0
        scale = Fraction(scale_num) * Fraction(p) ** scale_exp
        return SeqWithLimit(p, limit, scale, start, include)

    unit_nums = [n for n in (-7, -3, -1, 1, 2, 3, 5) if n % p != 0]
    return st.builds(build, p_integral(p, 20), st.sampled_from(unit_nums),
                     st.integers(0, 3), st.integers(0, max_start), st.booleans())


@st.composite
def padic_sets(draw, p=None, max_balls=2, max_points=3, max_seqs=2,
               max_start=2):
    if p is None:
        p = draw(primes)
    return PAdicSet(
        p,
        balls=draw(st.lists(balls(p), max_size=max_balls)),
        points=draw(st.lists(p_integral(p), max_size=max_points)),
        seqs=draw(st.lists(seqs(p, max_start), max_size=max_seqs)),
    )


@st.composite
def rational_polys(draw, p=None, max_degree=4, coeff_bound=30,
                   max_exponent=4):
    """Polynomials with denominators supported at 2 and 3 (and the set's
    prime when given, up to p^max_exponent), so integer-valuedness
    questions are nontrivial."""
    from ivp.polys import RatPoly
    degree = draw(st.integers(0, max_degree))
    nums = [draw(st.integers(-coeff_bound, coeff_bound))
            for _ in range(degree + 1)]
    if p is None:
        p = draw(primes)
    den = (p ** draw(st.integers(0, max_exponent))
           * draw(st.sampled_from([1, 1, 2, 3])))
    return RatPoly(nums, den)
