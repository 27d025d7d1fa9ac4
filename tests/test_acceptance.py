"""Nine end-to-end gates, one test each.

Each test prints a single ``criterion N: PASS/FAIL`` line and asserts,
so a verbose run shows exactly one verdict per gate.  The randomized
gates use a fixed seed and their own samplers; the brute-force sides
come from the independent oracles module.
"""

import json
import random
from fractions import Fraction

from oracles import (brute_int_valued, primes_below, probe_elements,
                     root_residues)

from ivp.adelic import (
    AdelicCandidate,
    IntegerSet,
    adelic_closure_member,
    closures_differ,
    product_closure_member,
)
from ivp.cli import main
from ivp.errors import ResourceLimitError
from ivp.exact import Congruence, crt_solve, vp
from ivp.membership import is_integer_valued, separating_polynomial
from ivp.overrings import (
    EMPTY_RULE,
    FULL_RULE,
    Representation,
    RingSpec,
    UNITS_AND_SELF_RULE,
    globalize,
    has_irredundant_representation,
    instantiate,
    integer_set_rule,
    minimal_extensions,
    nonunitary_contains,
    ring_equal,
    single_power_rule,
    superfluous_unitary,
)
from ivp.padic import (
    Ball,
    PAdicSet,
    SeqWithLimit,
    closure,
    full_set,
    member,
    point_set,
    sets_equal,
)
from ivp.polys import IrreduciblePoly, RatPoly, RootKind, roots_in_set

THE_72_SET = IntegerSet.without_classes(Congruence(-7, 72))


def _verdict(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# ---------------------------------------------------------------------------
# samplers for the randomized gates (fixed seeds, independent of hypothesis)
# ---------------------------------------------------------------------------

def _unit_denominator(rng, p):
    return rng.choice([d for d in (1, 1, 1, 2, 3, 5) if d != p])


def _sample_set(rng, p):
    balls = [Ball(p, rng.randrange(0, p ** 4), rng.randrange(0, 5))
             for _ in range(rng.randrange(0, 3))]
    points = [Fraction(rng.randrange(-50, 51), _unit_denominator(rng, p))
              for _ in range(rng.randrange(0, 3))]
    seqs = []
    for _ in range(rng.randrange(0, 2)):
        scale = rng.choice([1, -1, p + 1]) * p ** rng.randrange(0, 3)
        limit = Fraction(rng.randrange(-20, 21), _unit_denominator(rng, p))
        seqs.append(SeqWithLimit(p, limit, Fraction(scale),
                                 rng.randrange(0, 3), rng.random() < 0.5))
    return PAdicSet(p, balls, points, seqs)


def _sample_poly(rng, den):
    degree = rng.randrange(0, 7)
    coeffs = [rng.randrange(-40, 41) for _ in range(degree)] + \
        [rng.choice([c for c in range(-10, 11) if c])]
    return RatPoly(coeffs, den)


def _int_valued_on_closure(f, closed, p):
    try:
        return is_integer_valued(f, closed)
    except ResourceLimitError:
        return all(vp(f.eval_at(x), p) >= 0 for x in probe_elements(closed, 6))


# ---------------------------------------------------------------------------
# the nine gates
# ---------------------------------------------------------------------------

def test_criterion_1_adelic_closures_differ(capsys):
    code = main(["--json", "adele-diff", "--intset", r"Z \ (-7 mod 72)"])
    payload = json.loads(capsys.readouterr().out)
    ok = code == 0 and payload["differ"] is True

    # the reported candidate realises the residue prescription 1 mod 8
    # at 2 and 2 mod 9 at 3
    witness = dict(
        part.split(": ") for part in payload["candidate"].split(", "))
    ok = ok and int(witness["2"]) % 8 == 1 and int(witness["3"]) % 9 == 2

    combined = crt_solve([Congruence(1, 8), Congruence(2, 9)])
    ok = ok and (combined.residue, combined.modulus) == (65, 72)
    code = main(["adele-hat", "--intset", r"Z \ (-7 mod 72)",
                 "--candidate", f"2: {combined.residue}, 3: {combined.residue}"])
    hat_out = capsys.readouterr().out.strip()
    ok = ok and code == 0 and hat_out == "no"

    prod_fail = []
    for p in primes_below(98):
        code = main(["adele-prod", "--intset", r"Z \ (-7 mod 72)",
                     "--candidate", f"{p}: {combined.residue}"])
        if code != 0 or capsys.readouterr().out.strip() != "yes":
            prod_fail.append(p)
    ok = ok and not prod_fail
    _verdict(1, ok, "product closure keeps 65 at each p <= 97, full closure"
                    " rejects the combined class 65 mod 72")


def test_criterion_2_forced_denominator_over_power_tail(capsys):
    code = main(["nonunitary-contains", "--rep",
                 '{"unitary": {}, "default": "power(1)"}', "--poly", "X"])
    out = capsys.readouterr().out
    ok = code == 0 and out.startswith("yes")

    rep = Representation({}, single_power_rule(1))
    not_superfluous = [p for p in primes_below(50)
                       if not superfluous_unitary(rep, p, Fraction(p))]
    ok = ok and not_superfluous == primes_below(50)
    _verdict(2, ok, "V_X is forced by the pinned powers and no pinned"
                    " factor is droppable")


def test_criterion_3_closure_preserves_integer_valuedness():
    rng = random.Random(20260825)
    mismatches = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        den = 2 ** rng.randrange(0, 7) * 3 ** rng.randrange(0, 5)
        f = _sample_poly(rng, den)
        e = _sample_set(rng, p)
        if is_integer_valued(f, e) != is_integer_valued(f, closure(e)):
            mismatches += 1
    ok = mismatches == 0

    separated = 0
    while separated < 50:
        p = rng.choice([2, 3, 5])
        e = _sample_set(rng, p)
        closed = closure(e)
        alpha = Fraction(rng.randrange(-60, 61), _unit_denominator(rng, p))
        if member(alpha, closed):
            continue
        f = separating_polynomial(e, alpha)
        ok = ok and vp(f.eval_at(alpha), p) < 0
        ok = ok and _int_valued_on_closure(f, closed, p)
        separated += 1
    _verdict(3, ok, "200/200 closure-invariant memberships and 50/50"
                    " validated separating polynomials")


def test_criterion_4_ring_set_round_trips():
    catalog = [RingSpec.integers(), RingSpec.rationals(),
               RingSpec.primes_ring()]
    rules = [FULL_RULE, EMPTY_RULE, UNITS_AND_SELF_RULE,
             single_power_rule(1), single_power_rule(2),
             integer_set_rule(THE_72_SET),
             integer_set_rule(IntegerSet.finite([0, 1, 8]))]
    for rule in rules:
        catalog.append(RingSpec({}, rule))
    shapes = {
        2: [full_set(2), PAdicSet(2, balls=[Ball(2, 1, 2)]),
            PAdicSet(2, balls=[Ball(2, 3, 3), Ball(2, 0, 2)]),
            point_set(2, 0, 3), point_set(2, 1, 2, 4, 8),
            closure(PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)])),
            closure(PAdicSet(2, seqs=[SeqWithLimit(2, 1, 2, 1)])),
            closure(PAdicSet(2, balls=[Ball(2, 1, 1)], points=[0],
                             seqs=[SeqWithLimit(2, 0, 4)]))],
        3: [full_set(3), PAdicSet(3, balls=[Ball(3, 2, 1)]),
            PAdicSet(3, balls=[Ball(3, 4, 2), Ball(3, 1, 1)]),
            point_set(3, 1), point_set(3, 0, 9, 81),
            closure(PAdicSet(3, seqs=[SeqWithLimit(3, 1, 3)]))],
        5: [PAdicSet(5, balls=[Ball(5, 3, 1)]), point_set(5, 0, 1, 7),
            PAdicSet(5, balls=[Ball(5, 2, 2)], points=[1]),
            closure(PAdicSet(5, seqs=[SeqWithLimit(5, 2, 5)]))],
    }
    i = 0
    for p, sets in shapes.items():
        for s in sets:
            catalog.append(RingSpec({p: s}, rules[i % len(rules)]))
            i += 1
    catalog.append(RingSpec({2: shapes[2][1], 3: shapes[3][1]}, FULL_RULE))
    catalog.append(RingSpec({2: shapes[2][5], 5: shapes[5][1]}, EMPTY_RULE))
    catalog.append(RingSpec({3: shapes[3][5]}, UNITS_AND_SELF_RULE))
    catalog.append(RingSpec({2: shapes[2][3], 3: shapes[3][3],
                             5: shapes[5][3]}, EMPTY_RULE))

    failures = 0
    for r in catalog:
        rebuilt = globalize({p: r.local_set(p) for p in r.window()}, r.default)
        if not ring_equal(rebuilt, r).is_yes:
            failures += 1
            continue
        for p in set(r.window()) | {7}:
            if not sets_equal(rebuilt.local_set(p), r.local_set(p)):
                failures += 1
                break
    ok = len(catalog) >= 30 and failures == 0
    _verdict(4, ok, f"{len(catalog)} ring specs, {failures} round-trip"
                    " failures between rings and their local sets")


def test_criterion_5_minimal_extensions():
    two_powers = closure(PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)]))
    ext = minimal_extensions(RingSpec({2: two_powers}, EMPTY_RULE), 2)
    ok = ext.explicit == ()                       # 0 is not droppable
    ok = ok and len(ext.families) == 1
    ok = ok and ext.families[0].from_n == 0       # one extension per 2^n

    ball_ext = minimal_extensions(RingSpec({2: full_set(2)}, EMPTY_RULE), 2)
    ok = ok and ball_ext.explicit == () and ball_ext.families == ()
    _verdict(5, ok, "powers of two each give one extension, the limit 0"
                    " gives none, a ball gives none")


def test_criterion_6_irredundant_representations():
    ok = has_irredundant_representation(RingSpec.integers()).is_no
    two_powers = closure(PAdicSet(2, seqs=[SeqWithLimit(2, 0, 1)]))
    ok = ok and has_irredundant_representation(
        RingSpec({2: two_powers}, EMPTY_RULE)).is_yes
    ok = ok and has_irredundant_representation(RingSpec.primes_ring()).is_no
    _verdict(6, ok, "full Z_p No, isolated powers of two Yes,"
                    " units-and-self No")


def test_criterion_7_certified_roots():
    no_roots = roots_in_set(IrreduciblePoly.certify(RatPoly([1, 0, 1])),
                            full_set(2))
    ok = no_roots == ()

    q17 = IrreduciblePoly.certify(RatPoly([-17, 0, 1]))
    certs = roots_in_set(q17, full_set(2))
    ok = ok and len(certs) == 2
    ok = ok and all(c.kind is RootKind.HENSEL and c.revalidate(q17)
                    for c in certs)

    sols = root_residues([-17, 0, 1], 2, 7)
    ok = ok and root_residues([1, 0, 1], 2, 7) == set()
    per_ball = [
        {r for r in sols
         if (r - c.ball.center) % 2 ** c.ball.depth == 0}
        for c in certs
    ]
    ok = ok and all(len(part) == 2 for part in per_ball)
    ok = ok and set().union(*per_ball) == sols and len(sols) == 4
    _verdict(7, ok, "X^2+1 rootless in Z_2, X^2-17 has two revalidated"
                    " lifts matching the mod-128 enumeration")


def test_criterion_8_membership_matches_brute_force():
    rng = random.Random(8675309)
    mismatches = 0
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        den = p ** rng.randrange(0, 5) * _unit_denominator(rng, p)
        f = _sample_poly(rng, den)
        s = _sample_set(rng, p)
        if is_integer_valued(f, s) != brute_int_valued(f, s):
            mismatches += 1
    _verdict(8, mismatches == 0,
             "500/500 integer-valuedness queries agree with residue"
             " enumeration at the exact denominator depth")


def test_criterion_9_binomial_on_units_and_self():
    f = RatPoly([0, -1, 1], 2)                    # (X^2 - X)/2
    local = RingSpec.primes_ring().local_set(2)
    ok = sets_equal(local, instantiate(UNITS_AND_SELF_RULE, 2))
    ok = ok and is_integer_valued(f, local)

    bad = [q for q in primes_below(10 ** 4)
           if f.eval_at(q).denominator != 1]
    ok = ok and not bad and len(primes_below(10 ** 4)) == 1229
    _verdict(9, ok, "(X^2-X)/2 is integral on the units-and-self set at 2"
                    " and at all 1229 primes below 10^4")
