"""Polynomials over Q and their p-adic valuation analysis.

RatPoly keeps an integer coefficient vector plus a positive denominator
with no common factor, so every evaluation is exact.  Root finding inside
a representable p-adic set takes the rational root that an irreducible
polynomial has at degree 1 in closed form, and walks a residue-lifting
tree over balls at higher degrees, whose branches terminate in Hensel
certificates or in dead classes on which vp(q) is constant.  Each live
class r mod p^m has as children only the roots mod p of q(r + p^m*Y),
divided by the p-power of its content; they are found by a gcd with
Y^p - Y and equal-degree splitting over F_p (Berthomieu, Lecerf and
Quintin, AAECC 24, 2013), so a level costs O(deg q) classes and O(log p)
polynomial products, not p evaluations.  The tree needs q squarefree,
which a prime modulo which q and q' are coprime certifies; no resultant
is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .config import DEFAULT_CONFIG, Config
from .errors import InvariantError, PreconditionError, charge
from .exact import INFINITY, Rat, Valuation, is_finite, iter_primes, vp
from .padic import Ball, PAdicSet, canonicalize, member


@dataclass(frozen=True)
class RatPoly:
    """g(X)/d with g integer-coefficient and gcd(content(g), d) = 1."""

    coeffs: tuple[int, ...]             # low to high; () only for the zero poly
    denominator: int

    def __init__(self, coeffs: Iterable[int], denominator: int = 1):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if denominator == 0:
            raise PreconditionError("denominator must be nonzero")
        if denominator < 0:
            coeffs = [-c for c in coeffs]
            denominator = -denominator
        content = 0
        for c in coeffs:
            content = math.gcd(content, c)
        g = math.gcd(content, denominator)
        if g > 1:
            coeffs = [c // g for c in coeffs]
            denominator //= g
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def from_fractions(cls, values: Iterable[Rat]) -> "RatPoly":
        values = [Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in values)) if values else 1
        return cls([int(v * den) for v in values], den)

    @classmethod
    def constant(cls, value: Rat) -> "RatPoly":
        return cls.from_fractions([value])

    @classmethod
    def x(cls) -> "RatPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def fraction_coeffs(self) -> list[Fraction]:
        return [Fraction(c, self.denominator) for c in self.coeffs]

    def eval_at(self, x: Rat) -> Fraction:
        return Fraction(_horner(self.coeffs, Fraction(x)), self.denominator)

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:],
                       self.denominator)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.fraction_coeffs(), other.fraction_coeffs()
        if len(a) < len(b):
            a, b = b, a
        return RatPoly.from_fractions(
            [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs], self.denominator)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if not isinstance(other, RatPoly):
            other = RatPoly.constant(other)
        if self.is_zero() or other.is_zero():
            return RatPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "RatPoly":
        if e < 0:
            raise PreconditionError("negative polynomial power")
        result = RatPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*X" if abs(c) != 1 else ("X" if c > 0 else "-X"))
            else:
                terms.append(f"{c}*X^{i}" if abs(c) != 1
                             else (f"X^{i}" if c > 0 else f"-X^{i}"))
        body = " + ".join(terms).replace("+ -", "- ")
        return body if self.denominator == 1 else f"({body})/{self.denominator}"


# ---------------------------------------------------------------------------
# irreducibility certificates
# ---------------------------------------------------------------------------

class CertificateKind(Enum):
    DEGREE_ONE = "degree-one"
    NO_RATIONAL_ROOT = "no-rational-root"
    MOD_P_WITNESS = "mod-p-witness"
    CALLER_ASSERTED = "caller-asserted"


def _horner(coeffs: Sequence[int], x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _has_rational_root(c: Sequence[int]) -> bool:
    """Whether a primitive integer quadratic or cubic has a rational root.

    Degree 2: iff the discriminant is a square.  Degree 3: x is a root of
    f iff y = a3*x is a root of the monic g(y) = a3^2 * f(y / a3), whose
    rational roots are integers.  g increases up to its first critical
    point, decreases to the second and increases after it; cut at the
    integer floors of those points, each piece is monotone and one
    integer bisection per piece finds any root below the Cauchy bound.
    """
    if len(c) == 3:
        disc = c[1] * c[1] - 4 * c[0] * c[2]
        return disc >= 0 and math.isqrt(disc) ** 2 == disc
    a0, a1, a2, a3 = c
    g = (a0 * a3 * a3, a1 * a3, a2, 1)
    bound = 1 + max(abs(x) for x in g)
    cuts = []
    disc = a2 * a2 - 3 * a1 * a3        # g'(y) = 3y^2 + 2*a2*y + a1*a3
    if disc >= 0:
        s = math.isqrt(disc)
        ceil_s = s if s * s == disc else s + 1
        cuts = [(-a2 - ceil_s) // 3, (-a2 + s) // 3]
    edges = [-bound - 1, *cuts, bound]
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        sign = -1 if i % 2 else 1       # g decreases on the middle piece
        lo += 1                         # the piece is lo..hi inclusive
        top = hi
        while lo < hi:                  # least y with sign * g(y) >= 0
            mid = (lo + hi) // 2
            if sign * _horner(g, mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if lo <= top and _horner(g, lo) == 0:
            return True
    return False


def _mod_poly_mul(a, b, mod_poly, ell):
    """a*b modulo the monic mod_poly over F_ell; entries are reduced once."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    d = len(mod_poly) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i] % ell
        if c:
            for j in range(d):
                out[i - d + j] -= c * mod_poly[j]
    out = [c % ell for c in out[:d]]
    while out and out[-1] == 0:
        out.pop()
    return out or [0]


def _monic_mod(coeffs, ell) -> list[int]:
    """coeffs reduced mod ell, without zero leading terms and made monic;
    [] when every coefficient vanishes mod ell."""
    f = [c % ell for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return f
    inv = pow(f[-1], -1, ell)
    return [c * inv % ell for c in f]


def _mod_poly_gcd(a, b, ell):
    """The monic gcd of a and b over F_ell, by Euclid from their monic
    reductions; [0] when both vanish mod ell."""
    a, b = _monic_mod(a, ell), _monic_mod(b, ell)
    while b:
        inv = pow(b[-1], -1, ell)
        while len(a) >= len(b):                         # a mod b
            coef, shift = a[-1] * inv % ell, len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * bc) % ell
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return _monic_mod(a, ell) or [0]


def _x_power_mod(monic, e, ell, base=(0, 1)):
    """base^e, X^e by default, modulo a monic polynomial of degree >= 1
    over F_ell.  The bits of e are read from the most significant end, so
    a step by X is a shift and one reduction."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mod_poly_mul(out, out, monic, ell)
        if bit == "1":
            out = _mod_poly_mul(out, base, monic, ell)
    return out


def _minus_x(poly, ell):
    """poly - X over F_ell."""
    out = poly + [0] * (2 - len(poly))
    out[1] = (out[1] - 1) % ell
    return out


def _irreducible_mod(coeffs: Sequence[int], ell: int) -> bool:
    """Ben-Or's irreducibility test over F_ell (FOCS 1981): f of degree d
    is irreducible iff gcd(f, X^(ell^i) - X) = 1 for each i <= d/2.  It
    stops at the least degree of a factor of f."""
    monic = _monic_mod(coeffs, ell)
    d = len(monic) - 1
    if d < 1:
        return False
    h = [0, 1]
    for _ in range(d // 2):
        h = _x_power_mod(monic, ell, ell, h)            # X^(ell^i)
        if len(_mod_poly_gcd(monic, _minus_x(h, ell), ell)) > 1:
            return False
    return True


def _taylor_shift(coeffs: Sequence, c) -> list:
    """Coefficients, low to high, of f(c + Y) from those of f(X)."""
    out = list(coeffs)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return out


def _split_at(g, a, ell):
    """Split a monic product g of distinct linear factors over F_ell, ell
    odd, by the quadratic character of Y + a: the parts hold the roots y
    with y + a zero, a square, and a non-square.  A part without roots is
    the constant 1, which _roots_mod drops."""
    ga = [c % ell for c in _taylor_shift(g, -a)]        # ga(Z) = g(Z - a)
    w = _x_power_mod(ga, (ell - 1) // 2, ell)
    parts = [_mod_poly_gcd(ga, [0, 1], ell),
             _mod_poly_gcd(ga, [(w[0] - 1) % ell] + w[1:], ell),
             _mod_poly_gcd(ga, [(w[0] + 1) % ell] + w[1:], ell)]
    return [[c % ell for c in _taylor_shift(u, a)] for u in parts]


def _roots_mod(f: Sequence[int], ell: int) -> list[int]:
    """The distinct roots in F_ell of f, ascending; f is nonzero mod ell.

    When ell <= deg f + 1 every residue is tried.  Otherwise the roots are
    those of g = gcd(f, Y^ell - Y), found by repeated squaring, and g is
    split by _split_at with a = 0, 1, ...: at a = -y the factor Y - y
    splits off, so the loop ends before a reaches ell.
    """
    monic = _monic_mod(f, ell)
    d = len(monic) - 1
    if d < 1:
        return []
    if ell <= d + 1:
        return [j for j in range(ell) if _horner(monic, j) % ell == 0]
    pending = [_mod_poly_gcd(monic, _minus_x(_x_power_mod(monic, ell, ell), ell),
                             ell)]
    roots, a = [], 0
    while pending:
        roots += [(-g[0]) % ell for g in pending if len(g) == 2]
        pending = [part for g in pending if len(g) > 2
                   for part in _split_at(g, a, ell)]
        a += 1
    return sorted(roots)


@dataclass(frozen=True)
class IrreduciblePoly:
    """A primitive integer polynomial with an irreducibility certificate."""

    coeffs: tuple[int, ...]
    certificate: CertificateKind
    witness_prime: Optional[int] = None

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise PreconditionError("irreducible polynomials are nonconstant")
        if self.coeffs[-1] == 0:
            raise PreconditionError("leading coefficient must be nonzero")

    @classmethod
    def certify(cls, poly: RatPoly, config: Config = DEFAULT_CONFIG) -> "IrreduciblePoly":
        """Prove irreducibility over Q, or raise.

        Degree 1 is immediate; degrees 2 and 3 reduce to the rational root
        test, decided exactly by _has_rational_root.  Higher degrees take
        as witness the least prime up to config.prime_scan_bound that does
        not divide the leading coefficient and modulo which the reduction
        is irreducible, by _irreducible_mod.
        """
        coeffs = _primitive_part(poly, config)
        d = len(coeffs) - 1
        if d == 1:
            return cls(coeffs, CertificateKind.DEGREE_ONE)
        if d <= 3:
            if _has_rational_root(coeffs):
                raise PreconditionError(f"{poly} has a rational root")
            return cls(coeffs, CertificateKind.NO_RATIONAL_ROOT)
        for ell in iter_primes(config.prime_scan_bound):
            if coeffs[-1] % ell and _irreducible_mod(coeffs, ell):
                return cls(coeffs, CertificateKind.MOD_P_WITNESS, ell)
        raise PreconditionError(
            f"no irreducibility witness up to the prime scan bound "
            f"(prime_scan_bound = {config.prime_scan_bound}) for {poly}; "
            "use assert_irreducible if irreducibility is known")

    @classmethod
    def assert_irreducible(cls, poly: RatPoly,
                           config: Config = DEFAULT_CONFIG) -> "IrreduciblePoly":
        """Trust the caller on irreducibility; squarefreeness is still
        verified, modulo the prime that squarefree_prime finds."""
        q = cls(_primitive_part(poly, config), CertificateKind.CALLER_ASSERTED)
        if q.squarefree_prime is None:
            raise PreconditionError(f"{poly} is not squarefree")
        return q

    def as_ratpoly(self) -> RatPoly:
        return RatPoly(self.coeffs)

    @cached_property
    def squarefree_prime(self) -> Optional[int]:
        """The least prime ell not dividing the leading coefficient modulo
        which q and q' are coprime; None when q is not squarefree.

        Such an ell proves Res(q, q') != 0.  Each prime ell not dividing
        the leading coefficient modulo which q and q' share a factor
        divides Res(q, q'), also when q' loses degree mod ell; so once the
        product of those primes passes Hadamard's bound on |Res(q, q')|,
        the resultant is 0 (von zur Gathen and Gerhard, Modern Computer
        Algebra, ch. 6).
        """
        failed = 1
        for ell in iter_primes():
            if self.coeffs[-1] % ell == 0:
                continue
            if len(_mod_poly_gcd(self.coeffs, self.derivative_coeffs, ell)) == 1:
                return ell
            failed *= ell
            if failed >> self._hadamard_bits:
                return None
        raise InvariantError("the primes ran out")

    @cached_property
    def _hadamard_bits(self) -> int:
        """An h with |Res(q, q')| < 2^h: Hadamard's bound reads
        |Res|^2 <= |q|_2^(2(d-1)) * |q'|_2^(2d), and each squared norm is
        below 2 to the power of its bit length."""
        d = self.degree
        norm = sum(c * c for c in self.coeffs).bit_length()
        dnorm = sum(c * c for c in self.derivative_coeffs).bit_length()
        return ((d - 1) * norm + d * dnorm + 1) // 2

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def rational_root(self) -> Optional[Fraction]:
        """The only rational root an irreducible polynomial can have:
        -a0/a1 at degree 1, none above."""
        if self.degree != 1:
            return None
        return Fraction(-self.coeffs[0], self.coeffs[1])

    @cached_property
    def derivative_coeffs(self) -> tuple[int, ...]:
        return self.as_ratpoly().derivative().coeffs

    def eval_at(self, x: Rat) -> Fraction:
        return _horner(self.coeffs, Fraction(x))

    def eval_int(self, x: int) -> int:
        return _horner(self.coeffs, x)

    def __str__(self):
        return str(RatPoly(self.coeffs))


def _primitive_part(poly: RatPoly, config: Config) -> tuple[int, ...]:
    if poly.is_zero() or poly.degree < 1:
        raise PreconditionError("expected a nonconstant polynomial")
    charge(config, "degree_cap", poly.degree, "as a degree")
    coeffs = poly.coeffs                # content already stripped vs denominator
    content = math.gcd(*coeffs)
    coeffs = [c // content for c in coeffs]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# root certificates and the residue-lifting tree
# ---------------------------------------------------------------------------

class RootKind(Enum):
    EXACT_RATIONAL = "exact-rational"
    HENSEL = "hensel"


@dataclass(frozen=True)
class RootCertificate:
    """A certified root location of q inside a ball.

    For HENSEL certificates the inequalities q_val >= depth + dq_val and
    dq_val < depth at the recorded center force a unique root in the ball
    (Newton iteration from the center converges and stays inside).  For
    EXACT_RATIONAL certificates the root itself is stored.
    """

    kind: RootKind
    ball: Ball
    center: int
    q_val: Valuation                    # vp(q(center)); INFINITY for exact roots
    dq_val: int                         # vp(q'(center))
    value: Optional[Fraction] = None

    def revalidate(self, q: IrreduciblePoly) -> bool:
        p = self.ball.p
        if self.kind is RootKind.EXACT_RATIONAL:
            return (self.value is not None
                    and q.eval_at(self.value) == 0
                    and self.ball.contains(self.value))
        # Newton criterion at the recorded center, relative to the ball depth
        tv = vp(q.eval_int(self.center), p)
        sv = vp(_horner(q.derivative_coeffs, self.center), p)
        return (tv == self.q_val and sv == self.dq_val
                and sv < self.ball.depth and tv >= self.ball.depth + sv)


def _tree_events(q: IrreduciblePoly, ball: Ball, config: Config):
    """Walk the residue classes of q inside the ball, yielding (r, m, t, s)
    for each class r mod p^m that ends the walk.

    s is None for a dead class: vp(q(x)) = t for every x in it, where t
    may be >= m.  Otherwise t = vp(q(r)), s = vp(q'(r)), and the Newton
    criterion s < m, t >= m + s holds, so q has exactly one root in the
    class; t is INFINITY when r itself is that root.

    A class that is neither splits through h(Y) = q(r + p^m*Y).  With v the
    least valuation of the coefficients of h and g = (h / p^v) mod p,
    vp(q) = v on every child r + j*p^m with g(j) != 0, and vp(q) >= v + 1
    on every child with g(j) = 0.  So the walk goes on only at the roots
    of g, at most deg q of them; the other children cannot raise the
    supremum and are not reported, and when g has no root the class
    itself is dead with t = v.  Each level costs O(deg q) classes and
    O(log p) polynomial products mod p, whatever the size of p.
    Termination relies on q squarefree: no r is a root of both q and q',
    and the depth stays below 2*vp(Res(q, q'), p) + 8 past the ball's.
    The cap bounds that valuation by B = h / (bitlen(p) - 1) >= log_p of
    2^h, with h from Hadamard's bound, so no resultant is computed.
    """
    p = ball.p
    if q.squarefree_prime is None:
        raise PreconditionError(f"{q} is not squarefree")
    depth_cap = ball.depth + 2 * (q._hadamard_bits // (p.bit_length() - 1)) + 8
    dq = q.derivative_coeffs
    stack = [(ball.center, ball.depth)]
    visited = 0
    while stack:
        r, m = stack.pop()
        visited += 1
        charge(config, "residue_cap", visited, "root-scan classes")
        t = vp(q.eval_int(r), p)
        s = vp(_horner(dq, r), p)
        if s < m and t >= m + s:
            yield r, m, t, s
            continue
        if m >= depth_cap:
            # no squarefree q gets here: every class ends within
            # 2*vp(Res(q, q'), p) + 8 levels of the ball, and B bounds
            # vp(Res); the check only keeps a broken bound from looping
            raise InvariantError(
                f"root scan passed depth {depth_cap} at class {r} mod {p}^{m}")
        # h_i = p^(m*i) * c_i with c_i the Taylor coefficients of q at r
        taylor = _taylor_shift(q.coeffs, r)
        vals = [vp(c, p) + m * i for i, c in enumerate(taylor)]
        v = min(vals)
        hbar = [taylor[i] // p ** (v - m * i) % p if vals[i] == v else 0
                for i in range(len(taylor))]
        roots = _roots_mod(hbar, p)
        if not roots:
            yield r, m, v, None
            continue
        base = p ** m
        stack.extend((r + j * base, m + 1) for j in roots)


def roots_in_set(q: IrreduciblePoly, s: PAdicSet,
                 config: Config = DEFAULT_CONFIG) -> tuple[RootCertificate, ...]:
    """Every root of q inside the set, each with a checkable certificate.

    At degree 1 the root -a0/a1 is rational and counts when it is a
    member; its ball is the deeper of vp(a1) + 1, where Hensel's bound
    isolates it, and the canonical ball that holds it.  Above degree 1
    irreducibility leaves no rational root, so points, sequence elements
    and limits hold none and the residue-lifting tree over the balls
    certifies each root.  The returned list is complete.
    """
    p = s.p
    s = canonicalize(s)
    if q.degree == 1:
        root = q.rational_root()
        if vp(root, p) < 0 or not member(root, s):
            return ()
        sv = vp(q.coeffs[1], p)
        held = next((b for b in s.balls if b.contains(root)), None)
        ball = Ball(p, root, sv + 1 if held is None else max(sv + 1, held.depth))
        return (RootCertificate(RootKind.EXACT_RATIONAL, ball, ball.center,
                                vp(q.eval_int(ball.center), p), sv, root),)
    certs = [RootCertificate(RootKind.HENSEL, Ball(p, r, m), r, tv, sv)
             for ball in s.balls
             for r, m, tv, sv in _tree_events(q, ball, config)
             if sv is not None]
    certs.sort(key=lambda c: (c.ball.depth, c.ball.center))
    return tuple(certs)


# ---------------------------------------------------------------------------
# exact maximum valuation over a set
# ---------------------------------------------------------------------------

def max_valuation_witness(q: IrreduciblePoly, s: PAdicSet,
                          config: Config = DEFAULT_CONFIG):
    """(sup of vp(q(x)) over x in s, witness attaining it).

    The supremum is INFINITY exactly when q has a root in the closure of
    the set: at a point, a sequence element or limit, or in a ball, where
    the root tree meets it.  Then the witness is None.  Otherwise the
    supremum is finite, attained, and returned with an attaining element.
    """
    p = s.p
    s = canonicalize(s)
    if s.is_empty():
        raise PreconditionError("maximum valuation over the empty set")
    best: Optional[int] = None
    witness: Optional[Fraction] = None

    def consider(val: int, x: Fraction):
        nonlocal best, witness
        if best is None or val > best:
            best, witness = val, x

    for x in s.points:
        v = vp(q.eval_at(x), p)
        if not is_finite(v):
            return INFINITY, None
        consider(v, x)
    for seq in s.seqs:
        v0 = vp(q.eval_at(seq.limit), p)
        if not is_finite(v0):
            return INFINITY, None       # q(limit) = 0
        # q has integer coefficients and the limit is p-integral, so
        # vp(q(x) - q(limit)) >= vp(x - limit): every element from the
        # exponent v0 + 1 on has valuation v0
        settled = max(seq.head, v0 + 1) - seq.valuation
        consider(v0, seq.element(settled))
        for n in range(seq.start, settled):
            x = seq.element(n)
            v = vp(q.eval_at(x), p)
            if not is_finite(v):
                return INFINITY, None
            consider(v, x)
    for ball in s.balls:
        for r, _, t, sv in _tree_events(q, ball, config):
            if sv is not None:
                return INFINITY, None
            consider(t, Fraction(r))
    if best is None:
        raise InvariantError("maximum valuation over no component")
    return best, witness


def max_valuation(q: IrreduciblePoly, s: PAdicSet,
                  config: Config = DEFAULT_CONFIG) -> Valuation:
    """sup of vp(q(x)) over the set; INFINITY iff q has a root there."""
    return max_valuation_witness(q, s, config)[0]
