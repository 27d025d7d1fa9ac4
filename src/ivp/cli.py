"""Command-line front end.

Every query subcommand prints a human-readable answer (or JSON with
--json) and exits 0 for a definite result, 2 for an honest unknown, and
1 for errors including violated preconditions.

Each flag is read once, by the dsl reader or argparse type declared with
it in build_parser; main applies the readers in declaration order once the
Config is built, so every handler gets parsed values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from . import (adelic, config, dsl, errors, exact, membership, overrings,
               padic, polys)


def _bool_result(flag: bool, **extra):
    return 0, {"answer": bool(flag), **extra}, ["yes" if flag else "no"]


def _tristate_result(ts: overrings.TriState, **extra):
    code = 2 if ts.is_unknown else 0
    payload = {"answer": ts.decision.value, "reason": ts.reason, **extra}
    lines = [str(ts)]
    if ts.payload is not None:
        payload["witness"] = str(ts.payload)
        lines.append(f"witness: {ts.payload}")
    return code, payload, lines


# ---------------------------------------------------------------------------
# handlers: each gets its flags already read (see build_parser)
# ---------------------------------------------------------------------------

def _cmd_member(args):
    return _bool_result(padic.member(args.x, args.set))


def _cmd_closure(args):
    s = padic.closure(args.set)
    return 0, {"closure": str(s)}, [str(s)]


def _cmd_subset(args):
    return _bool_result(padic.is_subset(args.a, args.b))


def _cmd_dense(args):
    return _bool_result(padic.is_dense_in(args.e, args.f))


def _cmd_isolated(args):
    iso = padic.isolated_points(args.set)
    payload = {
        "explicit": [str(x) for x in iso.explicit],
        "tails": [{"seq": str(t.seq), "from": t.from_n} for t in iso.tails],
    }
    lines = [f"explicit: {', '.join(map(str, iso.explicit)) or '(none)'}"]
    for t in iso.tails:
        lines.append(f"tail: {t.seq} from n={t.from_n}")
    return 0, payload, lines


def _cmd_roots(args):
    certs = polys.roots_in_set(args.poly, args.set, args.config)
    payload = {"count": len(certs), "certificates": []}
    lines = [f"{len(certs)} root(s)"]
    for c in certs:
        entry = {"kind": c.kind.value, "ball": str(c.ball)}
        if c.value is not None:
            entry["value"] = str(c.value)
        payload["certificates"].append(entry)
        lines.append(f"  {c.kind.value} in {c.ball}"
                     + (f" value {c.value}" if c.value is not None else ""))
    return 0, payload, lines


def _cmd_maxval(args):
    value, witness = polys.max_valuation_witness(args.poly, args.set,
                                                 args.config)
    if not exact.is_finite(value):
        return 0, {"value": "infinity"}, ["infinity (root in the closure)"]
    payload = {"value": value}
    lines = [str(value)]
    if witness is not None:
        payload["witness"] = str(witness)
        lines.append(f"attained at {witness}")
    return 0, payload, lines


def _cmd_intval(args):
    return _bool_result(membership.is_integer_valued(args.poly, args.set))


def _cmd_witness(args):
    w = membership.witness_rational_function(args.poly, args.family, args.config)
    payload = {"witness": str(w),
               "exponents": {str(p): e for p, e in w.exponents}}
    return 0, payload, [str(w)]


def _cmd_separate(args):
    f = membership.separating_polynomial(args.set, args.alpha, args.config)
    return 0, {"polynomial": str(f)}, [str(f)]


def _cmd_ring_eq(args):
    return _tristate_result(overrings.ring_equal(args.r1, args.r2, args.config))


def _cmd_ring_contains(args):
    return _tristate_result(overrings.ring_contains(args.r1, args.r2, args.config))


def _cmd_ring_of(args):
    res = overrings.ring_of(args.rep, args.config)
    payload = {"ring": dsl.format_ring(res.spec),
               "polynomial": res.polynomial.decision.value,
               "reason": res.polynomial.reason}
    lines = [json.dumps(dsl.format_ring(res.spec)),
             f"polynomial: {res.polynomial}"]
    if res.escape is not None:
        payload["escape"] = str(res.escape)
        lines.append(f"escape: {res.escape}")
    return 0, payload, lines


def _cmd_rep_eq(args):
    return _tristate_result(
        overrings.representation_equals(args.rep, args.ring, args.config))


def _cmd_unitary_contains(args):
    return _bool_result(overrings.unitary_contains(
        args.rep, args.p, args.alpha, args.config))


def _cmd_nonunitary_contains(args):
    return _tristate_result(
        overrings.nonunitary_contains(args.rep, args.poly, args.config))


def _cmd_superfluous(args):
    if args.poly is not None:
        return _tristate_result(overrings.superfluous_nonunitary(
            args.rep, args.poly, args.config))
    if args.p is None or args.alpha is None:
        raise errors.IvpError(
            "superfluous needs either --poly or both --p and --alpha")
    return _bool_result(overrings.superfluous_unitary(
        args.rep, args.p, args.alpha, args.config))


def _cmd_min_ext(args):
    ext = overrings.minimal_extensions(args.ring, args.p, args.config)
    payload = {
        "explicit": [{"value": str(x), "ring": dsl.format_ring(r)}
                     for x, r in ext.explicit],
        "families": [{"seq": str(f.seq), "from": f.from_n}
                     for f in ext.families],
    }
    lines = [f"count: {ext.count_description()}"]
    for x, _ in ext.explicit:
        lines.append(f"  drop {x}")
    for f in ext.families:
        lines.append(f"  drop any element of {f.seq} from n={f.from_n}")
    return 0, payload, lines


def _cmd_irredundant(args):
    return _tristate_result(
        overrings.has_irredundant_representation(args.ring, args.config))


def _cmd_localize(args):
    local = overrings.localize(args.ring, args.p, args.config)
    return 0, {"ring": dsl.format_ring(local)}, [json.dumps(dsl.format_ring(local))]


def _cmd_globalize(args):
    ring = overrings.globalize(args.family, args.default, args.config)
    return 0, {"ring": dsl.format_ring(ring)}, [json.dumps(dsl.format_ring(ring))]


def _cmd_simple(args):
    ts, witness = overrings.is_simple_integer_set_ring(args.ring, args.config)
    extra = {}
    if witness is not None:
        extra["set"] = witness.description
    code, payload, lines = _tristate_result(ts, **extra)
    if witness is not None:
        lines.append(f"set: {witness.description}")
    return code, payload, lines


def _cmd_adele_prod(args):
    return _bool_result(adelic.product_closure_member(
        args.intset, args.candidate, args.config))


def _cmd_adele_hat(args):
    return _bool_result(adelic.adelic_closure_member(
        args.intset, args.candidate, args.config))


def _cmd_adele_diff(args):
    w = adelic.closures_differ(args.intset, args.config)
    if w is None:
        return 0, {"differ": False}, ["closures agree on all canonical candidates"]
    return 0, {"differ": True, "candidate": str(w)}, [f"candidate: {w}"]


def _cmd_selftest(args):
    config, checks = args.config, 0

    def check(holds: bool, what: str) -> None:
        if not holds:
            raise errors.InvariantError(f"selftest failed: {what}")

    s = dsl.parse_set("seq(2; 0, 1, 0, -lim)", config)
    check(not padic.member(Fraction(0), s)
          and padic.member(Fraction(0), padic.closure(s)),
          "0 is a limit point outside seq(2; 0, 1, 0, -lim)")
    checks += 1
    f = dsl.parse_poly("(X^2 - X)/2")
    check(membership.is_integer_valued(f, padic.full_set(2)),
          "(X^2 - X)/2 is integer valued on Z_2")
    checks += 1
    q = dsl.parse_irreducible("X^2 - 17", config)
    check(len(polys.roots_in_set(q, padic.full_set(2), config)) == 2,
          "X^2 - 17 has two roots in Z_2")
    check(not polys.roots_in_set(dsl.parse_irreducible("X^2 + 1", config),
                                 padic.full_set(2), config),
          "X^2 + 1 has no root in Z_2")
    checks += 1
    e = dsl.parse_intset("Z \\ (65 mod 72)")
    cand = dsl.parse_candidate("2: 65, 3: 65")
    check(adelic.product_closure_member(e, cand, config),
          "(65, 65) is in the product closure of Z \\ (65 mod 72)")
    check(not adelic.adelic_closure_member(e, cand, config),
          "(65, 65) is outside the adelic closure of Z \\ (65 mod 72)")
    checks += 1
    intz = overrings.RingSpec.integers()
    check(overrings.ring_contains(overrings.RingSpec.primes_ring(),
                                  intz, config).is_yes,
          "the primes ring contains Int(Z)")
    checks += 1
    return 0, {"checks": checks}, [f"selftest passed ({checks} checks)"]


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

_CAP_FLAGS = ("residue_cap", "degree_cap", "prime_scan_bound")


def _print_error(message: str) -> None:
    """An `error:` line cut past 1000 characters: refusals quote any field."""
    cut = message[:1000]
    print(f"error: {cut}{'...' if cut != message else ''}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # exit 1 on usage errors; 2 is reserved for honest unknowns
    def error(self, message):
        self.print_usage(sys.stderr)
        _print_error(message)
        raise SystemExit(1)


def _int_flag(text: str) -> int:
    """The type of the integer flags: dsl.parse_int, whose refusal argparse
    prints as it is, so an over-long value is named, never echoed."""
    try:
        return dsl.parse_int(text, "value")
    except dsl.ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--config", dest="config_path", metavar="PATH",
                        default=argparse.SUPPRESS,
                        help="key=value file overriding resource limits")
    for field in _CAP_FLAGS:
        common.add_argument("--" + field.replace("_", "-"), type=_int_flag,
                            default=argparse.SUPPRESS)

    parser = _Parser(
        prog="ivp",
        parents=[common],
        description="exact computations with p-adic value sets, their "
                    "integer-valued polynomials, and the associated rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **flags):
        # a flag given as a reader is required and read by it; one given as
        # a dict holds argparse keywords and perhaps a "read"
        p = sub.add_parser(name, help=help_text, parents=[common])
        readers = {}
        for dest, spec in flags.items():
            spec = dict(spec) if isinstance(spec, dict) else {
                "required": True, "read": spec}
            if "read" in spec:
                readers[dest] = spec.pop("read")
            p.add_argument(f"--{dest}", **spec)
        p.set_defaults(handler=handler, readers=readers)

    def plain(read):        # a reader that takes no Config
        return lambda text, _config: read(text)

    pset, irreducible = dsl.parse_set, dsl.parse_irreducible
    ring, rep = dsl.parse_ring, dsl.parse_representation
    rational, intset = plain(dsl.parse_rational), plain(dsl.parse_intset)
    candidate = plain(dsl.parse_candidate)
    prime = {"required": True, "type": _int_flag}
    add("member", _cmd_member, "is x in the set", set=pset, x=rational)
    add("closure", _cmd_closure, "canonical topological closure", set=pset)
    add("subset", _cmd_subset, "is a a subset of b", a=pset, b=pset)
    add("dense", _cmd_dense, "is e dense in f", e=pset, f=pset)
    add("isolated", _cmd_isolated, "isolated points of a closed set", set=pset)
    add("roots", _cmd_roots, "certified roots of q inside the set",
        poly=irreducible, set=pset)
    add("maxval", _cmd_maxval, "supremum of vp(q) over the set",
        poly=irreducible, set=pset)
    add("intval", _cmd_intval, "is f integer valued on the set",
        poly=dsl.parse_poly, set=pset)
    add("witness", _cmd_witness, "escape rational function for q and a family",
        poly=irreducible, family=dsl.parse_family)
    add("separate", _cmd_separate, "polynomial separating alpha from the set",
        set=pset, alpha=rational)
    add("ring-of", _cmd_ring_of, "ring described by a representation", rep=rep)
    add("ring-eq", _cmd_ring_eq, "are two rings equal", r1=ring, r2=ring)
    add("ring-contains", _cmd_ring_contains, "is r1 a superset of r2",
        r1=ring, r2=ring)
    add("rep-eq", _cmd_rep_eq, "does the representation describe the ring",
        rep=rep, ring=ring)
    add("unitary-contains", _cmd_unitary_contains,
        "is the valuation ring at (p, alpha) forced",
        rep=rep, p=prime, alpha=rational)
    add("nonunitary-contains", _cmd_nonunitary_contains,
        "is the valuation ring of q forced", rep=rep, poly=irreducible)
    add("superfluous", _cmd_superfluous, "can the factor be dropped", rep=rep,
        p={"type": _int_flag}, alpha={"read": rational},
        poly={"read": irreducible})
    add("min-ext", _cmd_min_ext, "minimal ring extensions at p",
        ring=ring, p=prime)
    add("irredundant", _cmd_irredundant,
        "does an irredundant representation exist", ring=ring)
    add("localize", _cmd_localize, "keep only the constraint at p",
        ring=ring, p=prime)
    add("globalize", _cmd_globalize, "assemble a ring from per-prime sets",
        family=dsl.parse_family,
        default={"default": "empty", "read": plain(dsl.parse_rule)})
    add("simple", _cmd_simple, "is the ring cut out by one set of integers",
        ring=ring)
    add("adele-prod", _cmd_adele_prod,
        "candidate in the product of per-prime closures",
        intset=intset, candidate=candidate)
    add("adele-hat", _cmd_adele_hat,
        "candidate in the restricted-product closure",
        intset=intset, candidate=candidate)
    add("adele-diff", _cmd_adele_diff, "do the two closures differ",
        intset=intset)
    add("selftest", _cmd_selftest, "quick internal consistency checks")
    return parser


def _build_config(args) -> config.Config:
    base = (config.load_config_file(args.config_path) if args.config_path
            else config.DEFAULT_CONFIG)
    return replace(base, **{key: value for key, value in vars(args).items()
                            if key in _CAP_FLAGS})


def main(argv=None) -> int:
    # the common flags default to SUPPRESS, so that a value given before the
    # subcommand survives the subparser pass; absent flags keep these
    defaults = argparse.Namespace(json=False, config_path=None)
    args = build_parser().parse_args(argv, namespace=defaults)
    try:
        args.config = _build_config(args)
        for dest, read in args.readers.items():
            if getattr(args, dest) is not None:
                setattr(args, dest, read(getattr(args, dest), args.config))
        code, payload, lines = args.handler(args)
    except (errors.IvpError, ValueError, OSError, MemoryError,
            RecursionError) as exc:
        _print_error(str(exc) or type(exc).__name__)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
