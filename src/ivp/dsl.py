"""Text forms for sets, polynomials, integer sets, rings and
representations.

The set grammar is a |-separated union of components:

    ball(2; 5, 3)              5 + 8 Z_2
    pts(3; 1/2, 7)             explicit points
    seq(2; 0, 1, 0, +lim)      {0 + 1*2^n : n >= 0} with its limit
    full(5)  empty(5)          everything / nothing
    units+p(3)                 the units together with 3 itself
    power(5; 2)                the single point 25

The last three are the tail rules full, empty, units+p and power(k) at p.

Polynomials use ordinary expression syntax over X, e.g. (X^2 - X)/2.
Integer sets read like "Z \\ (65 mod 72) U {9}" or "{2, 3, 5}".  Rings
and representations are small JSON objects whose leaves use the grammars
above; parse_ring accepts either the JSON text itself or @path to a file.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from fractions import Fraction

from . import adelic, overrings, padic, polys
from .config import DEFAULT_CONFIG, Config
from .errors import PreconditionError, charge
from .exact import Congruence, check_printable

__all__ = [
    "parse_int", "parse_rational", "parse_set", "parse_poly",
    "parse_irreducible", "parse_intset", "parse_rule", "parse_candidate",
    "parse_family", "parse_ring", "format_ring", "parse_representation",
    "format_representation",
]


class ParseError(PreconditionError):
    pass


_ECHO = 40


def _echo(field) -> str:
    """repr(field) for an error line; a field longer than _ECHO characters
    is cut there and marked with "...", so a long field gives a short line."""
    text = str(field)
    if len(text) <= _ECHO:
        return repr(field)
    cut = text[:_ECHO]
    return f"{cut!r}..." if isinstance(field, str) else f"{cut}..."


def _check_digits(text: str, what: str) -> None:
    """Reject a number longer than sys.get_int_max_str_digits(), naming
    the field and the limit but never echoing the digits."""
    limit = sys.get_int_max_str_digits()
    if limit and any(len(run) > limit
                     for run in re.findall(r"[0-9]+", text.replace("_", ""))):
        raise ParseError(f"{what} has more than {limit} digits, the limit "
                         "on reading integers")


def parse_int(text, what: str) -> int:
    """Read the decimal integer field `what` (a ring's JSON may give a
    prime as a number); every refusal is a ParseError naming the field.
    The digits are ASCII ones: int() would also read other scripts'."""
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        raise ParseError(f"{what} must be an integer")
    _check_digits(str(text), what)
    try:
        if str(text).isascii():
            return int(text)
    except ValueError:
        pass
    raise ParseError(f"invalid int {what}: {_echo(text)}")


def parse_rational(text: str, what: str = "rational") -> Fraction:
    """`n` or `n/d`, each part read by parse_int: no point or exponent."""
    numerator, slash, denominator = text.partition("/")
    n = parse_int(numerator, what)
    d = parse_int(denominator, what) if slash else 1
    if d == 0:
        raise ParseError(f"{what} {_echo(text)} has a zero denominator")
    return Fraction(n, d)


# ---------------------------------------------------------------------------
# p-adic sets
# ---------------------------------------------------------------------------

# the set each plain tail rule of the same name prescribes at p
_PLAIN_SETS = {
    "full": lambda p, config: padic.full_set(p),
    "empty": lambda p, config: padic.empty_set(p),
    "units+p": padic.units_and_self_set,
}
_COMPONENT = re.compile(r"^\s*([a-z+]+)\s*\((.*)\)\s*$", re.DOTALL)


def _args(body: str) -> list[str]:
    parts = [a.strip() for a in body.replace(";", ",").split(",")]
    return [a for a in parts if a]


def parse_set(text: str, config: Config = DEFAULT_CONFIG) -> padic.PAdicSet:
    balls, points, seqs = [], [], []
    prime = None
    for chunk in text.split("|"):
        m = _COMPONENT.match(chunk)
        if not m:
            raise ParseError(f"bad set component {_echo(chunk)}")
        name, args = m.group(1), _args(m.group(2))
        if not args:
            raise ParseError(f"component {name} needs a prime")
        p = parse_int(args[0], "prime")
        if prime is None:
            prime = p
        elif prime != p:
            raise ParseError(f"mixed primes {prime} and {p} in one set")
        rest = args[1:]
        if name == "ball":
            if len(rest) != 2:
                raise ParseError("ball takes (p; center, depth)")
            depth = parse_int(rest[1], "ball depth")
            check_printable(1, p, depth, "ball modulus ", ParseError)
            balls.append(padic.Ball(p, parse_rational(rest[0], "ball center"),
                                    depth))
        elif name == "pts":
            points.extend(parse_rational(a, "point") for a in rest)
        elif name == "seq":
            if len(rest) != 4 or rest[3] not in ("+lim", "-lim"):
                raise ParseError(
                    "seq takes (p; limit, scale, start, +lim|-lim)")
            limit = parse_rational(rest[0], "sequence limit")
            scale = parse_rational(rest[1], "sequence scale")
            start = parse_int(rest[2], "sequence start")
            check_printable(scale, p, start, f"sequence scale {scale}*",
                            ParseError)
            seqs.append(padic.SeqWithLimit(p, limit, scale, start,
                                           rest[3] == "+lim"))
        elif name in _PLAIN_SETS:
            if rest:
                raise ParseError(f"{name} takes (p)")
            part = _PLAIN_SETS[name](p, config)
            balls.extend(part.balls)
            points.extend(part.points)
        elif name == "power":
            if len(rest) != 1:
                raise ParseError("power takes (p; exponent)")
            exponent = parse_int(rest[0], "power exponent")
            points.extend(padic.power_set(p, exponent).points)
        else:
            raise ParseError(f"unknown set component {_echo(name)}")
    return padic.PAdicSet(prime, balls, points, seqs)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def parse_poly(text: str, config: Config = DEFAULT_CONFIG) -> polys.RatPoly:
    """Read a polynomial in X from ordinary expression syntax.

    Python's own parser builds the tree ("^" is read as "**"); the walk
    accepts decimal integers, X or x, unary + and -, +, -, *, division by
    a nonzero constant and powers with a literal exponent.  It charges
    the degree of every product and power to config.degree_cap before
    computing it.
    """
    _check_digits(text, "polynomial literal")
    source = text.replace("^", "**").strip()
    try:
        return _poly_of(ast.parse(source, mode="eval").body, source, config)
    except SyntaxError as exc:
        raise ParseError(f"bad polynomial {_echo(text)}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"polynomial nested too deeply: {_echo(text)}") from None


def _literal(node, source: str) -> int | None:
    """The value of a decimal integer literal such as 12, else None
    (rejects True, 1_000, 0x10 and floats)."""
    if (isinstance(node, ast.Constant) and type(node.value) is int
            and ast.get_source_segment(source, node).isdigit()):
        return node.value
    return None


def _poly_of(node, source: str, config: Config) -> polys.RatPoly:
    if isinstance(node, ast.Name) and node.id in ("X", "x"):
        return polys.RatPoly.x()
    value = _literal(node, source)
    if value is not None:
        return polys.RatPoly.constant(value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        f = _poly_of(node.operand, source, config)
        return -f if isinstance(node.op, ast.USub) else f
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exponent = _literal(node.right, source)
        if exponent is None:
            raise ParseError("exponent must be a literal integer")
        base = _poly_of(node.left, source, config)
        charge(config, "degree_cap", base.degree * exponent, "as a degree")
        if base.degree == 0:
            # the degree charge sees 0: hold the constant's height instead
            c = base.eval_at(0)
            check_printable(1, max(abs(c.numerator), c.denominator), exponent,
                            "height of the constant power ", ParseError)
        return base ** exponent
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        left = _poly_of(node.left, source, config)
        right = _poly_of(node.right, source, config)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            charge(config, "degree_cap", left.degree + right.degree, "as a degree")
            return left * right
        if right.degree != 0:
            raise ParseError("division only by nonzero constants")
        return left * polys.RatPoly.constant(1 / right.eval_at(0))
    raise ParseError(
        f"unexpected {_echo(ast.get_source_segment(source, node))} in polynomial")


def parse_irreducible(text: str,
                      config: Config = DEFAULT_CONFIG) -> polys.IrreduciblePoly:
    return polys.IrreduciblePoly.certify(parse_poly(text, config), config)


# ---------------------------------------------------------------------------
# integer sets
# ---------------------------------------------------------------------------

_BRACES = re.compile(r"^\{([^}]*)\}")
_EXCLUDE = re.compile(r"^\\\s*\(\s*(-?[0-9]+)\s+mod\s+([0-9]+)\s*\)")


def parse_intset(text: str) -> adelic.IntegerSet:
    rest = text.strip()
    base = None
    if rest.startswith("Z"):
        rest = rest[1:].lstrip()
    else:
        m = _BRACES.match(rest)
        if not m:
            raise ParseError(
                f"integer set must start with Z or {{...}}: {_echo(text)}")
        base = _int_list(m.group(1))
        rest = rest[m.end():].lstrip()
    excluded = []
    while rest.startswith("\\"):
        m = _EXCLUDE.match(rest)
        if not m:
            raise ParseError(f"bad exclusion near {_echo(rest)}")
        excluded.append(Congruence(parse_int(m.group(1), "residue"),
                                   parse_int(m.group(2), "modulus")))
        rest = rest[m.end():].lstrip()
    extra: tuple[int, ...] = ()
    if rest.startswith("U"):
        rest = rest[1:].lstrip()
        m = _BRACES.match(rest)
        if not m:
            raise ParseError(f"expected {{...}} after U in {_echo(text)}")
        extra = _int_list(m.group(1))
        rest = rest[m.end():].lstrip()
    if rest:
        raise ParseError(f"trailing input in integer set: {_echo(rest)}")
    return adelic.IntegerSet(base=base, excluded=tuple(excluded), extra=extra)


def _int_list(body: str) -> tuple[int, ...]:
    body = body.strip()
    if not body:
        return ()
    return tuple(parse_int(x, "element") for x in body.split(","))


# ---------------------------------------------------------------------------
# default rules
# ---------------------------------------------------------------------------

_RULE = re.compile(r"^\s*([a-z+]+)\s*(?:\((.*)\))?\s*$", re.DOTALL)


def parse_rule(text: str) -> overrings.DefaultRule:
    m = _RULE.match(text)
    if not m:
        raise ParseError(f"bad rule {_echo(text)}")
    name, body = m.group(1), m.group(2)
    if name in _PLAIN_SETS and body is None:
        return {"full": overrings.FULL_RULE, "empty": overrings.EMPTY_RULE,
                "units+p": overrings.UNITS_AND_SELF_RULE}[name]
    if name == "power" and body is not None:
        return overrings.single_power_rule(parse_int(body, "rule exponent"))
    if name == "intset" and body is not None:
        return overrings.integer_set_rule(parse_intset(body))
    raise ParseError(f"unknown rule {_echo(text)}")


# ---------------------------------------------------------------------------
# adelic candidates and per-prime families
# ---------------------------------------------------------------------------

def _unique(pairs, what: str) -> dict:
    """The (key, value) pairs as a dict: the primes of a family or window,
    or the keys of a JSON object.  A key given twice is an error, never a
    silent overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"{what} {_echo(key)} given twice")
        out[key] = value
    return out


def _split_outside_parens(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _prime_entries(text: str, noun: str, shape: str, read) -> dict:
    """The ;-separated "p: value" entries of a candidate or a family, as
    {p: read(value)}.  Entries split outside parentheses, so a set's own
    separators stay inside it; an empty text or a prime given twice is an
    error."""
    entries = []
    for part in _split_outside_parens(text, ";"):
        part = part.strip()
        if not part:
            continue
        p_txt, _, value = part.partition(":")
        if not value:
            raise ParseError(
                f"{noun} entries look like 'p: {shape}': {_echo(part)}")
        entries.append((parse_int(p_txt, f"{noun} prime"), read(value)))
    out = _unique(entries, f"{noun} prime")
    if not out:
        raise ParseError(f"empty {noun}")
    return out


def parse_candidate(text: str) -> adelic.AdelicCandidate:
    """"2: 65, 3: 65" -> the candidate with those coordinates."""
    return adelic.AdelicCandidate.of(_prime_entries(
        text.replace(",", ";"), "candidate", "value",
        lambda value: parse_rational(value, "candidate value")))


def parse_family(text: str,
                 config: Config = DEFAULT_CONFIG) -> dict[int, padic.PAdicSet]:
    """"2: full(2); 3: pts(3; 9)" -> per-prime sets.  Whether each set
    lives at its key's prime is left to the consumer: witness and
    globalize both check it."""
    return _prime_entries(text, "family", "set",
                          lambda body: parse_set(body, config))


# ---------------------------------------------------------------------------
# rings and representations (JSON with DSL leaves)
# ---------------------------------------------------------------------------

def _json_int(digits: str) -> int:
    # every JSON number is read through parse_int: an over-long one is
    # named, never echoed, and never reaches the interpreter's own error
    return parse_int(digits, "ring JSON number")


def _load_json(text_or_obj, what: str) -> dict:
    if isinstance(text_or_obj, dict):
        return text_or_obj
    text = text_or_obj.strip()
    read = {"parse_int": _json_int,
            "object_pairs_hook": lambda pairs: _unique(pairs, "JSON key")}
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                obj = json.load(fh, **read)
        else:
            obj = json.loads(text, **read)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{what} JSON must be an object")
    return obj


_JSON_TYPES = {str: "a string", list: "a list", bool: "true or false"}


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def _parse_prime_sets(entries, what: str,
                      config: Config) -> dict[int, padic.PAdicSet]:
    """Accept either a mapping {"2": "full(2)"} or a list of
    {"p": 2, "set": "full(2)"} objects (the list is what format_ring
    emits, the mapping is the convenient hand-written form)."""
    if isinstance(entries, dict):
        entries = [{"p": k, "set": v} for k, v in entries.items()]
    elif not (isinstance(entries, list) and all(
            isinstance(e, dict) and e.keys() == {"p", "set"}
            for e in entries)):
        raise ParseError(f'{what} must be a mapping from primes to sets or'
                         ' a list of {"p", "set"} objects')
    return _unique(((parse_int(e["p"], "ring prime"),
                     parse_set(_typed(e["set"], str, f"{what} set"), config))
                    for e in entries), f"{what} prime")


def parse_ring(text_or_obj,
               config: Config = DEFAULT_CONFIG) -> overrings.RingSpec:
    obj = _load_json(text_or_obj, "ring")
    unknown = set(obj) - {"exceptional", "default"}
    if unknown:
        raise ParseError(f"unknown ring keys {sorted(unknown)}")
    return overrings.RingSpec(
        _parse_prime_sets(obj.get("exceptional", {}), "exceptional", config),
        parse_rule(_typed(obj.get("default", "full"), str, "default")), config)


def format_ring(r: overrings.RingSpec) -> dict:
    return {
        "exceptional": [{"p": p, "set": str(s)}
                        for p, s in r.exceptional],
        "default": str(r.default),
    }


def parse_representation(
        text_or_obj,
        config: Config = DEFAULT_CONFIG) -> overrings.Representation:
    obj = _load_json(text_or_obj, "representation")
    unknown = set(obj) - {"unitary", "default", "nonunitary", "all_min"}
    if unknown:
        raise ParseError(f"unknown representation keys {sorted(unknown)}")
    nonunitary = [
        parse_irreducible(_typed(q, str, "nonunitary polynomial"), config)
        for q in _typed(obj.get("nonunitary", []), list, "nonunitary")]
    return overrings.Representation(
        _parse_prime_sets(obj.get("unitary", {}), "unitary", config),
        parse_rule(_typed(obj.get("default", "full"), str, "default")),
        nonunitary=nonunitary,
        all_min=_typed(obj.get("all_min", False), bool, "all_min"),
        config=config)


def format_representation(rep: overrings.Representation) -> dict:
    return {
        "unitary": [{"p": p, "set": str(s)} for p, s in rep.unitary],
        "default": str(rep.default),
        "nonunitary": [str(q) for q in rep.nonunitary],
        "all_min": rep.all_min,
    }
