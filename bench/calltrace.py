"""Per-layer call tracing of ivp, installed from outside the program.

Tracer.install() wraps every public function of the eight layers, every
public method of their public classes and each class's constructor.  A
module that did ``from .exact import vp`` holds its own binding of the
name, so the wrapper is bound into every ivp module that refers to the
original object; methods are replaced on their class.  uninstall() puts
the originals back.

Every wrapped call pushes a frame on one stack.  On return its duration
is added to the parent frame's child time, and its self time is its
duration minus the time its wrapped children covered.  Calls of the hot
leaf functions below are only counted and summed per (name, caller);
every other call is also kept as a span (id, name, start, end, parent
id, self time) in memory, for write_spans() to dump once at the end.
"""

from __future__ import annotations

import enum
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("exact", "padic", "polys", "membership", "adelic", "overrings",
          "dsl", "cli")

# called up to millions of times per pass: aggregate instead of spans
HOT = frozenset({
    "exact.vp", "exact.is_finite", "exact.rational_mod", "exact.is_prime",
    "exact.check_prime_arg", "exact.Congruence.__init__",
    "exact.Congruence.contains", "exact.iter_primes",
    "padic.Ball.__init__", "padic.Ball.contains", "padic.Ball.contains_ball",
    "padic.member", "padic.SeqWithLimit.__init__", "padic.SeqWithLimit.element",
    "padic.SeqWithLimit.element_index", "padic.SeqWithLimit.contains",
    "padic.SeqWithLimit.normalized", "padic.PAdicSet.__init__",
    "padic.PAdicSet.is_empty", "padic.some_elements",
    "polys.RatPoly.__init__", "polys.RatPoly.eval_at",
    "polys.RatPoly.from_fractions", "polys.RatPoly.fraction_coeffs",
    "polys.RatPoly.coefficient", "polys.RatPoly.is_zero",
    "polys.IrreduciblePoly.__init__", "polys.IrreduciblePoly.eval_int",
    "polys.IrreduciblePoly.eval_at", "polys.IrreduciblePoly.as_ratpoly",
    "adelic.IntegerSet.contains", "adelic.AdelicCandidate.__init__",
})


class Tracer:
    def __init__(self):
        self.root = [0.0, "<root>", None]
        self.stack = [self.root]
        self.spans: list[tuple] = []
        self.calls: dict[tuple[str, str], list] = {}
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- statistics ---------------------------------------------------------

    def reset(self) -> None:
        self.root[0] = 0.0
        self.spans.clear()
        self.calls.clear()

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        out: dict[str, list] = {}
        for (name, _), (n, total, self_s) in self.calls.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += n
            acc[1] += total
            acc[2] += self_s
        return out

    def calls_under(self, name: str, caller: str) -> int:
        entry = self.calls.get((name, caller))
        return entry[0] if entry else 0

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "self_s"],
                       "spans": self.spans}, fh)

    # -- wrappers -----------------------------------------------------------

    def _record(self, name, parent, frame, t0, t1):
        d = t1 - t0
        parent[0] += d
        key = (name, parent[1])
        acc = self.calls.get(key)
        if acc is None:
            acc = self.calls[key] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += d
        acc[2] += d - frame[0]
        if frame[2] is not None:
            self.spans.append((frame[2], name, t0, t1, parent[2], d - frame[0]))

    def _wrap(self, name: str, fn):
        stack, record, hot = self.stack, self._record, name in HOT
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # each resumption is one call; successful ones count as yields
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        parent = stack[-1]
                        frame = [0.0, name, None]
                        stack.append(frame)
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            t1 = perf_counter()
                            stack.pop()
                            record(name, parent, frame, t0, t1)
                        yields = tracer.calls.setdefault(
                            (name + "#yields", parent[1]), [0, 0.0, 0.0])
                        yields[0] += 1
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [0.0, name, None]
            else:
                frame = [0.0, name, tracer._next_id]
                tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                record(name, parent, frame, t0, t1)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(qualified name, owner, attribute, original) for each target."""
        for layer in LAYERS:
            mod = sys.modules[f"ivp.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", mod, attr, obj
                elif (inspect.isclass(obj)
                      and not issubclass(obj, (enum.Enum, BaseException))):
                    for mattr, member in list(vars(obj).items()):
                        if mattr.startswith("_") and mattr != "__init__":
                            continue
                        if isinstance(member, (classmethod, staticmethod)) or \
                                inspect.isfunction(member):
                            yield f"{layer}.{attr}.{mattr}", obj, mattr, member

    def install(self) -> None:
        import ivp.cli  # noqa: F401  (loads all eight layers)
        originals: dict[int, tuple] = {}
        for name, owner, attr, obj in self._targets():
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(name, obj.__func__))
            else:
                wrapped = self._wrap(name, obj)
            self._patches.append((owner, attr, obj))
            setattr(owner, attr, wrapped)
            if inspect.isfunction(obj) and inspect.ismodule(owner):
                originals[id(obj)] = (obj, wrapped)
        # rebind the names other modules imported with from ... import
        for modname, mod in list(sys.modules.items()):
            if modname != "ivp" and not modname.startswith("ivp."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_metrics(totals: dict[str, list], evals_in_intval: int) -> dict:
    """The per-layer figures of one traced pass, by benchmark name."""
    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def layer_self(layer):
        return sum(v[2] for k, v in totals.items()
                   if k.startswith(layer + ".") and "#" not in k)

    intval_calls = calls("membership.is_integer_valued")
    return {
        "exact.vp.calls": calls("exact.vp"),
        "exact.vp.self_s": self_s("exact.vp"),
        "exact.is_prime.calls": calls("exact.is_prime"),
        "exact.is_prime.self_s": self_s("exact.is_prime"),
        "exact.Congruence.contains.calls": calls("exact.Congruence.contains"),
        "exact.iter_primes.yields": calls("exact.iter_primes#yields"),
        "padic.canonicalize.calls": calls("padic.canonicalize"),
        "padic.canonicalize.self_s": self_s("padic.canonicalize"),
        "padic.is_subset.self_s": self_s("padic.is_subset"),
        "padic.Ball.constructions": calls("padic.Ball.__init__"),
        "padic.self_s": layer_self("padic"),
        "polys.RatPoly.eval_at.calls": calls("polys.RatPoly.eval_at"),
        "polys.IrreduciblePoly.eval_int.calls":
            calls("polys.IrreduciblePoly.eval_int"),
        "polys.roots_in_set.self_s": self_s("polys.roots_in_set"),
        "polys.max_valuation_witness.self_s":
            self_s("polys.max_valuation_witness"),
        "polys.certify.self_s": self_s("polys.IrreduciblePoly.certify"),
        "polys.self_s": layer_self("polys"),
        "membership.is_integer_valued.calls": intval_calls,
        "membership.is_integer_valued.self_s":
            self_s("membership.is_integer_valued"),
        "membership.separating_polynomial.self_s":
            self_s("membership.separating_polynomial"),
        "membership.self_s": layer_self("membership"),
        "membership.evals_per_query":
            evals_in_intval / intval_calls if intval_calls else 0,
        "adelic.IntegerSet.allowed_residues.calls":
            calls("adelic.IntegerSet.allowed_residues"),
        "adelic.closure_in_zp.self_s": self_s("adelic.closure_in_zp"),
        "adelic.adelic_closure_member.self_s":
            self_s("adelic.adelic_closure_member"),
        "adelic.closures_differ.self_s": self_s("adelic.closures_differ"),
        "adelic.self_s": layer_self("adelic"),
        "overrings.normalize_rule.self_s": self_s("overrings.normalize_rule"),
        "overrings.ring_contains.self_s": self_s("overrings.ring_contains"),
        "overrings.ring_of.self_s": self_s("overrings.ring_of"),
        "overrings.self_s": layer_self("overrings"),
        "dsl.self_s": layer_self("dsl"),
        "cli.main.self_s": self_s("cli.main"),
    }
