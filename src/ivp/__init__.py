"""Exact computations with p-adic value sets and their rings of
integer-valued polynomials.

The package works with a closed algebra of representable subsets of the
p-adic integers (balls, finite point sets, convergent sequences), decides
membership and closure questions exactly, and builds on that to compare
the rings of rational polynomials that are integral on such sets.

Importing the package runs none of its layers.  Each is registered in
sys.modules through importlib's LazyLoader and runs on its first
attribute access; a public name is looked up in its home layer when it
is first read from the package (PEP 562) and kept in the package from
then on.  So a command that reads only sets loads neither the
polynomial layers nor the rings.
"""

import importlib.util
import sys

# the public names each layer gives the package
_EXPORTS = {
    "adelic": ("AdelicCandidate", "IntegerSet", "adelic_closure_member",
               "closure_in_zp", "closures_differ", "product_closure_member"),
    "config": ("DEFAULT_CONFIG", "Config", "load_config_file"),
    "errors": ("IvpError", "PreconditionError", "ResourceLimitError"),
    "exact": ("INFINITY", "Congruence", "crt_solve", "is_prime", "vp"),
    "membership": ("WitnessRationalFunction", "is_integer_valued",
                   "separating_polynomial", "witness_rational_function"),
    "overrings": (
        "EMPTY_RULE", "FULL_RULE", "UNITS_AND_SELF_RULE", "Decision",
        "DefaultRule", "MinimalExtensions", "Representation", "RingSpec",
        "RuleKind", "TriState", "globalize", "has_irredundant_representation",
        "instantiate", "integer_set_rule", "is_simple_integer_set_ring",
        "localize", "minimal_extensions", "nonunitary_contains",
        "normalize_rule", "representation_equals", "ring_contains",
        "ring_equal", "ring_member", "ring_of", "rule_subset",
        "single_power_rule", "superfluous_nonunitary", "superfluous_unitary",
        "unitary_contains"),
    "padic": ("Ball", "PAdicSet", "SeqWithLimit", "canonicalize", "closure",
              "empty_set", "full_set", "is_closed", "is_dense_in", "is_subset",
              "isolated_points", "member", "point_set",
              "remove_isolated_point", "sets_equal", "some_elements"),
    "polys": ("IrreduciblePoly", "RatPoly", "RootCertificate", "RootKind",
              "max_valuation", "max_valuation_witness", "roots_in_set"),
}
_HOMES = {name: layer for layer, names in _EXPORTS.items() for name in names}
# every layer but cli, which `python -m ivp.cli` runs as __main__: runpy
# warns when the module it runs is already in sys.modules
_LAYERS = (*_EXPORTS, "dsl")


def _register(layer: str):
    """The layer's module, in sys.modules, to run on first attribute access."""
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _LAYERS:
    globals()[_layer] = _register(_layer)


def __getattr__(name: str):
    layer = _HOMES.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})


__all__ = sorted([*_HOMES, *_EXPORTS])

__version__ = "0.1.0"
