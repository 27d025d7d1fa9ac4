"""Exact computations with p-adic value sets and their rings of
integer-valued polynomials.

The package works with a closed algebra of representable subsets of the
p-adic integers (balls, finite point sets, convergent sequences), decides
membership and closure questions exactly, and builds on that to compare
the rings of rational polynomials that are integral on such sets.
"""

from .adelic import (
    AdelicCandidate,
    IntegerSet,
    adelic_closure_member,
    closure_in_zp,
    closures_differ,
    product_closure_member,
)
from .config import DEFAULT_CONFIG, Config, load_config_file
from .errors import (
    IvpError,
    PreconditionError,
    ResourceLimitError,
)
from .exact import INFINITY, Congruence, crt_solve, is_prime, vp
from .membership import (
    WitnessRationalFunction,
    is_integer_valued,
    separating_polynomial,
    witness_rational_function,
)
from .overrings import (
    EMPTY_RULE,
    FULL_RULE,
    UNITS_AND_SELF_RULE,
    Decision,
    DefaultRule,
    MinimalExtensions,
    Representation,
    RingSpec,
    RuleKind,
    TriState,
    globalize,
    has_irredundant_representation,
    instantiate,
    integer_set_rule,
    is_simple_integer_set_ring,
    localize,
    minimal_extensions,
    nonunitary_contains,
    normalize_rule,
    representation_equals,
    ring_contains,
    ring_equal,
    ring_member,
    ring_of,
    rule_subset,
    single_power_rule,
    superfluous_nonunitary,
    superfluous_unitary,
    unitary_contains,
)
from .padic import (
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
from .polys import (
    IrreduciblePoly,
    RatPoly,
    RootCertificate,
    RootKind,
    max_valuation,
    max_valuation_witness,
    roots_in_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
