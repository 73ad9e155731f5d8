"""qserieslab: an exact-arithmetic laboratory for q-series identities.

Truncated Puiseux series with rational exponents and coefficients, infinite
product expansion, minimal-series and twisted characters, lattice theta sums,
the quintuple product identity in two variables, a registry of mechanically
verified identities, and exact rational linear-relation discovery.
"""

from .bivariate import (
    BivariateSeries,
    InsufficientWindowError,
    bivariate_from_layers,
    compare_bivariate,
    quintuple_lhs,
    quintuple_rhs,
    specialize,
)
from .characters import (
    CharLabel,
    InvalidLabelError,
    UnknownNameError,
    central_charge,
    conformal_weight,
    lowest_weight_from_char,
    minimal_char,
    named_series,
)
from .lattice import fkw_character, theta_sum
from .products import ProductFactor, euler_phi, expand_product
from .series import (
    EmptySeriesError,
    FormatError,
    GradingError,
    InsufficientOrderError,
    Mismatch,
    PuiseuxSeries,
    SeriesError,
    add,
    compare,
    from_text,
    invert,
    monomial,
    mul,
    scale,
    sub,
    substitute,
    substitute_signed,
    to_text,
    truncate,
    zero,
)
from .verify import (
    IdentityRecord,
    InsufficientRowsError,
    Relation,
    Status,
    UnknownIdentityError,
    VerificationReport,
    check,
    check_record,
    discover,
    load_registry,
    parse_expression,
    registry,
)

__version__ = "0.1.0"
