"""Exact analysis of structured real subsets, piecewise functions, and six
progressively weaker notions of function limit.

Quick tour:

    >>> from limitlab import parse_fn, classify, LimitType
    >>> f = parse_fn("piecewise { 1 on Q(R); else 0 }")
    >>> report = classify(f, 0)
    >>> report.outcomes[LimitType.T5].exists, report.outcomes[LimitType.T5].value
    ('yes', Fraction(0, 1))
"""

from .errors import (
    DivisionByPossiblyZero,
    DslSyntaxError,
    LimitLabError,
    NonPolynomialQuotient,
    OutsideDomain,
    PrerequisiteNotMet,
    RangeError,
    UndecidableDensity,
    UnknownAtom,
    UnsupportedIntersection,
)
from .poly import Poly, isolate_roots, refine_root
from .terms import Term
from .sets import (
    EMPTY,
    FULL_LINE,
    CantorAffine,
    Difference,
    FinitePoints,
    Intersection,
    Interval,
    IntervalFamily,
    Normal,
    RationalsIn,
    Sequence,
    SetExpr,
    Union,
    cantor_affine,
    cantor_meets_interval,
    contains,
    family,
    interval,
    normalize,
    open_interval,
    points,
    rationals_in,
    sequence,
    window_trace,
)
from .analyzers import (
    CardinalityClass,
    DensityVerdict,
    MeasureValue,
    cardinality,
    density_at,
    has_no_accumulation_point,
    measure,
)
from .functions import (
    PiecewiseFn,
    SandwichSet,
    exceptional_set,
    fn_add,
    fn_div,
    fn_eval,
    fn_mul,
    fn_scale,
    indicator_fn,
    isolate_superlevel,
    nonzero_set,
    piecewise,
)
from .limits import (
    LimitReport,
    LimitType,
    Verdict,
    candidates,
    check,
    classify,
    uniqueness_precondition,
)
from .decompose import Decomposition, decompose, verify_decomposition
from .oracle import MCEstimate, ProfilePoint, SampleConfig, density_profile, mc_measure
from .sampling import sample_points
from .dsl import fn_to_text, parse_fn, parse_rational, parse_set, set_to_text

__all__ = [name for name in dir() if not name.startswith("_")]
