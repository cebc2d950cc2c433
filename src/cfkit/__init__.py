"""cfkit: exact continued-fraction analysis.

Convergent tables and continuants in exact arithmetic, certified evaluation
of semi-regular continued fractions, and complete convergence classification
of purely periodic continued fractions via the eigenvalues of their period
matrix, including reverse-period and conjugate analysis.
"""

from .cfcore import (
    CFSpec,
    ConvergentPair,
    FiniteCF,
    GENERATORS,
    PeriodicCF,
    RuleCF,
    convergent_table,
    evaluate_convergent,
    make_generator,
    pair_at,
    recurrence,
    shifted_table,
)
from .continuants import (
    ContinuantArgs,
    ReversedConvergents,
    continuant,
    continuant_oracle,
    first_column_expansion,
    reverse_relations,
    reversed_args,
)
from .errors import (
    CFKitError,
    CertificateFailure,
    CoefficientUnavailable,
    DegenerateMatrix,
    InvalidSpec,
    IterationCap,
    NotIrrational,
    SelfCheckFailure,
    SizeLimit,
    SpecFileError,
    TowerMismatch,
    ZeroDenominator,
    ZeroStart,
)
from .periodic import (
    ConjugateReport,
    EigenSplit,
    GaloisReport,
    PeriodMatrix,
    PowerIterTrajectory,
    StolzReport,
    TrajectoryStep,
    Verdict,
    build_period_matrix,
    classify,
    conjugate_check,
    eigen_split,
    galois_analysis,
    power_iterate,
    reverse_period,
)
from .render import format_exact, format_float, parse_exact
from .scalars import (
    ComplexFloat,
    QuadExt,
    Scalar,
    as_complexfloat,
    quadext,
)
from .specfile import SpecFile, load_specfile, parse_spec_dict, specfile_from_periodic
from .tietze import (
    BoundRecord,
    BoundedValue,
    SemiRegularReport,
    Violation,
    denominator_bounds_certificate,
    evaluate_tietze,
    validate_semiregular,
)

__version__ = "0.1.0"
