"""Numerical certification toolkit for univalence criteria of integral
operators on the unit disk: operator evaluation with branch-continued
powers, inequality checking with adaptive disk maximization, Loewner chain
sampling, Becker quasiconformal extensions with closed-form Beltrami
coefficients, and criterion-free univalence oracles.

A passing check is always "certified on this grid", never a proof.
"""

__version__ = "0.1.0"

from .chains import (
    ChainPoint,
    QcBound,
    chain_a1,
    chain_callable,
    chain_l,
    chain_point,
    chain_t6,
    chain_t6_callable,
    chain_t6_p,
    disk_inclusion_check,
    qc_bound_k,
    subordination_spot_check,
    transfer_a,
    transfer_p,
    transfer_w,
    verify_chain_conditions,
)
from .criteria import (
    PRESET_NAMES,
    CriterionParams,
    CriterionReport,
    DiskGrid,
    apply_preset,
    check_alpha_condition,
    check_becker,
    check_h_condition,
    check_log_derivative_condition,
    check_main_t2,
    check_qc_t5,
    check_simplified_t21,
    check_t3,
    check_t6,
    disk_maximize,
    in_uk,
)
from .dsl import ParseDiagnostic, parse, print_expr, validate_normalized
from .expr import (
    AnalyticTriple,
    Expr,
    differentiate,  # symbolic derivative trees: printing, and the operator's weight
    eval_expr,
    log_derivative_at,
    principal_power,
)
from .extension import (
    BeltramiSample,
    ExtensionField,
    becker_extension,
    beltrami_coefficient,
    beltrami_estimate,
    beltrami_field,
    max_dilatation,
    seam_mismatch,
)
from .operators import (
    OperatorValue,
    operator_g_alpha,
    operator_mocanu,
    operator_moldoveanu_pascu,
    operator_pascu,
    operator_values,
    operator_values_with_derivative,
)
from .oracle import (
    InjectivityReport,
    derivative_nonvanishing,
    injectivity_test,
    preimage_count,
)
from .reporting import CRITERION_IDS
