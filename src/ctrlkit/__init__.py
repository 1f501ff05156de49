"""Toolkit for nonlinear control systems: a small dynamics DSL,
integrator extension and reduction with replayable certificates,
controllability and accessibility checks, piecewise-constant flows with
jump/drift plan realization, and Monte-Carlo reachability estimates."""

__version__ = "0.1.0"

from .certificates import (
    KalmanReduction,
    LarcReport,
    LinearRealization,
    NotLinearReport,
    kalman_rank,
    kalman_reduce_3to2,
    larc,
    linear_of,
    matrix_rank,
)
from .dsl import (
    AffineSystem,
    ControlSystem,
    DslError,
    NotAffineReport,
    from_linear,
    parse,
    parse_expression,
    render_expression,
    serialize,
    to_affine,
)
from .expr import (
    Add,
    Constant,
    Cos,
    Div,
    EvalError,
    Expr,
    ExprError,
    Exp,
    InputVar,
    Mul,
    Neg,
    Pow,
    Sin,
    StateVar,
    Sub,
    diff,
    eval_expr,
    is_probably_zero,
    simplify,
    subst,
)
from .fields import VectorField, eval_vf, lie_bracket
from .flows import (
    BlowUpError,
    Drift,
    FlowPlan,
    Jump,
    PiecewiseControl,
    Trajectory,
    flow_endpoint,
    ideal_plan_endpoint,
    integrate,
    load_control,
    realize_conjugated_drift,
    realize_jump,
    realize_plan,
    save_control,
    save_trajectory_csv,
    time_reversal,
    trajectory_to_csv,
)
from .reach import (
    BoundedReachReport,
    CompareReport,
    ReachConfig,
    ReachEstimate,
    SteerResult,
    bounded_reach_check,
    cells_to_csv,
    coverage_compare,
    estimate_summary,
    project_x,
    sample_reach,
    two_point_steer,
)
from .transform import (
    ExtensionRecord,
    ReductionCertificate,
    ReductionStep,
    extend,
    load_certificate,
    reduce_integrator,
    save_certificate,
    strippable_states,
    verify_roundtrip,
)

__all__ = [name for name in dir() if not name.startswith("_")]
