"""Quantum metrology metrics for three-qubit X states under decoherence.

Computes quantum Fisher information, Wigner-Yanase skew information, and
GHZ-class concurrence for three-qubit X states evolving under phase-damping,
depolarizing, and phase-flip channels.  The core pipeline works in per-block
Bloch coordinates (four 2x2 blocks); every closed form is crosscheckable
against full-matrix brute-force oracles.  Channels act on stacks of states
through two independent routes, dense Kraus conjugation and Bloch damping;
every printed number comes from the block closed forms or the oracles.
"""

from .channels import (
    ChannelKind,
    ChannelParam,
    apply_kraus_dense,
    bloch_damping_factors,
    damped_bloch_array,
    kraus_operators,
)
from .errors import (
    BadParameterError,
    BadProbabilityError,
    BlockNotPSDError,
    NotConvergedError,
    NotHermitianError,
    NotPSDError,
    NotXFormError,
    SingularBlockError,
    TraceViolationError,
    XQMetroError,
)
from .ghz import (
    CrosscheckReport,
    MetricCheck,
    Verdict,
    closed_form_concurrence,
    closed_form_qfi,
    closed_form_skew,
    crosscheck,
    depolarizing_qfi_gap,
    ghz_family,
    ghz_grid,
    werner_ghz,
)
from .linalg import central_diff, eigh, psd_sqrt
from .metrics import (
    ParamFamily,
    concurrence_ghz_class,
    evaluate_stack,
    qfi_block_mixed,
    qfi_total,
    random_family,
    skew_block,
    skew_total,
)
from .oracle import qfi_eigen_oracle, skew_sqrt_oracle
from .xstate import (
    XState,
    XTangent,
    random_xstate,
    xstate_from_dense,
)

__version__ = "1.0.0"

__all__ = [
    "BadParameterError",
    "BadProbabilityError",
    "BlockNotPSDError",
    "ChannelKind",
    "ChannelParam",
    "CrosscheckReport",
    "MetricCheck",
    "NotConvergedError",
    "NotHermitianError",
    "NotPSDError",
    "NotXFormError",
    "ParamFamily",
    "SingularBlockError",
    "TraceViolationError",
    "Verdict",
    "XQMetroError",
    "XState",
    "XTangent",
    "apply_kraus_dense",
    "bloch_damping_factors",
    "central_diff",
    "closed_form_concurrence",
    "closed_form_qfi",
    "closed_form_skew",
    "concurrence_ghz_class",
    "crosscheck",
    "damped_bloch_array",
    "depolarizing_qfi_gap",
    "eigh",
    "evaluate_stack",
    "ghz_family",
    "ghz_grid",
    "kraus_operators",
    "psd_sqrt",
    "qfi_block_mixed",
    "qfi_eigen_oracle",
    "qfi_total",
    "random_family",
    "random_xstate",
    "skew_block",
    "skew_sqrt_oracle",
    "skew_total",
    "werner_ghz",
    "xstate_from_dense",
]
