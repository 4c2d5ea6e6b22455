"""diffdiss: displacement (variational) dynamics of nonlinear control
systems, differential dissipativity/passivity audits along trajectories,
pointwise matrix certificates, passivity-preserving interconnection, and
numerical verification of incremental-stability and output-convergence
properties."""

from .numerics import (
    DualScalar,
    IntegrationError,
    NumericalError,
    OdeSolution,
    Rk4,
    Rk45,
    integrate,
    jacobian,
    jvp,
    nsd_margin,
    psd_margin,
    sym,
)
from .exprlang import EvalError, ParseError, compile_map, evaluate, parse, to_source
from .systems import (
    DynSystem,
    ProlongedTrajectory,
    Signal,
    SignalError,
    Trajectory,
    lift,
    simulate,
    simulate_ensemble,
    simulate_prolonged,
)
from .dissipativity import (
    AuditReport,
    CertificateReport,
    GridSpec,
    InvalidCertificate,
    InvalidSupply,
    QuadraticDifferentialStorage,
    SupplyIntegrabilityError,
    SupplyRate,
    audit,
    check_ap,
    check_uc,
)
from .interconnect import (
    AlgebraicLoopError,
    build_equalizing_feedback,
    check_equalization,
    output_feedback,
    state_feedback,
)
from .incremental import (
    ConvergenceReport,
    FiniteDifferenceTrace,
    HomotopyFamily,
    InvalidFinslerStructure,
    LengthTrace,
    NonexpansionReport,
    UnboundedTrajectoryError,
    fd_oracle,
    finsler_length,
    homotopy_integrate,
    verify_nonexpansion,
    verify_output_convergence,
)
from .examples import (
    FeedforwardConstructionError,
    ModelDomainError,
    MotorParams,
    MotorVirtual,
    RcCircuit,
    RcParams,
    induction_motor_virtual,
    lti,
    motor_currents,
    motor_feedforward,
    motor_flux_margins,
    rc_circuit,
)

__version__ = "0.1.0"
