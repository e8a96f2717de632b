"""Symbolic and numeric verification of twisted Jacobi, twisted contact and
homogeneous twisted Poisson structures on coordinate charts, with groupoid
multiplicativity checks and A-path cocycle integration."""

from .expr import (
    Chart,
    EvalError,
    Expr,
    ExprError,
    ParseError,
    Verdict,
    is_zero,
    parse,
    sample_points,
)
from .report import CheckItem, CheckReport, tensor_zero_verdict
from .tensor import (
    Form,
    MultiVec,
    ProjectabilityFailure,
    SmoothMap,
    differential,
    ext_d,
    interior,
    lie,
    pullback,
    pushforward,
    schouten,
    sharp,
    sharp1,
    sharp_tensor,
    wedge,
)
from .jacobi import (
    CotangentModel,
    HomTwistedPoisson,
    ProjectionAlongE,
    TwistedJacobi,
    TwistedPoisson,
    algebroid_anchor,
    algebroid_bracket,
    bracket,
    check_algebroid,
    check_homogeneous,
    check_twisted_jacobi,
    conformal,
    cotangent_twisted_symplectic,
    hamiltonian,
    jacobi_anomaly,
    poissonize,
    project_along_E,
    project_homogeneous,
)
from .contact import (
    TwistedContact,
    check_contact,
    contact_bivector,
    contact_poissonization_check,
    jacobi_from_contact,
    reeb,
)
from .scenario import Scenario, ScenarioError, derive, load, loads, run

__version__ = "1.0.0"

# names served from the groupoid and A-path modules, which ``scenario``
# registers without running them: the first access here runs the module
_LAYER_NAMES = {
    **dict.fromkeys((
        "GroupoidModel",
        "SuspendedModel",
        "base_coincidence_check",
        "check_algebroid_morphism",
        "check_axioms",
        "check_multiplicativity",
        "check_properties",
        "induced_base_structure",
        "strip_suspension",
        "suspend",
    ), "groupoid"),
    **dict.fromkeys((
        "APath",
        "anchor_residual",
        "cocycle_integral",
        "concatenate",
        "path_from_exprs",
        "reparameterize",
    ), "apath"),
}


def __getattr__(name: str):
    if name not in _LAYER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_NAMES[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_NAMES})


__all__ = [name for name in __dir__() if not name.startswith("_")]
