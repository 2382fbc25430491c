"""Exact symbolic laboratory for singular oscillator constructions.

The package works over the graded field of rational combinations of
2^(1/2) and pi^(1/2), so every ladder computation, inner product, and
Gram signature below is exact; floats appear only as optional numeric
annotations.
"""

import types

from .errors import (
    ArityError,
    ChargeAbsent,
    DepthExceeded,
    DomainError,
    IndeterminateSign,
    LabError,
    MissingParameter,
    NotConvergent,
    OpSyntaxError,
    PoleError,
    UnknownNameError,
    UnsupportedFormat,
)
from .scalars import (
    EXACT_UNAVAILABLE,
    EpsScalar,
    GradedScalar,
    LaurentValue,
    gamma_exact,
    gamma_laurent,
    gamma_numeric,
    scalar_sign,
)
from .algebra1d import (
    DiffOp1D,
    Divergence,
    State1D,
    apply_1d,
    build_op_1d,
    commutator_1d,
    compose_1d,
    depth_limit,
    eigencheck_1d,
    inner_1d,
    ladder_state_1d,
    localization_1d,
    solve_vacuum_1d,
)
from .algebra2d import (
    DiffOp2D,
    Monomial2D,
    State2D,
    apply_2d,
    build_op_2d,
    commutator_2d,
    compose_2d,
    eigencheck_2d,
    inner_2d,
    ladder_closed_form,
    localization_2d,
    omega,
    psi0,
    renorm_inner,
    states_proportional,
)
from .radial import (
    RadialProfile,
    angular_decompose,
    bridge_audit,
    radial_hamiltonian,
    radial_reduce,
)
from .sectors import (
    DarkEntry,
    DarkReport,
    Edge,
    GramResult,
    IdentityVerdict,
    Node,
    QuotientReport,
    SectorLattice,
    classify_limit,
    dark_check,
    eps_conj_sector,
    eps_sector,
    generate_sector,
    gram,
    identity_audit,
    lattice_export,
    lattice_from_json,
    preset_sector,
    quotient_report,
)
from .opexpr import build_from_text, eval_expr, expr_text, parse_expr

__version__ = "0.1.0"

# The public names are the imports above, in their order: publishing a name
# means importing it here.  The submodules that the imports bind are skipped.
__all__ = [
    n for n, v in globals().items() if n[0] != "_" and not isinstance(v, types.ModuleType)
] + ["__version__"]
