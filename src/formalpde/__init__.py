"""Exact-arithmetic formal integrability analysis for linear
constant-coefficient PDE systems: symbol tableaux, Spencer cohomology,
prolongation towers, and torsion obstructions, all over the rationals."""

from .errors import InvariantViolation
from .jetpde import (
    IntegrabilityReport,
    LevelRecord,
    PdeSystem,
    finite_type_integrability,
    formal_prolongation,
    goldschmidt_check,
    jet_coords,
    jet_fiber_dim,
    jet_index,
    jet_to_prolongation_point,
    pde_to_relconn,
    prolongation_tower,
    solution_fiber,
    symbol_tableau,
)
from .ratlin import RatMatrix, Subspace, image, kernel
from .relconn import (
    CompatibilityReport,
    ProlFiber,
    RelConn,
    TorsionResult,
    classical_prolongation_fiber,
    compatible,
    prolongation_connection,
    symbol_map,
    torsion_at,
)
from .spencer import (
    AcyclicityVerdict,
    CohomologyReport,
    TableauChain,
    cohomology,
    is_r_acyclic,
)
from .tableau import (
    Tableau,
    TypeVerdict,
    classify_type,
    prolong,
    tower,
)

__version__ = "0.1.0"

__all__ = [
    "AcyclicityVerdict",
    "CohomologyReport",
    "CompatibilityReport",
    "IntegrabilityReport",
    "InvariantViolation",
    "LevelRecord",
    "PdeSystem",
    "ProlFiber",
    "RatMatrix",
    "RelConn",
    "Subspace",
    "Tableau",
    "TableauChain",
    "TorsionResult",
    "TypeVerdict",
    "classical_prolongation_fiber",
    "classify_type",
    "cohomology",
    "compatible",
    "finite_type_integrability",
    "formal_prolongation",
    "goldschmidt_check",
    "image",
    "is_r_acyclic",
    "jet_coords",
    "jet_fiber_dim",
    "jet_index",
    "jet_to_prolongation_point",
    "kernel",
    "pde_to_relconn",
    "prolong",
    "prolongation_connection",
    "prolongation_tower",
    "solution_fiber",
    "symbol_map",
    "symbol_tableau",
    "torsion_at",
    "tower",
]
