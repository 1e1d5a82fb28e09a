"""g2frob: exact Frobenius/Cartier invariants of genus-2 hyperelliptic curves.

The package computes, in exact arithmetic over small finite fields, the
p-curvature of connections on the trivial bundle over y^2 = f(x), the
Cartier-Manin matrix and ordinarity, the flat global differential forms,
first-order deformation rigidity of the canonical split connection, and the
closed-form numeric invariants that tie into the genus-2 moduli bookkeeping.
"""

__version__ = "0.1.0"

from .errors import (
    DegreeNotFive,
    DegreeOverflow,
    DivisionByZero,
    EvenCharacteristic,
    FieldTooLargeForBrute,
    G2FrobError,
    InputError,
    NonUnitError,
    NotFlat,
    NotSquarefree,
    NotTorsion,
    PrimeTooLarge,
    RangeError,
    ResourceGuardError,
    UnsupportedRing,
    ZeroDifferential,
    ZeroVector,
)
from .exactnum import (
    DualRing,
    ExtField,
    PrimeField,
    field_arith,
    find_irreducible,
    frobenius,
    make_field,
)
from .funcfield import (
    Curve,
    Derivation,
    Differential,
    FunctionFieldElement,
    canonical_d,
    curve_from_spec,
    curve_id,
    curve_spec,
    dual_derivation,
    hyperelliptic_involution,
    iterate_derivation,
    k_arith,
    make_curve,
    pair,
    random_curve,
)
from .pcurvature import (
    CoefficientTable,
    ConnectionMatrix,
    PCurvature,
    coefficient_table,
    p_curvature_matrix,
    p_curvature_rank1,
    second_fundamental_form,
)
from .cartier import (
    CartierManinMatrix,
    TorsionSet,
    canonical_connection,
    cartier_manin,
    enumerate_p_torsion,
    is_ordinary,
    p_rank,
    rational_flat_dimension,
    stabilization_degree,
)
from .formulas import counts, mu_r, nagata_segre, nu_r
from .verify import (
    LemmaReport,
    RigiditySolutionSet,
    check_offdiag_closed_forms,
    check_two_sums,
    recheck,
    rigidity_scan,
)
