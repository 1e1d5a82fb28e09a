"""g2frob: exact Frobenius/Cartier invariants of genus-2 hyperelliptic curves.

The package computes, in exact arithmetic over small finite fields, the
p-curvature of connections on the trivial bundle over y^2 = f(x), the
Cartier-Manin matrix and ordinarity, the flat global differential forms,
first-order deformation rigidity of the canonical split connection, and the
closed-form numeric invariants that tie into the genus-2 moduli bookkeeping.

The names of `formulas` (counts, mu_r, nagata_segre, nu_r), of `verify`
(LemmaReport, RigiditySolutionSet, check_offdiag_closed_forms,
check_two_sums, recheck, rigidity_scan) and of the p-curvature engine
`pcurvature` (CoefficientTable, ConnectionMatrix, PCurvature,
coefficient_table, p_curvature_matrix, p_curvature_rank1,
second_fundamental_form), and the three submodules themselves, are imported
on first access (`__getattr__`), so that `import g2frob.cli` loads only what
`curve` and `torsion --method semilinear` run; every other name is imported
with the package.
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

# name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("counts", "mu_r", "nagata_segre", "nu_r"), "formulas"),
    **dict.fromkeys(("LemmaReport", "RigiditySolutionSet", "check_offdiag_closed_forms",
                     "check_two_sums", "recheck", "rigidity_scan"), "verify"),
    **dict.fromkeys(("CoefficientTable", "ConnectionMatrix", "PCurvature", "coefficient_table",
                     "p_curvature_matrix", "p_curvature_rank1", "second_fundamental_form"),
                    "pcurvature"),
    **{module: module for module in ("formulas", "pcurvature", "verify")},
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
