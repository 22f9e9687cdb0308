"""Exact arithmetic for Grassmann numbers, supermatrices, and supergroups.

Elements of a finitely generated Weil superalgebra (even square-zero and odd
anticommuting generators over the rationals) with exact rational
coefficients, graded matrices over them with supertranspose, Berezinian and
blockwise inversion, membership predicates for the classical supergroup
families, and an executable chart of the super-Minkowski big cell inside the
SL(4|1) superflag, including the super-Poincaré action and exact first-order
rank computations at the identity.
"""

from ._backend import BACKEND
from .algebra import AlgebraElement, AlgebraMorphism, Parity, Signature
from .errors import (
    BodyNotZero,
    BodyZero,
    ConfigError,
    GradingError,
    KernelError,
    MorphismError,
    NotEven,
    NotInvertible,
    NotSquare,
    OutsideBigCell,
    ParseError,
    ShapeMismatch,
    SignatureMismatch,
    UnsupportedLabel,
)
from .flag import (
    BigCellPoint,
    JacobianReport,
    PoincareElement,
    big_cell_lift,
    equivariance_residual,
    flag_act,
    flag_pi,
    jacobian_at_identity,
    poincare_act,
    poincare_compose,
    poincare_decompose,
    poincare_matrix,
    stabilizer_contains,
    twistor_residual,
)
from .groups import (
    GL,
    SL,
    GroupLabel,
    OSp,
    P,
    PiSp,
    Q,
    StandardForm,
    group_contains,
    lie_algebra_contains,
    standard_form,
)
from .matrix import (
    SuperMatrix,
    berezinian,
    body_matrix,
    det_even,
    exp_nilpotent,
    from_blocks,
    inv_even,
    is_invertible,
    morphism_map,
    smat_inv,
    supertranspose,
    supertrace,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraMorphism",
    "BACKEND",
    "BigCellPoint",
    "BodyNotZero",
    "BodyZero",
    "ConfigError",
    "GL",
    "GradingError",
    "GroupLabel",
    "JacobianReport",
    "KernelError",
    "MorphismError",
    "NotEven",
    "NotInvertible",
    "NotSquare",
    "OSp",
    "OutsideBigCell",
    "P",
    "ParseError",
    "Parity",
    "PiSp",
    "PoincareElement",
    "Q",
    "SL",
    "ShapeMismatch",
    "Signature",
    "SignatureMismatch",
    "StandardForm",
    "SuperMatrix",
    "UnsupportedLabel",
    "berezinian",
    "big_cell_lift",
    "body_matrix",
    "det_even",
    "equivariance_residual",
    "exp_nilpotent",
    "flag_act",
    "flag_pi",
    "from_blocks",
    "group_contains",
    "inv_even",
    "is_invertible",
    "jacobian_at_identity",
    "lie_algebra_contains",
    "morphism_map",
    "poincare_act",
    "poincare_compose",
    "poincare_decompose",
    "poincare_matrix",
    "smat_inv",
    "stabilizer_contains",
    "standard_form",
    "supertranspose",
    "supertrace",
    "twistor_residual",
    "__version__",
]
