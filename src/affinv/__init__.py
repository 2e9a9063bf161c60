"""Exact and numeric verification toolkit for Krylov-row determinants,
companion matrices, and relative invariants of the mirabolic subgroup on
gl(n).

The exact layer (``exactmat``, ``invariants``, ``krylov``, ``sympoly``)
works over arbitrary-precision rationals so every identity is a zero test;
the float layer (``calculus``) estimates derivatives by central
differences and weak derivatives by seeded Monte Carlo.  ``report`` and
``cli`` wrap both in reproducible verification suites.
"""

__version__ = "0.1.0"

from .exactmat import (  # noqa: F401
    RatMatrix,
    RatVector,
    UniPoly,
    char_poly,
    commutator,
    determinant,
    inverse,
    matrix_from_json,
    matrix_to_json,
    min_poly,
    power,
    rank,
)
from .invariants import (  # noqa: F401
    basis_expansion_residual,
    basis_matrix,
    entry_bracket_pairing,
    gradient_commutator_residual,
    trace_form,
    trace_power,
)
from .krylov import (  # noqa: F401
    CompanionSpec,
    PGroupElement,
    analyze,
    companion,
    companion_sign,
    conjugate_into_omega,
    find_cyclic_row,
    homogeneity_check,
    in_omega,
    is_regular,
    krylov_determinant,
    krylov_rows,
    pairing_determinant,
    transformation_law,
)
from .sympoly import (  # noqa: F401
    MultiPoly,
    homogeneous_degree,
    symbolic_krylov_determinant,
)
from .fields import (  # noqa: F401
    Add,
    Const,
    Mul,
    Pk,
    Pow,
    ScalarField,
    Var,
    bump_field,
)
from .calculus import (  # noqa: F401
    FDConfig,
    FloatMatrix,
    QuadratureSpec,
    fd_directional,
    full_identity_residual,
    lie_derivative,
    lie_derivatives,
    p_invariance_residual,
    reduced_system_check,
    weak_lie_derivative,
)
from .report import (  # noqa: F401
    VerificationReport,
    run_identity_suite,
    run_lemma_suite,
    run_suite_from_config,
    run_weak_suite,
)
