"""RO(C2)-graded Bredon cohomology of surfaces with involution.

Computes, for any closed surface with a C2-action described by a surgery
word or by its invariant triple (beta, F, C), the full bigraded mod-2
Bredon cohomology as an explicit direct sum of shifted point modules and
antipodal-sphere modules, and checks every answer against identities with
the mod-2 Betti numbers of the surface, its fixed set and its orbit space
(``checks``).  Those Betti numbers come from closed formulas in the
profile; the GF(2) cell models of ``f2linalg`` back the orbit-space
formula in the tests.
"""

from .bigraded import (
    Bidegree,
    Decomposition,
    Summand,
    render_grid,
)
from .checks import (
    DEFAULT_LES_WINDOW,
    Tally,
    Violation,
    Window,
    check_beta_recovery,
    check_forgetful_les,
    check_quotient_row,
    check_rho_localization,
    check_top_class,
    tally,
    verify_decomposition,
    verify_profile,
    verify_word,
)
from .engine import TransformError, closed_form, free_orbit_product, reduced_form, transform
from .f2linalg import (
    ChainComplex,
    F2Matrix,
    betti_f2,
    polygon_model,
    surface_with_boundary_model,
)
from .surfaces import (
    Base,
    ClosedSurface,
    InvariantProfile,
    Op,
    ParseError,
    ProfileError,
    RealizabilityError,
    SingProfile,
    SurgeryWord,
    WordError,
    apply_op,
    enumerate_profiles,
    fixed_sing,
    invariants,
    parse_word,
    profiles_by_scan,
    profiles_by_words,
    quotient_sing,
    underlying_sing,
    validate_profile,
    witnessed_profiles,
)

__version__ = "0.1.0"
