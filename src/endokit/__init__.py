"""Exact-arithmetic toolkit for the combinatorics of endoscopic data.

The package enumerates Levi classes and elliptic data of classical and
metaplectic-type groups, computes the attached lattice and center indices
exactly, performs type-level descent at finite-order elements, and verifies
the resulting coefficient identities by brute force.
"""

from .ambient import Ambient, GEtaLevi, enumerate_levis
from .catalog import (
    CoordinateLayout,
    EmbeddedLevi,
    FactorType,
    GroupType,
    LeviDatum,
    a_dimension,
    a_space,
    bar,
    dual_center,
    gl,
    is_unramified,
    layout_for,
    levi_data,
    levi_enumerate,
    levis_containing,
    so_even,
    so_odd,
    sp,
    u,
    unbar,
    weyl_relative_order,
)
from .descent import (
    DescentOutcome,
    DescentScenario,
    centralizer_type,
    compatibility_check,
    descend,
    eta_from_epsilon,
    placement,
    placement_independent,
    validate_scenario,
)
from .enatural import (
    ENaturalEntry,
    enumerate_E_natural,
    pushed_group_check,
    tau_L_kernel,
    verify_identities,
    verify_index_sets,
)
from .endoscopy import (
    ArthurConfig,
    EigenMultiset,
    EllipticDatumMeta,
    SElement,
    SpEllipticDatum,
    UEllipticDatum,
    arthur_L_of_s,
    correspond_lie,
    correspond_mu,
    correspond_mu1_check,
    datum_to_levi,
    e_set,
    e_set_arthur,
    elliptic_data_meta,
    endoscopic_group_meta,
    g_of_s,
    i_meta,
    i_standard,
    sp_elliptic_data,
    u_elliptic_data,
    z_torsion,
)
from .errors import (
    AmbientMismatch,
    EndokitError,
    InvalidSemisimpleProfile,
    InvariantViolation,
    LayoutMismatch,
    MatchingFailure,
    NotCommensurable,
    NotNested,
    ScenarioValidationError,
    UnsupportedFactor,
    UnsupportedPairing,
)
from .indexsets import EStElement, build_E_inst, build_E_st, pushforward_levi, section_levi
from .lattices import (
    DiagSubgroup,
    FiniteAbelianGroup,
    IntLattice,
    arthur_product_check,
    diag_component_group,
    diag_identity_component,
    diag_index,
    diag_intersect,
    diag_product,
    lattice_index,
    smith_form,
)
from .nonstandard import (
    NSLeviPair,
    NonStdTriple,
    build_triple,
    c_nonstandard_closed,
    c_nonstandard_quotient,
    c_nonstandard_raw,
    coroot_span_levi,
)
from .qspaces import DSquared, QForm, QSubspace, d_coefficient, relative_space
from .rootsofunity import RootOfUnity

__version__ = "0.1.0"
