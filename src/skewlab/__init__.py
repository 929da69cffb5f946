"""Exact-arithmetic laboratory for skew pencils of linear forms.

Skew matrices of linear forms, their Pfaffians and rank-drop loci, the
apolarity pairing with dual forms, and the sheaf-cohomology dimension
bookkeeping that governs the moduli counts, all over the rationals or
a prime field, with no floating point anywhere.
"""

from .errors import (
    AlphabetMismatch,
    DegenerateForm,
    DegenerateG,
    DegenerateInput,
    DegreeMismatch,
    EvenOrder,
    FormatError,
    GenericityError,
    InternalError,
    NoPointsFound,
    NotGorensteinSocle,
    NotSkew,
    OddDegree,
    OddOrder,
    RangeError,
    SkewlabError,
    SkewNormalizationFailure,
    SyzygyDefect,
    UsageError,
)
from .fields import GF, QQ, Field, is_prime
from .linalg import Matrix, kernel_basis, rank, row_space_canonical
from .rings import (
    Alphabet,
    GradedSlice,
    HomogPoly,
    d_vars,
    dim_homog,
    format_poly,
    mono_index,
    monomials,
    parse_poly,
    poly_from_json,
    poly_to_json,
    slices_equal,
    x_vars,
    y_vars,
)
from .apolarity import (
    apolar_rank,
    catalecticant_rank,
    dual_socle_generator,
    hilbert_function,
    is_nondegenerate,
    mirror,
    pairing_matrix,
    partials_slice,
    perp_slice,
)
from .randomness import (
    SplitMix64,
    describe,
    random_form,
    random_nondegenerate_dual_form,
    random_point,
    random_skew_linear,
)
from .skew import (
    PolyMatrix,
    evaluate_matrix,
    is_skew_matrix,
    pfaffian_poly,
    poly_matrix_from_json,
    poly_matrix_to_json,
    skew_linear,
    sub_pfaffians,
    tensor_flip,
)
from .correspond import (
    Certificate,
    form_to_matrix,
    matrix_to_form,
)
from .degeneracy import (
    IncidenceResult,
    LocusProfile,
    ProjectionDatum,
    ScrollSample,
    even_scroll_sample,
    incidence_check,
    locus_profile,
    parametrization_points,
    veronese_projection,
    verify_in_image,
)
from .cohomology import (
    AffineForm,
    ChaseContext,
    ChaseResult,
    H0FResult,
    agreement,
    bott,
    closed_form_tables,
    codim_rho,
    dim_gr,
    dim_h,
    dimension_ledger,
    euler_chi_o,
    euler_chi_omega,
    g_r_vector,
    grid_rows,
    h0F,
    koszul_chase,
    koszul_term_cohomology,
    kunneth,
    sheaf_chase,
    slot3,
)

__version__ = "0.1.0"
