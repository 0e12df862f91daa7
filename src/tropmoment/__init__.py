"""tropmoment: exact desk-scale invariants of tropical abelian varieties,
metric graphs, and semistable elliptic curve heights.

Everything non-archimedean is exact (``fractions.Fraction`` results; inner
products, theta values and the Voronoi cell kernel run in integers on one
integer Gram per lattice and divide once); archimedean series use binary64
floats with reported truncation bounds.
"""

from .heights import (
    KAPPA0,
    EllipticPlaces,
    HeightReport,
    NonArchPlace,
    SeriesValue,
    arch_local_invariant,
    faltings_height_elliptic,
    function_field_height,
    height_identity_report,
    height_identity_rhs,
    log_abs_delta,
    nonarch_local_invariant,
)
from .lattice import (
    GramLattice,
    closest_vector,
    closest_vectors_all,
    inner,
    norm_sq,
    relevant_vectors,
    validate,
)
from .metricgraph import (
    Edge,
    GraphPoint,
    MetricGraph,
    cycle_basis,
    effective_resistance,
    graph_second_moment,
    jacobian_gram,
    make_graph,
    moment_identity_residual,
    tau,
    total_length,
)
from .neron import (
    b2,
    component_multiplicity,
    tate_local_height,
    tate_local_height_tropical,
    tate_theta_log_abs,
)
from .polytope import (
    HalfSpace,
    Polytope,
    second_moment,
    star_triangulation,
    volume,
    voronoi_cell,
)
from .troptheta import (
    functional_equation_residual,
    moment_by_quadrature,
    torus_reduce,
    trop_theta,
    trop_theta_norm,
    trop_theta_norm_shifted0,
    trop_theta_shifted,
    trop_theta_shifted0,
)

__version__ = "0.1.0"
