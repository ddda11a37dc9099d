"""Local prime factor decomposition of connected graphs under the strong product."""

from .graph import (
    DisconnectedError,
    Graph,
    GraphError,
    VertexSet,
    complete_graph,
    cycle_graph,
    edge_key,
    path_graph,
)
from .products import (
    Coordinatization,
    cartesian_edge_set,
    cartesian_index,
    cartesian_product,
    strong_product,
)
from .sclasses import (
    NotThinError,
    QuotientResult,
    backbone,
    is_thin,
    quotient,
)
from .isomorphism import canonical_form, find_isomorphism, is_isomorphic
from .factorize import (
    DEFAULT_SIZE_CAP,
    FactorSizeError,
    LocalFactorization,
    NeighborhoodCache,
    NeighborhoodFactorization,
    factor_exact,
    factor_neighborhood,
    reconstructs,
)
from .coloring import (
    ColoringError,
    PartialProductColoring,
    color_fibers_from,
)
from .skeleton import (
    ColoredSkeleton,
    SkeletonError,
    build_skeleton,
    merge_parallel_colors,
    n2_sweep,
    product_coordinates,
)
from .recognize import RecognitionReport, pfd_fast, recognize, verify_product
from .oracle import (
    GenerationError,
    ORACLE_CAP,
    ProductInstance,
    oracle_pfd,
    random_connected_graph,
    random_product_instance,
    random_thin_graph,
    twisted_instance,
)

__version__ = "0.1.0"
