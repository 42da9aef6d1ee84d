"""Benchmark-guided exploratory projection pursuit.

Search low-dimensional orthonormal projections in which a dataset looks
most different from a user-chosen benchmark sample, where "different" is
the integrated discrepancy between the spatial distribution functions of
the two projected point clouds.
"""

from .benchmarks import (
    GENERATORS,
    BenchmarkSpec,
    build_benchmark,
    class_split,
    lcg_triplets,
    permutation_benchmark,
)
from .dataio import filter_rows, fmt_float, ingest_csv, standardize_columns, write_csv
from .errors import ConfigError, DataError, PipelineError, PursuitError
from .frames import (
    DataMatrix,
    ProjectedSample,
    ProjectionFrame,
    orthonormalize,
    project,
    split_by_row_norm,
    subset_rows,
)
from .optimize import (
    AnnealConfig,
    GeodesicConfig,
    SearchConfig,
    SolutionProjection,
    anneal_search,
    flag_duplicates,
    geodesic_search,
    largest_principal_angle,
    random_frame,
    run_search,
)
from .pipeline import (
    RunManifest,
    SolutionReport,
    SplitProjection,
    dumps_canonical,
    run,
    split_and_project,
)
from .projection_index import (
    IndexConfig,
    IndexValue,
    ball_volume,
    index,
    map_to_ball,
    refine_index,
)
from .sobol import MAX_DIMENSION, SobolStream
from .spatial import (
    RegionSpec,
    SpatialMedianResult,
    combined_region,
    data_radius,
    estimate_sdf,
    estimate_sdf_batch,
    spatial_median,
)
from .svgplot import emit_svg

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig",
    "BenchmarkSpec",
    "ConfigError",
    "DataError",
    "DataMatrix",
    "GENERATORS",
    "GeodesicConfig",
    "IndexConfig",
    "IndexValue",
    "MAX_DIMENSION",
    "PipelineError",
    "ProjectedSample",
    "ProjectionFrame",
    "PursuitError",
    "RegionSpec",
    "RunManifest",
    "SearchConfig",
    "SobolStream",
    "SolutionProjection",
    "SolutionReport",
    "SpatialMedianResult",
    "SplitProjection",
    "anneal_search",
    "ball_volume",
    "build_benchmark",
    "class_split",
    "combined_region",
    "data_radius",
    "dumps_canonical",
    "emit_svg",
    "estimate_sdf",
    "estimate_sdf_batch",
    "filter_rows",
    "flag_duplicates",
    "fmt_float",
    "geodesic_search",
    "index",
    "ingest_csv",
    "largest_principal_angle",
    "lcg_triplets",
    "map_to_ball",
    "orthonormalize",
    "permutation_benchmark",
    "project",
    "random_frame",
    "refine_index",
    "run",
    "run_search",
    "spatial_median",
    "split_and_project",
    "split_by_row_norm",
    "standardize_columns",
    "subset_rows",
    "write_csv",
]
