"""Disaster/climate analytics: corpus building, rank correlation with
explicit tie handling, and deterministic chart-data emission.

The usual flow is parse -> corpus -> series -> correlate -> emit:

    >>> import disclim
    >>> corpus = disclim.load_bundled_corpus()
    >>> table = disclim.align_union(corpus.default_series("count"))
    >>> matrix = disclim.correlation_matrix(table, "pearson")
    >>> round(matrix.cell("Temperature Anomaly", "All natural disasters"), 3)
    0.865
"""

from .charts import (
    ChartDocument,
    ChartKind,
    emit_chart,
    ramp_position,
    render_heatmap_svg,
)
from .corpus import (
    AnnualSeries,
    Corpus,
    JoinedTable,
    align_union,
    annual_totals,
    annualize_anomaly,
    build_corpus,
    check_aggregate_consistency,
    integrate_on_year,
    load_bundled_corpus,
    load_corpus,
    save_corpus,
)
from .errors import (
    AnalysisError,
    DataError,
    DisclimError,
    EmptyIntersectionError,
    TooFewPairsError,
    ZeroVarianceError,
)
from .ingest import (
    RawTable,
    SchemaKind,
    coerce_records,
    detect_schema,
    parse_delimited,
)
from .isocodes import IsoCodeTable, load_default_codes
from .metrics import (
    NewsIntensity,
    ShareTable,
    SunburstNode,
    deaths_and_affected,
    news_intensity,
    overall_share,
    region_totals,
    share_of_total,
    share_table,
    shares_by_group,
    sunburst_deaths_affected,
)
from .records import AnomalyRecord, DisasterRecord, DisasterType, TypeRecord
from .stats import (
    METHODS,
    CorrelationMatrix,
    correlation_matrix,
    kendall,
    pearson,
    rank_average_ties,
    spearman,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AnnualSeries",
    "AnomalyRecord",
    "ChartDocument",
    "ChartKind",
    "Corpus",
    "CorrelationMatrix",
    "DataError",
    "DisasterRecord",
    "DisasterType",
    "DisclimError",
    "EmptyIntersectionError",
    "IsoCodeTable",
    "JoinedTable",
    "METHODS",
    "NewsIntensity",
    "RawTable",
    "SchemaKind",
    "ShareTable",
    "SunburstNode",
    "TooFewPairsError",
    "TypeRecord",
    "ZeroVarianceError",
    "align_union",
    "annual_totals",
    "annualize_anomaly",
    "build_corpus",
    "check_aggregate_consistency",
    "coerce_records",
    "correlation_matrix",
    "deaths_and_affected",
    "detect_schema",
    "emit_chart",
    "integrate_on_year",
    "kendall",
    "load_bundled_corpus",
    "load_corpus",
    "load_default_codes",
    "news_intensity",
    "overall_share",
    "parse_delimited",
    "pearson",
    "ramp_position",
    "rank_average_ties",
    "region_totals",
    "render_heatmap_svg",
    "save_corpus",
    "share_of_total",
    "share_table",
    "shares_by_group",
    "spearman",
    "sunburst_deaths_affected",
]
