"""gmi: a deterministic Grant Maturity Index scoring engine."""

from .errors import (
    DuplicateIndicator,
    EmptyCategory,
    GmiError,
    ParseError,
    PartialDataError,
    RubricRangeError,
    SchemaError,
    UnitError,
    UnknownCriterion,
    UnknownIndicator,
    ValueParseError,
)
from .ingest import (
    Observation,
    ProgramDataset,
    Qualifier,
    TypedValue,
    ValidationReport,
    ValueKind,
    coerce_unit,
    load_program_dataset,
    load_rates,
    parse_value,
    validate_dataset,
)
from .report import (
    parse_structured,
    render_comparison,
    render_validation,
)
from .rubric import (
    Criterion,
    RubricTemplate,
    builtin_template,
    collect_responses,
    render_template,
    rubric_to_unit,
)
from .schema import (
    Category,
    DataType,
    Direction,
    IndicatorDef,
    Kind,
    Schema,
    builtin_schema,
    dump_schema,
    load_schema,
)
from .scoring import (
    AuditRecord,
    CategoryTable,
    Excluded,
    GmiResult,
    ScoreMatrix,
    Stage,
    classify_maturity,
    compute_gmi,
    directional_score,
    load_category_table,
    minmax_normalize,
    score_category,
    score_category_table,
    score_datasets,
)

__version__ = "0.1.0"
