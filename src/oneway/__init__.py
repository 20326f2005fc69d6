"""One-way functions on Cantor space, checkable at desk scale.

Exact cylinder measures, finite-prefix stream transducers with oracle-use
accounting, staged enumerations standing in for the halting set, the marker
constructions built on them, and the extraction adversaries that turn any
working inverter into a membership decision procedure.
"""

from .bitcore import (
    PartialAssignment,
    PrefixFreeSet,
    Word,
    check_word,
    comparable,
    pair,
    prefix_set_from_file,
    unpair,
)
from .constructions import (
    ConstructionHandle,
    Injection,
    MarkerStep,
    MarkerTrace,
    bit_select,
    double_injection,
    identity_injection,
    marker_run_v1,
    marker_run_v2,
    one_way_surjection,
    partial_injection,
    shift_injection,
    simple_one_way,
    stage_where_counter_reaches,
    surjection_injection,
    two_to_one_v1,
    two_to_one_v2,
    witness_function,
    z_builder_v1,
    z_builder_v2,
)
from .enumeration import (
    DecidedSet,
    StagedEnumeration,
    StagedStringEnumeration,
    collatz_toy,
    column_hit,
    decided_set_from_file,
    enumeration_from_file,
    string_enum_from_file,
)
from .errors import (
    ConsistencyError,
    DeskError,
    DivergenceError,
    HorizonError,
    InjectivityError,
    MeasureThresholdError,
    NotInRangeError,
    NotSingletonError,
    PrefixFreeError,
    SpecParseError,
    UseSoundnessError,
)
from .inversion import (
    DovetailLeaf,
    DovetailRecord,
    ExtractionVerdict,
    FiberCount,
    FiniteStageOutcome,
    InverterUnderTest,
    extract_randomized,
    extract_simple,
    extract_two_to_one,
    extract_two_to_one_v2,
    fiber_branch_count,
    inverts_at_finite_stage,
    preimage_tree,
    reference_inverter_simple,
    reference_inverter_surjection,
    reference_inverter_two_to_one,
    unique_path_invert,
)
from .streams import (
    DEFAULT_BUDGET,
    BitSource,
    EvalResult,
    OracleTape,
    RealFunction,
    Representation,
    UseSoundnessReport,
    column_source,
    columns_from_file,
    evaluate,
    evaluate_bit,
    finite,
    flipped_at,
    identity_function,
    interleaved,
    ones,
    output_source,
    periodic,
    random_source,
    selection,
    use_soundness_check,
    zeros,
)

__version__ = "0.1.0"
