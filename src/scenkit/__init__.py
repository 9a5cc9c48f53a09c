"""scenkit: three-level scenario pipeline for automated-vehicle test generation.

Functional scenarios (vocabulary-grounded controlled language) are lowered to
logical scenarios (parameter ranges with constraints) and concretized into
fully grounded scenarios, which are then augmented into executable test cases.
"""

from .concretize import (
    ConcreteScenario,
    CoverageReport,
    boundary_values,
    check_concrete,
    coverage_metrics,
    derive_seed,
    equivalence_classes,
    pairwise_cover,
    sample_random,
)
from .functional import (
    AttributeAssignment,
    EntityInstance,
    FunctionalScenario,
    RelationPhrase,
    check_consistency,
    parse_functional,
)
from .logical import (
    Constraint,
    Correlation,
    Distribution,
    Inequality,
    LogicalScenario,
    Parameter,
    deserialize_logical,
    serialize_logical,
    validate_logical,
)
from .lowering import ParameterCatalog, load_parameter_catalog, lower_to_logical
from .testcase import (
    ExpectedBehavior,
    TestCase,
    TimeSeries,
    assemble_test_case,
    export_suite,
    synthesize_traces,
)
from .vocabulary import Term, Vocabulary, load_vocabulary, serialize_vocabulary

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
