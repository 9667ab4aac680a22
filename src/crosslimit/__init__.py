"""Contrastive identification and generation in the limit.

A learner observes unordered pairs of examples known to disagree under an
unknown binary target: each pair crosses the cut between the target's
positives and negatives, but which endpoint is positive stays hidden.  This
package implements the resulting theory over a decidable set algebra:

* `space` - residue-class-with-exceptions sets; exact membership,
  cardinality, emptiness and least elements;
* `classes` - hypotheses, explicit and parametric classes, the witness zoo;
* `streams` - text/informant/contrastive presentations, corruption,
  validity checking;
* `crossing` - common crossing graphs as membership-pattern cells:
  eliminability, gamma and shared presentations for pairs and families;
* `closure` - edge-induced version spaces, contrastive closure, hollow edge
  sets and the closure dimension;
* `learners` - identifiers and generators with a uniform step interface and
  a convergence-detecting run harness;
* `robust` - defect numbers, minimum-violation presentations, corrupted
  identification;
* `harness` - diamond-hierarchy classification with machine-checkable
  witnesses, worked-example reproductions, report emission;
* `acceptance` - the ten-criterion acceptance suite (also `crosslimit
  verify` on the command line).
"""

from .space import Cardinality, SymbolicSet, normalize_pair, parse_set_literal
from .classes import (
    CoSingletonClass,
    FamilyInfo,
    Hypothesis,
    HypothesisClass,
    augmented_class,
    block_class,
    build_witness,
    check_uus,
    co_singleton_class,
    disjoint_support_class,
    is_proper_nontrivial,
    load_class,
    overlapping_cover_class,
    pinned_core_class,
    punctured_class,
    save_class,
    six_cell_class,
)
from .streams import (
    Pair,
    Prefix,
    Stream,
    ValidityReport,
    canonical_contrastive,
    canonical_informant,
    canonical_text,
    corrupt,
    sampled_contrastive,
    synthetic_contrastive_from_text,
    validate,
)
from .crossing import (
    EliminabilityVerdict,
    PatternCells,
    delta_contains,
    eliminable,
    overlapping_cover,
    pair_cells,
    shared_presentation_family,
    shared_presentation_pair,
)
from .closure import (
    ClosureResult,
    DimensionReport,
    EdgeSet,
    closure_dimension,
    contrastive_closure,
    edge_version_space,
    is_hollow,
    positive_closure,
    safe_set,
)
from .learners import (
    AbsenceCountIdentifier,
    ChainGenerator,
    ClosureGenerator,
    EligibilityIdentifier,
    EventualCoreGenerator,
    FailureWitness,
    GoldInformantIdentifier,
    IdentifyThenGenerate,
    RunRecord,
    SafeCoreGenerator,
    TellTaleFamily,
    TextFromContrastiveIdentifier,
    compute_telltales,
    generator_breaker,
    run,
)
from .robust import (
    BlockTextIdentifier,
    DefectReport,
    DemoRecord,
    confusion_demo,
    defect,
    verify_forced_violations,
)
from .harness import Bounds, HierarchyVerdict, Report, Verdict, classify, emit_report, reproduce

__version__ = "0.1.0"
