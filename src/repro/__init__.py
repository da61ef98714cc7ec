"""repro — An Algebraic Query Model for Retrieval of XML Fragments.

A faithful, production-quality reproduction of Sujeet Pradhan's VLDB
2006 paper: a database-style algebra (selection + fragment joins) for
keyword search over document-centric XML, with anti-monotonic filter
push-down, fixed-point evaluation via set reduction (Theorems 1–3), a
relational storage backend, classic LCA-based baselines, and a full
benchmark harness.

Quickstart
----------
>>> import repro
>>> doc = repro.parse("<a><b>red apple</b><c><d>green pear</d>"
...                   "<e>red pear</e></c></a>")
>>> result = repro.answer(doc, "red", "pear",
...                       predicate=repro.SizeAtMost(3))
>>> sorted(f.label() for f in result.fragments)
['⟨n2,n3,n4⟩', '⟨n4⟩']

See ``examples/quickstart.py`` for a guided tour.
"""

from .core import (And, CalibrationPoint, ContainsKeyword, CostModel,
                   EqualDepth, ExcludesKeyword, Filter, FixedPoint,
                   Fragment, HeightAtMost, JoinCache, KeywordScan,
                   LeafCountAtMost, Not, OperationStats,
                   OptimizerSettings, Or, PairwiseJoin, PlanEvaluator,
                   PowersetJoin, PredicateFilter, Query, QueryResult,
                   RootDepthAtLeast, Select, SizeAtLeast, SizeAtMost,
                   Strategy, TagsWithin, TrueFilter, WidthAtMost, answer,
                   calibrate_threshold, count_subfragments,
                   covers_all_terms, estimate_reduction_factor, evaluate,
                   explain, find_anti_monotonicity_violation, fixed_point,
                   fixed_point_bounded, fragment_join, initial_plan,
                   is_answer, is_fixed_point, iter_all_fragments,
                   iter_subfragments, iterate_pairwise, join_all,
                   keyword_fragments, multiway_powerset_join, optimize,
                   pairwise_join, powerset_join, push_down_selections,
                   parse_filter, parse_query, reduction_count,
                   reduction_factor, rewrite_powerset, run_plan, select,
                   set_reduce, stream_top_k, verify_anti_monotonic)
from .collection import (CollectionHit, CollectionResult,
                         DocumentCollection)
from .core.presentation import (AnswerGroup, OverlapPolicy, arrange,
                                overlap, overlap_matrix)
from .errors import (AdmissionRejected, BudgetExceeded,
                     CrossDocumentError, DocumentError, FragmentError,
                     ParseError, PlanError, QueryError, ReproError,
                     StorageError, WorkloadError)
from .exec import BatchRunner, ParallelExecutor
from .guard import (AdmissionDecision, AdmissionPolicy, CircuitBreaker,
                    QueryBudget, screen)
from .index import InvertedIndex, Tokenizer
from .obs import NOOP, MetricsRegistry, Observability, SpanTracer
from .ranking import (FragmentScorer, ScoredFragment, compactness_score,
                      proximity_score, tf_idf_score)
from .storage import RelationalQueryEngine, RelationalStore
from .xmltree import (Document, DocumentBuilder, document_to_xml,
                      fragment_outline, fragment_to_xml, parse, parse_file)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # documents
    "Document", "DocumentBuilder", "parse", "parse_file",
    "document_to_xml", "fragment_to_xml", "fragment_outline",
    "InvertedIndex", "Tokenizer",
    # algebra
    "Fragment", "fragment_join", "join_all", "pairwise_join",
    "powerset_join", "multiway_powerset_join", "JoinCache",
    "fixed_point", "fixed_point_bounded", "iterate_pairwise",
    "set_reduce", "reduction_count", "is_fixed_point",
    # filters
    "Filter", "TrueFilter", "SizeAtMost", "SizeAtLeast", "HeightAtMost",
    "WidthAtMost", "ContainsKeyword", "ExcludesKeyword", "EqualDepth",
    "RootDepthAtLeast", "TagsWithin", "LeafCountAtMost", "And", "Or",
    "Not", "PredicateFilter", "select",
    # queries
    "Query", "QueryResult", "keyword_fragments", "is_answer",
    "covers_all_terms", "Strategy", "evaluate", "answer",
    "stream_top_k", "parse_query", "parse_filter",
    # plans & optimisation
    "KeywordScan", "Select", "PairwiseJoin", "FixedPoint",
    "PowersetJoin", "initial_plan", "explain", "optimize",
    "OptimizerSettings", "push_down_selections", "rewrite_powerset",
    "PlanEvaluator", "run_plan", "CostModel", "OperationStats",
    "reduction_factor", "estimate_reduction_factor", "CalibrationPoint",
    "calibrate_threshold",
    # verification helpers
    "iter_subfragments", "iter_all_fragments", "count_subfragments",
    "find_anti_monotonicity_violation", "verify_anti_monotonic",
    # storage
    "RelationalStore", "RelationalQueryEngine",
    # collections
    "DocumentCollection", "CollectionResult", "CollectionHit",
    # parallel execution
    "ParallelExecutor", "BatchRunner",
    # presentation (§5 overlapping answers)
    "OverlapPolicy", "AnswerGroup", "arrange", "overlap",
    "overlap_matrix",
    # ranking
    "FragmentScorer", "ScoredFragment", "tf_idf_score",
    "compactness_score", "proximity_score",
    # observability
    "Observability", "NOOP", "SpanTracer", "MetricsRegistry",
    # guard rails
    "QueryBudget", "AdmissionPolicy", "AdmissionDecision", "screen",
    "CircuitBreaker",
    # errors
    "ReproError", "DocumentError", "ParseError", "FragmentError",
    "CrossDocumentError", "PlanError", "QueryError", "StorageError",
    "WorkloadError", "BudgetExceeded", "AdmissionRejected",
]
