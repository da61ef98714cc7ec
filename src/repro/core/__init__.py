"""The paper's algebraic query model: fragments, operations, filters,
queries, plans, optimisation and evaluation strategies."""

from .algebra import (JoinCache, fragment_join, join_all,
                      multiway_powerset_join, pairwise_join, powerset_join)
from .cost import CostEstimate, CostModel, DEFAULT_RF_THRESHOLD
from .enumeration import (count_subfragments,
                          find_anti_monotonicity_violation,
                          iter_all_fragments, iter_subfragments,
                          verify_anti_monotonic)
from .evaluator import (OperatorRunStats, PlanAnalysis, PlanEvaluator,
                        run_plan)
from .filters import (And, ContainsKeyword, EqualDepth, ExcludesKeyword,
                      Filter, HeightAtMost, LeafCountAtMost, Not, Or,
                      PredicateFilter, RootDepthAtLeast, SizeAtLeast,
                      SizeAtMost, TagsWithin, TrueFilter, WidthAtMost,
                      select)
from .fragment import Fragment
from .optimizer import (OptimizerSettings, optimize, push_down_selections,
                        rewrite_powerset)
from .plan import (FixedPoint, KeywordScan, PairwiseJoin, PlanNode,
                   PowersetJoin, Select, explain, initial_plan)
from .query import (Query, QueryResult, covers_all_terms, is_answer,
                    keyword_fragments)
from .queryparser import parse_filter, parse_query
from .semantics import (definition8_answers, powerset_semantics_answers,
                        semantics_gap)
from .reduce import (fixed_point, fixed_point_bounded, is_fixed_point,
                     iterate_pairwise, reduction_count, set_reduce)
from .presentation import (AnswerGroup, OverlapPolicy, arrange, overlap,
                            overlap_matrix)
from .statistics import (CalibrationPoint, calibrate_threshold,
                         estimate_reduction_factor, reduction_factor)
from .stats import OperationStats
from .strategies import (Strategy, answer, evaluate, explain_analyze,
                         plan_for)
from .streaming import (FragmentStream, fragment_order_key, hit_order_key,
                        ranked_order_key, stream_evaluate, stream_top_k)
from .witnesses import highlighted_outline, missing_terms, witnesses

__all__ = [
    # fragments & algebra
    "Fragment", "fragment_join", "join_all", "pairwise_join",
    "powerset_join", "multiway_powerset_join", "JoinCache",
    # fixed points & reduction
    "fixed_point", "fixed_point_bounded", "iterate_pairwise",
    "set_reduce", "reduction_count", "is_fixed_point",
    # filters & selection
    "Filter", "TrueFilter", "SizeAtMost", "SizeAtLeast", "HeightAtMost",
    "WidthAtMost", "ContainsKeyword", "ExcludesKeyword", "EqualDepth",
    "RootDepthAtLeast", "TagsWithin", "LeafCountAtMost", "And", "Or",
    "Not", "PredicateFilter", "select",
    # presentation & retrieval helpers
    "OverlapPolicy", "AnswerGroup", "arrange", "overlap",
    "overlap_matrix",
    # streaming pipeline
    "FragmentStream", "stream_evaluate", "stream_top_k",
    "fragment_order_key", "hit_order_key", "ranked_order_key",
    # query language & oracles
    "parse_query", "parse_filter", "definition8_answers",
    "powerset_semantics_answers", "semantics_gap",
    # provenance
    "witnesses", "missing_terms", "highlighted_outline",
    # queries & evaluation
    "Query", "QueryResult", "keyword_fragments", "is_answer",
    "covers_all_terms", "Strategy", "evaluate", "answer",
    "plan_for", "explain_analyze",
    # plans & optimisation
    "PlanNode", "KeywordScan", "Select", "PairwiseJoin", "FixedPoint",
    "PowersetJoin", "initial_plan", "explain", "optimize",
    "OptimizerSettings", "push_down_selections", "rewrite_powerset",
    "PlanEvaluator", "run_plan", "PlanAnalysis", "OperatorRunStats",
    # cost & statistics
    "CostModel", "CostEstimate", "DEFAULT_RF_THRESHOLD",
    "reduction_factor", "estimate_reduction_factor", "CalibrationPoint",
    "calibrate_threshold", "OperationStats",
    # enumeration / verification
    "iter_subfragments", "iter_all_fragments", "count_subfragments",
    "find_anti_monotonicity_violation", "verify_anti_monotonic",
]
