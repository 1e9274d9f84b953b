"""Knowledge-query core: the paper's describe machinery and extensions."""

from repro.core.answers import DescribeResult, KnowledgeAnswer, SearchStatistics
from repro.core.algorithm1 import run_algorithm1
from repro.core.algorithm2 import run_algorithm2
from repro.core.compare import ConceptComparison, compare_concepts
from repro.core.describe import describe
from repro.core.disjunction import DisjunctiveDescribeResult, describe_disjunctive
from repro.core.intensional import IntensionalAnswer, intensional_answer
from repro.core.necessity import (
    NecessityResult,
    describe_necessary,
    describe_without,
)
from repro.core.possibility import PossibilityResult, is_possible
from repro.core.redundancy import eliminate_redundant, equivalent, subsumes
from repro.core.search import DerivationSearch, FullExpansion
from repro.core.transform import (
    TransformedProgram,
    transform_knowledge_base,
    transform_rules,
    transitivity_rule,
)
from repro.core.wildcard import describe_wildcard

__all__ = [
    "DescribeResult",
    "KnowledgeAnswer",
    "SearchStatistics",
    "run_algorithm1",
    "run_algorithm2",
    "ConceptComparison",
    "compare_concepts",
    "describe",
    "DisjunctiveDescribeResult",
    "describe_disjunctive",
    "IntensionalAnswer",
    "intensional_answer",
    "NecessityResult",
    "describe_necessary",
    "describe_without",
    "PossibilityResult",
    "is_possible",
    "eliminate_redundant",
    "equivalent",
    "subsumes",
    "DerivationSearch",
    "FullExpansion",
    "TransformedProgram",
    "transform_knowledge_base",
    "transform_rules",
    "transitivity_rule",
    "describe_wildcard",
]
