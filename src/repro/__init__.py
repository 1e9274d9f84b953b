"""repro — a reproduction of "Querying Database Knowledge" (Motro & Yuan,
SIGMOD 1990).

A knowledge-rich (deductive) database in pure Python, with the paper's twin
query statements behind one coherent instrument:

* ``retrieve p where psi`` — data queries, answered with data (semi-naive
  bottom-up evaluation, optionally over a magic-sets rewriting; stratified
  negation in rules and qualifiers);
* ``describe p where psi`` — knowledge queries, answered with *rules*
  describing what the concept ``p`` means under the circumstances ``psi``
  (Algorithms 1 and 2, with the Imielinski transformation, tag bounds and
  typing guard for recursion);
* the section 6 extensions: ``where necessary``, negated hypotheses
  (necessity tests), subjectless describe (possibility tests), wildcard
  describe, disjunctive hypotheses, and ``compare``;
* the surrounding system: proof trees (``explain``), intensional answers,
  rule-base lint (``analyze``, ``dbk lint``), a materialized view cache,
  and persistence.

Quick start::

    from repro import Session
    from repro.datasets import university_kb

    session = Session(university_kb())
    print(session.query("retrieve honor(X) where enroll(X, databases)"))
    print(session.query("describe honor(X)"))
"""

from repro.errors import (
    EvaluationLimitError,
    QueryCancelled,
    ReproError,
    ResourceExhausted,
    SearchBudgetExceeded,
)
from repro.analysis import AnalysisReport, Diagnostic, Severity, SourceSpan
from repro.analysis.analyzer import analyze, analyze_source
from repro.catalog.database import KnowledgeBase
from repro.catalog.loader import kb_from_program, load_file, load_program
from repro.catalog.persist import export_csv, import_csv, load_kb, save_kb
from repro.core.answers import DescribeResult, KnowledgeAnswer
from repro.core.compare import ConceptComparison, compare_concepts
from repro.core.describe import describe
from repro.core.disjunction import describe_disjunctive
from repro.core.intensional import intensional_answer
from repro.core.necessity import describe_necessary, describe_without
from repro.core.possibility import is_possible
from repro.core.transform import transform_knowledge_base
from repro.core.wildcard import describe_wildcard
from repro.engine.evaluate import RetrieveResult, retrieve
from repro.engine.guard import CancellationToken, Diagnostics, ResourceGuard
from repro.engine.provenance import explain, explain_all
from repro.lang.parser import parse_atom, parse_body, parse_rule, parse_statement
from repro.logic.atoms import Atom
from repro.logic.clauses import IntegrityConstraint, Rule
from repro.logic.terms import Constant, Variable
from repro.session import Session

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "SourceSpan",
    "analyze",
    "analyze_source",
    "ResourceExhausted",
    "EvaluationLimitError",
    "SearchBudgetExceeded",
    "QueryCancelled",
    "ResourceGuard",
    "CancellationToken",
    "Diagnostics",
    "KnowledgeBase",
    "kb_from_program",
    "load_file",
    "load_program",
    "export_csv",
    "import_csv",
    "load_kb",
    "save_kb",
    "DescribeResult",
    "KnowledgeAnswer",
    "ConceptComparison",
    "compare_concepts",
    "describe",
    "describe_disjunctive",
    "intensional_answer",
    "describe_necessary",
    "describe_without",
    "is_possible",
    "transform_knowledge_base",
    "describe_wildcard",
    "RetrieveResult",
    "retrieve",
    "explain",
    "explain_all",
    "parse_atom",
    "parse_body",
    "parse_rule",
    "parse_statement",
    "Atom",
    "IntegrityConstraint",
    "Rule",
    "Constant",
    "Variable",
    "Session",
    "__version__",
]
