"""Loading knowledge bases from definition files.

A definition file mixes facts, rules and integrity constraints in the
surface language (``%`` comments allowed)::

    % facts
    student(ann, math, 3.9).
    % rules
    honor(X) <- student(X, Y, Z) and (Z > 3.7).
    % constraints
    not (honor(X) and student(X, Y, Z) and (Z < 3.0)).

Ground bodiless clauses are stored as EDB facts (their predicate is
declared on first use); everything else becomes IDB rules/constraints.
:func:`define` is that dispatch, for one statement; :func:`load_statements`
runs it over a program in one transaction.  Every way in — these
functions, ``Session.load``, a definition typed at ``Session.query`` and a
served ``POST /commit`` — goes through them.

Loading never runs the static analyzer.  A caller that wants a program
checked first runs :func:`repro.analysis.analyzer.analyze_source` (or
``dbk lint``) on it and decides from the report.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import CatalogError, ReproError
from repro.catalog.database import KnowledgeBase
from repro.lang.ast import ConstraintStatement, RuleStatement, Statement
from repro.lang.parser import parse_program


def define(kb: KnowledgeBase, statement: RuleStatement | ConstraintStatement) -> str:
    """Add one definition to *kb*; returns what it was (``stored`` a fact,
    ``defined`` a rule, ``constrained``)."""
    if isinstance(statement, ConstraintStatement):
        kb.add_constraint(statement.constraint)
        return "constrained"
    rule = statement.rule
    if rule.is_fact():
        predicate = rule.head.predicate
        if not kb.has_predicate(predicate):
            kb.declare_edb(predicate, rule.head.arity)
        kb.add_fact(predicate, *rule.head.args)
        return "stored"
    kb.add_rule(rule)
    return "defined"


def load_statements(
    kb: KnowledgeBase,
    statements: Iterable[Statement],
    error: type[ReproError] = CatalogError,
) -> int:
    """:func:`define` each of *statements* in *kb*, atomically; returns the
    count.  A query among them raises *error*; it, or any other failure
    part-way through, leaves *kb* in its pre-load state."""
    count = 0
    with kb.transaction():
        for statement in statements:
            if not isinstance(statement, (RuleStatement, ConstraintStatement)):
                raise error(f"a load takes definitions only, not queries: {statement}")
            define(kb, statement)
            count += 1
    return count


def load_program(kb: KnowledgeBase, source: str) -> int:
    """Load definitions from *source* into *kb*, atomically; returns the count.

    The whole program lands or none of it does: a parse error, an invalid
    rule (arity clash, recursion-discipline violation), a query, or any
    other failure part-way through restores *kb* to its pre-load state.
    """
    return load_statements(kb, parse_program(source).statements)


def load_file(kb: KnowledgeBase, path: str) -> int:
    """Load definitions from a file into *kb*; returns the count."""
    with open(path) as handle:
        return load_program(kb, handle.read())


def kb_from_program(source: str, name: str = "loaded") -> KnowledgeBase:
    """Build a fresh knowledge base from definition text."""
    kb = KnowledgeBase(name)
    load_program(kb, source)
    return kb
