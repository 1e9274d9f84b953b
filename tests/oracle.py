"""Baseline answers from the reference evaluator, and forced routes.

:func:`repro.engine.reference.reference_fixpoint` is the tuple-at-a-time
semi-naive loop kept as a test oracle.  These helpers phrase its output the
way the production API answers, so a parity assertion is one ``==``.

``retrieve`` picks its own route; :func:`forced_retrieve` is how a test pins
one, by calling the producer under that route directly.
"""

from repro.engine.evaluate import (
    RetrieveResult,
    _distinct_answers,
    _seminaive_batch,
    query_conjunction,
)
from repro.engine.magic import magic_conjunction
from repro.engine.reference import reference_fixpoint
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import is_variable

#: Head predicate of the scratch rule a query is turned into.
ANSWER = "__answer"

#: The producers under ``retrieve``, by the names the parametrized test ids
#: have always carried: materialise the closure, or rewrite for the goal.
ROUTES = ("seminaive", "magic")


def forced_retrieve(route, kb, subject, qualifier=(), guard=None, cache=None):
    """``retrieve subject where qualifier`` on a forced route.

    ``"magic"`` calls :func:`magic_conjunction`, ``"seminaive"``
    :func:`_seminaive_batch` (through *cache* when given, never deferring
    to the goal); the batch becomes a :class:`RetrieveResult` the way
    ``retrieve`` makes one.
    """
    free, conjunction = query_conjunction(kb, subject, qualifier)
    if route == "magic":
        schema, batch = magic_conjunction(kb, conjunction, guard=guard)
    else:
        assert route == "seminaive", route
        schema, batch = _seminaive_batch(
            kb, conjunction, (), guard, cache, None, None
        )
    return RetrieveResult(
        subject=subject,
        variables=tuple(free),
        rows=_distinct_answers(schema, batch, free),
        diagnostics=guard.diagnostics() if guard is not None else None,
    )


def reference_rows(kb, predicate) -> set:
    """The derived rows of one IDB predicate, by the reference evaluator."""
    return set(reference_fixpoint(kb, [predicate])[predicate].rows())


def reference_answers(kb, subject, qualifier=(), negated=()) -> set:
    """What ``retrieve subject where qualifier and not negated`` must return.

    The query becomes one more rule — ``__answer(free variables) <- ...`` —
    of a scratch copy of *kb*, and the reference evaluator materialises its
    head: bindings of the subject's distinct variables in first-occurrence
    order, exactly the rows of a :class:`~repro.engine.RetrieveResult`.
    """
    free = []
    for arg in subject.args:
        if is_variable(arg) and arg not in free:
            free.append(arg)
    body = list(qualifier)
    if kb.has_predicate(subject.predicate):
        body.insert(0, subject)
    scratch = kb.copy()
    scratch.add_rule(Rule(Atom(ANSWER, free), body, list(negated)))
    return reference_rows(scratch, ANSWER)
