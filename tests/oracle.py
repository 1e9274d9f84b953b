"""Baseline answers from the reference evaluator.

:func:`repro.engine.reference.reference_fixpoint` is the tuple-at-a-time
semi-naive loop kept as a test oracle.  These helpers phrase its output the
way the production API answers, so a parity assertion is one ``==``.
"""

from repro.engine.reference import reference_fixpoint
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import is_variable

#: Head predicate of the scratch rule a query is turned into.
ANSWER = "__answer"


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
