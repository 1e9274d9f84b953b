"""The abstract interpretation over-approximates what evaluation derives.

One property over the randomized layered programs the differential matrix
uses — **soundness**: the inferred per-column domains cover the actual
derived relations (every constant of every derived row lies in its
column's domain).  The lint pass (KB701, KB702, KB704) and the ``explain``
analysis block report these domains, so this is what keeps them honest;
evaluation itself never reads them.  (The analysis makes no row estimate:
the one cardinality estimator is the planner's, over live statistics.)
"""

import os

from hypothesis import given, settings

from repro.analysis.absint.summary import summary_for
from repro.engine import retrieve
from repro.logic.atoms import Atom

from tests.property.test_engine_differential import (
    VARIABLES,
    positive_layered_program,
)

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30"))


def _scan(kb, predicate):
    arity = kb.schema(predicate).arity
    subject = Atom(predicate, VARIABLES[:arity])
    return retrieve(kb, subject).to_set()


@settings(max_examples=EXAMPLES, deadline=None)
@given(positive_layered_program())
def test_inferred_domains_cover_derived_rows(program):
    kb, idb = program
    summary = summary_for(kb)
    for predicate in idb:
        domains = summary.column_domains(predicate)
        assert domains is not None
        rows = _scan(kb, predicate)
        for row in rows:
            for domain, value in zip(domains, row):
                assert domain.contains(value), (
                    f"{predicate}: derived value {value!r} outside the "
                    f"inferred domain {domain.describe()}"
                )
