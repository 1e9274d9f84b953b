"""Abstract interpretation over rule bases: binding modes and column types.

One fixpoint driver (:mod:`.fixpoint`) runs two abstract domains:

* :mod:`.modes` — binding-mode (adornment) propagation under the same
  left-to-right SIPS the magic-sets rewrite uses;
* :mod:`.typeinfer` — per-column type/domain inference over the
  :mod:`.lattice` of kinds ⊔ interval/enum facets, seeded from EDB columns.

There is no cardinality domain: row estimates have one source in the
process, the live relation statistics of
:func:`repro.engine.plan.relation_cost_estimator`
(``docs/ALGORITHMS.md`` section 12 records what was removed and the
condition for its return).

:mod:`.summary` bundles the results, with the dependency graph's
recursion classes, into the
:class:`~repro.analysis.absint.summary.AnalysisSummary` that ``explain``
renders; :mod:`.lintpass` turns type inference into the ``KB7xx``
diagnostics.  The evaluation engine consumes neither (it shares only
:meth:`.modes.ModeTable.schedule_rule` with the magic rewrite).  Importing
this package registers the lint pass.
"""

from repro.analysis.absint import lintpass as lintpass  # registers the pass
from repro.analysis.absint.lattice import BOTTOM, TOP, ColumnDomain
from repro.analysis.absint.modes import ModeTable, adornment_of, infer_modes
from repro.analysis.absint.summary import (
    AnalysisSummary,
    recursion_profile,
    summarize,
    summary_for,
)
from repro.analysis.absint.typeinfer import infer_types

__all__ = [
    "AnalysisSummary",
    "BOTTOM",
    "ColumnDomain",
    "ModeTable",
    "TOP",
    "adornment_of",
    "infer_modes",
    "infer_types",
    "recursion_profile",
    "summarize",
    "summary_for",
]
