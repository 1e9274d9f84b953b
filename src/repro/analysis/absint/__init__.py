"""Abstract interpretation over rule bases: modes, types, cardinalities.

One fixpoint driver (:mod:`.fixpoint`) runs three abstract domains:

* :mod:`.modes` — binding-mode (adornment) propagation under the same
  left-to-right SIPS the magic-sets rewrite uses;
* :mod:`.typeinfer` — per-column type/domain inference over the
  :mod:`.lattice` of kinds ⊔ interval/enum facets, seeded from EDB columns;
* :mod:`.cardinality` — row/distinct estimates with cap widening, plus
  recursion-structure classification.

:mod:`.summary` bundles the results into the
:class:`~repro.analysis.absint.summary.AnalysisSummary` that ``explain``
renders; :mod:`.lintpass` turns the same inference into the ``KB7xx``
diagnostics.  The evaluation engine consumes neither (it shares only
:meth:`.modes.ModeTable.schedule_rule` with the magic rewrite).  Importing
this package registers the lint pass.
"""

from repro.analysis.absint import lintpass as lintpass  # registers the pass
from repro.analysis.absint.cardinality import (
    CardEstimate,
    infer_cardinalities,
    recursion_profile,
)
from repro.analysis.absint.lattice import BOTTOM, TOP, ColumnDomain
from repro.analysis.absint.modes import ModeTable, adornment_of, infer_modes
from repro.analysis.absint.summary import (
    AnalysisSummary,
    summarize,
    summary_for,
)
from repro.analysis.absint.typeinfer import infer_types

__all__ = [
    "AnalysisSummary",
    "BOTTOM",
    "CardEstimate",
    "ColumnDomain",
    "ModeTable",
    "TOP",
    "adornment_of",
    "infer_cardinalities",
    "infer_modes",
    "infer_types",
    "recursion_profile",
    "summarize",
    "summary_for",
]
