"""The bundled product of the abstract interpretation.

:func:`summarize` runs all three domains — binding modes, type/domain
inference, cardinality estimation — over one :class:`ProgramModel` and
bundles the results into an :class:`AnalysisSummary`.  :func:`summary_for`
is the knowledge-base-facing entry point: it analyses the knowledge base
as it stands, every time it is called.  Its one caller is ``explain``
(:mod:`repro.obs.explain`), which renders the per-predicate block once per
statement; the lint pass (:mod:`.lintpass`) runs type inference directly.

Nothing under :mod:`repro.engine` reads a summary: join ordering and
kernel lowering use live relation statistics only.  Nothing is cached
here either — the type and cardinality seeds are live statistics read
through :attr:`ProgramModel.source_kb`, so a summary is valid for exactly
the ``(rules, EDB versions)`` state the view cache already answers from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.analysis.absint.cardinality import (
    CardEstimate,
    infer_cardinalities,
    recursion_profile,
)
from repro.analysis.absint.lattice import ColumnDomain
from repro.analysis.absint.modes import infer_modes
from repro.analysis.absint.typeinfer import infer_types
from repro.analysis.model import ProgramModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.database import KnowledgeBase

__all__ = ["AnalysisSummary", "summarize", "summary_for"]


@dataclass(frozen=True)
class AnalysisSummary:
    """What the three domains inferred, per predicate."""

    modes: Mapping[str, frozenset[str]]
    types: Mapping[str, tuple[ColumnDomain, ...]]
    cards: Mapping[str, CardEstimate]
    recursion: Mapping[str, str]

    # -- lookups -----------------------------------------------------------------

    def column_domains(self, predicate: str) -> tuple[ColumnDomain, ...] | None:
        return self.types.get(predicate)

    def estimated_rows(self, predicate: str) -> float | None:
        estimate = self.cards.get(predicate)
        return None if estimate is None else estimate.rows

    def adornments(self, predicate: str) -> frozenset[str]:
        return self.modes.get(predicate, frozenset())


def summarize(model: ProgramModel) -> AnalysisSummary:
    """Run all three abstract domains over one model."""
    types = infer_types(model)
    return AnalysisSummary(
        modes=infer_modes(model),
        types=types,
        cards=infer_cardinalities(model, types),
        recursion=recursion_profile(model),
    )


def summary_for(kb: "KnowledgeBase") -> AnalysisSummary:
    """Analyse *kb* as it stands now (a fresh run per call)."""
    return summarize(ProgramModel.from_kb(kb))
