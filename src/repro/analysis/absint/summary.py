"""The bundled product of the abstract interpretation.

:func:`summarize` runs the two abstract domains — binding modes and
type/domain inference — over one :class:`ProgramModel`, classifies the
recursive predicates from the dependency graph (:func:`recursion_profile`)
and bundles the results into an :class:`AnalysisSummary`.
:func:`summary_for` is the knowledge-base-facing entry point: it analyses
the knowledge base as it stands, every time it is called.  Its one caller
is ``explain`` (:mod:`repro.obs.explain`), which renders the per-predicate
block once per statement; the lint pass (:mod:`.lintpass`) runs type
inference directly.

Nothing under :mod:`repro.engine` reads a summary, and no summary holds a
row estimate: join ordering and kernel lowering use live relation
statistics only (:func:`repro.engine.plan.relation_cost_estimator`, the
one cardinality estimator in the process).  Nothing is cached here
either — the type seeds are the stored columns read through
:attr:`ProgramModel.source_kb`, so a summary is valid for exactly the
``(rules, EDB versions)`` state the view cache already answers from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.analysis.absint.lattice import ColumnDomain
from repro.analysis.absint.modes import infer_modes
from repro.analysis.absint.typeinfer import infer_types
from repro.analysis.model import ProgramModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.database import KnowledgeBase

__all__ = ["AnalysisSummary", "recursion_profile", "summarize", "summary_for"]


@dataclass(frozen=True)
class AnalysisSummary:
    """What the analyses inferred, per predicate."""

    modes: Mapping[str, frozenset[str]]
    types: Mapping[str, tuple[ColumnDomain, ...]]
    recursion: Mapping[str, str]

    # -- lookups -----------------------------------------------------------------

    def column_domains(self, predicate: str) -> tuple[ColumnDomain, ...] | None:
        return self.types.get(predicate)

    def adornments(self, predicate: str) -> frozenset[str]:
        return self.modes.get(predicate, frozenset())


def recursion_profile(model: ProgramModel) -> dict[str, str]:
    """Classify every recursive predicate: ``linear``/``nonlinear``/``mutual``.

    ``mutual`` — the predicate's recursion class has more than one member;
    ``nonlinear`` — some defining rule uses two or more atoms from the
    class (quadratic-style self-joins); ``linear`` otherwise.
    """
    graph = model.graph
    profile: dict[str, str] = {}
    for predicate in sorted(graph.recursive_predicates()):
        cls = graph.recursion_class(predicate)
        if len(cls) > 1:
            profile[predicate] = "mutual"
            continue
        nonlinear = False
        for rule in model.rules_for(predicate):
            in_class = sum(
                1
                for atom in rule.body
                if not atom.is_comparison() and atom.predicate in cls
            )
            if in_class >= 2:
                nonlinear = True
                break
        profile[predicate] = "nonlinear" if nonlinear else "linear"
    return profile


def summarize(model: ProgramModel) -> AnalysisSummary:
    """Run both abstract domains over one model and classify its recursion."""
    return AnalysisSummary(
        modes=infer_modes(model),
        types=infer_types(model),
        recursion=recursion_profile(model),
    )


def summary_for(kb: "KnowledgeBase") -> AnalysisSummary:
    """Analyse *kb* as it stands now (a fresh run per call)."""
    return summarize(ProgramModel.from_kb(kb))
