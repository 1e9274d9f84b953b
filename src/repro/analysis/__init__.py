"""Static analysis of knowledge bases: ``dbk lint``'s engine.

A multi-pass analyzer over a rule base (parsed program or loaded
:class:`~repro.catalog.database.KnowledgeBase`) emitting structured,
source-located :class:`Diagnostic` records:

======  ========  ===========================================================
pass    codes     what it checks
======  ========  ===========================================================
(parse) KB001     the program parses at all
safety  KB101-103 range restriction (only ``=`` chains bind)
recursion KB201-204 strong linearity + typedness of recursive rules
stratification KB301 no recursion through negation
comparisons KB401-402 body/constraint comparisons are satisfiable
deadcode KB501-505 undefined, unreachable, unreferenced, duplicate, subsumed
consistency KB601-604 arities agree; no EDB/IDB/keyword shadowing
======  ========  ===========================================================

See ``docs/LINT.md`` for the full catalogue with minimal triggering
programs.  The package ``__init__`` stays import-light on purpose: the
engine imports :func:`repro.analysis.safety.check_rule_safety` and must not
pull in the whole analyzer with it, so the analyzer driver loads lazily.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.lang.source import SourceSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.analyzer import analyze, analyze_source  # noqa: F401

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "SourceSpan",
    "analyze",
    "analyze_source",
]


def __getattr__(name: str) -> object:
    if name in ("analyze", "analyze_source", "PARSE_ERROR"):
        from repro.analysis import analyzer

        return getattr(analyzer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
