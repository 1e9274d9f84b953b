"""The diagnostic model of the static analyzer.

A :class:`Diagnostic` is one structured finding: a stable code (``KB101``),
a severity, the subject predicate and rule, an optional source span, a
human message and a fix hint.  An :class:`AnalysisReport` is an ordered,
queryable collection of them with stable text and JSON renderings — the
contract ``dbk lint --json`` exposes to CI gates.

Severity semantics:

* ``error`` — the program is outside the fragment the engines (or the
  paper's algorithms) are sound on; a caller that gates a load on the
  analyzer (``dbk lint``, ``analyze_source(text).errors``) refuses it;
* ``warning`` — the program loads and evaluates, but a definition can
  never contribute (unsatisfiable body, unreachable predicate, subsumed
  rule) or is very likely a mistake (arity drift in a body atom);
* ``info`` — observations that need no action (permutation rules handled
  by bounded application, predicates that are query-only entry points).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.lang.source import SourceSpan


class Severity(enum.Enum):
    """How bad a finding is (ordered: error > warning > info)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Numeric rank for ordering and ``--fail-on`` thresholds."""
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str                       #: stable identifier, e.g. "KB101"
    severity: Severity
    message: str                    #: human-readable, single line
    predicate: str | None = None    #: subject predicate, when one exists
    rule: str | None = None         #: the offending rule/constraint, rendered
    span: SourceSpan | None = None  #: source location, when known
    hint: str | None = None         #: how to fix it
    pass_name: str | None = None    #: which analysis pass produced it

    def format(self, path: str | None = None) -> str:
        """The one-line (plus hint) human rendering used by ``dbk lint``."""
        location = ""
        if self.span is not None:
            if self.span.line is None or self.span.column is None:
                # Rules built programmatically may carry a span without
                # positions; render a clean marker, not "None:None".
                location = "<generated>: "
            else:
                location = f"{self.span.line}:{self.span.column}: "
        prefix = f"{path}:" if path else ""
        lines = [f"{prefix}{location}{self.severity} {self.code}: {self.message}"]
        if self.rule is not None:
            lines.append(f"    rule: {self.rule}")
        if self.hint is not None:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        """A JSON-friendly rendering with a stable key set and order."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "predicate": self.predicate,
            "rule": self.rule,
            "span": self.span.as_dict() if self.span is not None else None,
            "hint": self.hint,
            "pass": self.pass_name,
        }

    def __str__(self) -> str:
        return self.format()


@dataclass
class AnalysisReport:
    """Every diagnostic of one analyzer run, in deterministic order."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    # -- selection ---------------------------------------------------------------

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        """Findings of exactly one severity."""
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self.by_severity(Severity.INFO)

    def codes(self) -> list[str]:
        """The distinct diagnostic codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def select(self, predicate: Callable[[Diagnostic], bool]) -> list[Diagnostic]:
        """Findings matching an arbitrary filter."""
        return [d for d in self.diagnostics if predicate(d)]

    @property
    def ok(self) -> bool:
        """Whether the program has no *errors* (warnings allowed)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """Whether the program has neither errors nor warnings."""
        return not self.errors and not self.warnings

    def at_or_above(self, severity: Severity) -> list[Diagnostic]:
        """Findings whose severity is at least *severity*."""
        return [d for d in self.diagnostics if d.severity.rank >= severity.rank]

    # -- merging -----------------------------------------------------------------

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Append findings (analyzer-internal)."""
        self.diagnostics.extend(diagnostics)

    def finalize(self) -> "AnalysisReport":
        """Sort into the stable report order: position, then code, then text."""
        self.diagnostics.sort(
            key=lambda d: (
                (d.span.line or 0) if d.span is not None else 0,
                (d.span.column or 0) if d.span is not None else 0,
                d.code,
                d.message,
            )
        )
        return self

    # -- rendering ---------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Counts per severity (always all three keys, stable order)."""
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
        }

    def summary_line(self) -> str:
        counts = self.summary()
        return (
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        )

    def format(self, path: str | None = None) -> str:
        """The full human rendering (diagnostics, then a summary line)."""
        if not self.diagnostics:
            target = f"{path}: " if path else ""
            return f"{target}clean (no findings)"
        lines = [d.format(path) for d in self.diagnostics]
        lines.append(self.summary_line())
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly rendering: ``{"diagnostics": [...], "summary": ...}``."""
        return {
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "summary": self.summary(),
        }

    def __str__(self) -> str:
        return self.format()
