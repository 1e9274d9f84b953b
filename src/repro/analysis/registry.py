"""The analysis-pass registry.

Each pass module registers one entry point with :func:`register`; the
analyzer asks :func:`all_passes` for the full ordered suite.  Pass modules
are imported lazily on first use so that low-level consumers (notably the
engine, which raises the safety pass's findings through
:func:`repro.analysis.safety.check_rule_safety`) can import their pass
directly without dragging the whole analyzer — and its heavier
dependencies — into the import graph.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.diagnostics import Diagnostic
    from repro.analysis.model import ProgramModel

#: The canonical pass order (modules under ``repro.analysis``).
PASS_ORDER = (
    "safety",
    "recursion",
    "stratification",
    "comparisons",
    "deadcode",
    "consistency",
    "absint",
)


@dataclass(frozen=True)
class AnalysisPass:
    """One registered pass: a name, the codes it may emit, its entry point."""

    name: str
    title: str
    codes: tuple[str, ...]
    run: Callable[["ProgramModel"], Iterable["Diagnostic"]]


_REGISTRY: dict[str, AnalysisPass] = {}
_LOADED = False


def register(
    name: str, title: str, codes: Iterable[str]
) -> Callable[[Callable], Callable]:
    """Decorator: register *fn* as the entry point of pass *name*."""

    def decorate(fn: Callable) -> Callable:
        _REGISTRY[name] = AnalysisPass(name, title, tuple(codes), fn)
        return fn

    return decorate


def _load_pass_modules() -> None:
    global _LOADED
    if _LOADED:
        return
    for name in PASS_ORDER:
        importlib.import_module(f"repro.analysis.{name}")
    _LOADED = True


def all_passes() -> tuple[AnalysisPass, ...]:
    """Every registered pass, in canonical order."""
    _load_pass_modules()
    return tuple(_REGISTRY[name] for name in PASS_ORDER if name in _REGISTRY)


def get_pass(name: str) -> AnalysisPass:
    """Look up one pass by name (raises ``KeyError`` for unknown names)."""
    _load_pass_modules()
    return _REGISTRY[name]


def known_codes() -> dict[str, str]:
    """Map of every registered diagnostic code to the pass that owns it."""
    _load_pass_modules()
    return {
        code: pass_.name for pass_ in all_passes() for code in pass_.codes
    }
