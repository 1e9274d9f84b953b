"""Catalog subsystem: schemas, stored relations, the knowledge base, and
predicate dependency analysis."""

from repro.catalog.database import KnowledgeBase
from repro.catalog.persist import export_csv, import_csv, load_kb, save_kb
from repro.catalog.dependencies import DependencyGraph, dependency_graph
from repro.catalog.relation import Relation
from repro.catalog.schema import PredicateKind, PredicateSchema
from repro.catalog.symbols import SYMBOLS, SymbolTable
from repro.catalog.transaction import KBTransaction
from repro.catalog.recovery import Recoverer, RecoveryReport, apply_event
from repro.catalog.snapshot import (
    Fingerprint,
    KBSnapshot,
    fingerprint_token,
    kb_fingerprint,
    publish_snapshot,
)
from repro.catalog.wal import Durability, DurableLog, open_durable

__all__ = [
    "KnowledgeBase",
    "KBSnapshot",
    "KBTransaction",
    "Fingerprint",
    "fingerprint_token",
    "kb_fingerprint",
    "publish_snapshot",
    "Durability",
    "DurableLog",
    "Recoverer",
    "RecoveryReport",
    "apply_event",
    "open_durable",
    "export_csv",
    "import_csv",
    "load_kb",
    "save_kb",
    "DependencyGraph",
    "dependency_graph",
    "Relation",
    "PredicateKind",
    "PredicateSchema",
    "SYMBOLS",
    "SymbolTable",
]
