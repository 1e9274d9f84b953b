"""Persistence: save/load knowledge bases, CSV import/export.

The on-disk format is a single JSON document: EDB schemas with their rows,
and rules/constraints as source text (the language is the canonical
serialisation of knowledge — it round-trips through the parser).  CSV
import/export moves single relations in and out of ordinary tabular files.

Every operation here is **atomic**: writers stage the full output in a
temporary file and :func:`os.replace` it over the destination (a crash or
mid-write error never leaves a truncated file), and :func:`import_csv`
parses and validates the whole file before inserting under a
:meth:`~repro.catalog.database.KnowledgeBase.transaction` (a bad row — or a
resource-guard trip — leaves the knowledge base untouched).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from typing import Sequence

from repro.errors import CatalogError
from repro.catalog.database import KnowledgeBase
from repro.lang.parser import parse_rule, parse_statement
from repro.lang.ast import ConstraintStatement

#: Format marker written into every dump.
FORMAT = "repro-kb/1"


def kb_to_dict(kb: KnowledgeBase) -> dict:
    """A JSON-ready dictionary capturing the whole knowledge base."""
    relations = {}
    for name in kb.edb_predicates():
        schema = kb.schema(name)
        relations[name] = {
            "arity": schema.arity,
            "attributes": list(schema.attributes) if schema.attributes else None,
            "rows": [[c.value for c in row] for row in kb.facts(name)],
        }
    return {
        "format": FORMAT,
        "name": kb.name,
        "edb": relations,
        "rules": [str(rule) for rule in kb.rules()],
        "constraints": [str(constraint) for constraint in kb.constraints()],
    }


def kb_from_dict(data: dict) -> KnowledgeBase:
    """Rebuild a knowledge base from :func:`kb_to_dict` output."""
    if data.get("format") != FORMAT:
        raise CatalogError(f"not a {FORMAT} document (format={data.get('format')!r})")
    kb = KnowledgeBase(data.get("name", "loaded"))
    for name, relation in data.get("edb", {}).items():
        kb.declare_edb(name, relation["arity"], relation.get("attributes"))
        kb.add_facts(name, [tuple(row) for row in relation.get("rows", ())])
    kb.add_rules(parse_rule(text) for text in data.get("rules", ()))
    for text in data.get("constraints", ()):
        statement = parse_statement(text)
        if not isinstance(statement, ConstraintStatement):
            raise CatalogError(f"not a constraint: {text}")
        kb.add_constraint(statement.constraint)
    return kb


def fsync_directory(directory: str) -> None:
    """Flush a directory entry to disk, where the platform supports it.

    After ``os.replace`` the *rename* itself lives in the directory inode;
    without this a power loss can forget the new name (and, with the old
    file already unlinked, drop both old and new contents).  Platforms
    that cannot fsync a directory (or deny it) are ignored — the rename
    is still atomic, just not yet durable.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(path: str, text: str) -> None:
    """Write *text* to *path* all-or-nothing and durably.

    The full output is staged in a temporary file, flushed and fsynced,
    then ``os.replace``d over the destination, and finally the parent
    directory is fsynced so the rename survives power loss.  A failure at
    any stage removes the staged file and leaves the destination intact.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, staged = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, path)
    except BaseException:
        try:
            os.unlink(staged)
        except OSError:
            pass
        raise
    fsync_directory(directory)


def save_kb(kb: KnowledgeBase, path: str) -> None:
    """Write the knowledge base to *path* as JSON, atomically.

    The document is serialised in full first and replaces any previous file
    in one step, so a failed save never corrupts an existing dump.
    """
    _atomic_write(path, json.dumps(kb_to_dict(kb), indent=1))


def load_kb(path: str) -> KnowledgeBase:
    """Read a knowledge base written by :func:`save_kb`."""
    with open(path) as handle:
        return kb_from_dict(json.load(handle))


def _coerce_cell(cell: str) -> object:
    """CSV cells: numbers become numbers, everything else stays a string.

    Words that :func:`float` reads as non-finite (``inf``, ``nan``,
    ``infinity``) are text: an infinite or NaN constant is no number the
    language can write, and NaN is not even equal to itself.
    """
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        number = float(cell)
    except ValueError:
        return cell
    return number if math.isfinite(number) else cell


def import_csv(
    kb: KnowledgeBase,
    predicate: str,
    path: str,
    header: bool = True,
    delimiter: str = ",",
    guard=None,
) -> int:
    """Load rows of one EDB relation from a CSV file, atomically.

    With ``header=True`` the first row supplies attribute names (used when
    the predicate is not yet declared).  Returns the number of new facts.

    The whole file is parsed and validated (column counts, cell coercion)
    *before* any insertion, and the insertions run inside a
    :meth:`~repro.catalog.database.KnowledgeBase.transaction`: a malformed
    row, a :class:`~repro.engine.guard.ResourceGuard` trip, or any other
    mid-import failure leaves the knowledge base exactly as it was.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = list(reader)
    if not rows:
        return 0
    attributes: Sequence[str] | None = None
    if header:
        attributes, rows = rows[0], rows[1:]
    if not rows:
        return 0
    arity = len(rows[0])
    coerced: list[list[object]] = []
    for row in rows:
        if len(row) != arity:
            raise CatalogError(
                f"{path}: expected {arity} columns, got {len(row)}: {row!r}"
            )
        coerced.append([_coerce_cell(cell) for cell in row])
    count = 0
    with kb.transaction():
        if not kb.has_predicate(predicate):
            kb.declare_edb(predicate, arity, attributes)
        for values in coerced:
            if guard is not None:
                guard.tick()
            if kb.add_fact(predicate, *values):
                count += 1
    return count


def export_csv(
    kb: KnowledgeBase, predicate: str, path: str, header: bool = True
) -> int:
    """Write one EDB relation to a CSV file, atomically; returns the row count.

    A non-finite float is written as ``inf`` / ``nan``, which
    :func:`import_csv` reads back as text: unlike :func:`save_kb`, a CSV
    round trip keeps only finite numbers.
    """
    schema = kb.schema(predicate)
    rows = kb.facts(predicate)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if header:
        writer.writerow(
            schema.attributes
            if schema.attributes
            else [f"arg{i}" for i in range(schema.arity)]
        )
    for row in rows:
        writer.writerow([c.value for c in row])
    _atomic_write(path, buffer.getvalue())
    return len(rows)
