"""Process-wide constant interning: every constant gets a small int id.

The join kernels (:mod:`repro.engine.kernels`) run over plain ints
instead of :class:`~repro.logic.terms.Constant` objects.  Hashing a
``Constant`` allocates a tuple per call (``hash(("const", value))``); an
``int`` hashes to itself.  The :class:`SymbolTable` maps each constant to a
dense id once, at load/insert time, so the hot join loops never touch a
``Constant`` again.  Ids turn back into constants in bulk, where a row
set leaves the id domain — a ``retrieve`` answer, or the first reader that
asks a derived relation for constants (:meth:`Relation.load_interned`
keeps a flushed table's rows as ids) — through
:meth:`SymbolTable.extern_rows` / :meth:`SymbolTable.extern_block`; the
per-id :meth:`SymbolTable.extern` and per-row :meth:`SymbolTable.extern_row`
serve substitution streams.  Order comparisons never externalize: they
index :attr:`SymbolTable.values`, each id's payload, kept next to its
constant.

Design points:

* **Keys are the ``Constant`` objects themselves.**  The table inherits
  ``Constant`` equality exactly: ``Constant(3) == Constant(3.0)`` share one
  id (so id-equality is *precisely* constant-equality, which is what joins
  and ``=``/``!=`` comparisons need), while ``Constant(True)`` and
  ``Constant(1)`` stay distinct.  :meth:`extern` returns the
  first-interned representative of an equality class; since answer sets
  compare by constant equality, this preserves answer-set identity across
  evaluators.
* **Append-only.**  Ids are never reused or remapped, so interned columns
  cached anywhere in the process stay valid for its lifetime.  A fault
  (guard cancellation, injected error) can at worst leave an *unused* id
  behind — never a dangling or remapped one, so there is no such thing as
  a half-interned symbol.
* **Un-interned constants stay the source of truth.**  Relations keep
  their original ``Constant`` rows; persistence (save/load, CSV) and REPL
  display read those, so round-trips are byte-for-byte regardless of what
  was interned.  Interning is an acceleration structure, not a storage
  format.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from repro.logic.terms import Constant

__all__ = ["SymbolTable", "SYMBOLS"]


class SymbolTable:
    """A bidirectional, append-only ``Constant`` <-> ``int`` mapping."""

    __slots__ = ("_ids", "_constants", "_values", "_lock")

    def __init__(self) -> None:
        self._ids: dict[Constant, int] = {}
        self._constants: list[Constant] = []
        self._values: list[object] = []
        self._lock = threading.Lock()

    def intern(self, constant: Constant) -> int:
        """The id for *constant*, allocating one on first sight."""
        sid = self._ids.get(constant)
        if sid is not None:
            return sid
        with self._lock:
            sid = self._ids.get(constant)
            if sid is None:
                sid = len(self._constants)
                self._constants.append(constant)
                self._values.append(constant.value)
                self._ids[constant] = sid
        return sid

    def id_of(self, constant: Constant) -> int | None:
        """The id of *constant*, or ``None`` if it was never interned —
        a probe that must not grow the table."""
        return self._ids.get(constant)

    def intern_row(self, row: Sequence[Constant]) -> tuple[int, ...]:
        """Intern every constant of a stored row."""
        intern = self.intern
        return tuple(intern(constant) for constant in row)

    def extern(self, sid: int) -> Constant:
        """The constant for an id (first-interned representative)."""
        return self._constants[sid]

    @property
    def values(self) -> list[object]:
        """The live id -> payload list (``values[sid] is
        extern(sid).value``): what an order comparison reads per row.  It
        grows with the table and is never replaced, so a closure may keep
        it; callers index it and never write to it."""
        return self._values

    def extern_row(self, row: Sequence[int]) -> tuple[Constant, ...]:
        """Map a row of ids back to constants."""
        constants = self._constants
        return tuple(constants[sid] for sid in row)

    # benchmarks/e2e/trace.py patches ``SymbolTable.extern_rows`` and
    # ``SymbolTable.extern_block`` by string (``catalog.symbols.extern``).
    def extern_rows(
        self, rows: Iterable[Sequence[int]]
    ) -> list[tuple[Constant, ...]]:
        """Map equal-width id rows back to constant rows, in one bulk pass.

        The one externalization call of every id -> constant boundary: a
        ``retrieve`` answer, and a bulk-loaded relation's row dict if a
        reader ever wants it.  The rows go through :meth:`extern_block`,
        one comprehension specialized to their width, so the cost per row
        is an unpacking and a few list lookups, not a Python frame.  Every
        row must have the width of the first (one relation's rows, one
        answer's rows).
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if not rows:
            return []
        width = len(rows[0])
        if not width:
            return [()] * len(rows)
        return self.extern_block(rows, width)

    def extern_block(
        self, rows: Iterable[Sequence[int]], width: int
    ) -> list[tuple[Constant, ...]]:
        """Externalize id rows of *width* columns into constant tuples.

        One generated comprehension per width (:func:`extern_source`),
        ``[(c[r0], c[r1]) for r0, r1 in rows]`` for two columns: each row
        is unpacked into locals and rebuilt as a tuple display of list
        lookups.  ``width`` must be a positive ``int`` (zero-arity rows
        have nothing to externalize; a ``bool`` is not an ``int`` here), so
        nothing else reaches the source; a row of another width raises
        :class:`ValueError`.
        """
        if type(width) is not int:
            raise TypeError(f"extern block width {width!r} is not an int")
        if width < 1:
            raise ValueError(f"extern block width must be positive, got {width}")
        return _generated(width)(rows, self._constants)

    def constants(self) -> list[Constant]:
        """A snapshot of the id -> constant mapping (index = id)."""
        return list(self._constants)

    def __len__(self) -> int:
        return len(self._constants)

    def __contains__(self, constant: object) -> bool:
        return constant in self._ids


#: How many generated comprehensions :meth:`SymbolTable.extern_block`
#: keeps, process-wide, one per width.
EXTERN_CACHE_SIZE = 64

def extern_source(width: int) -> str:
    """The source of the externalizing comprehension of *width* columns:
    ``rows`` of ids in, a list of tuples of ``c`` (the constants) out."""
    names = [f"r{column}" for column in range(width)]
    target = f"{names[0]}," if width == 1 else ", ".join(names)
    display = ", ".join(f"c[{name}]" for name in names)
    if width == 1:
        display += ","
    return (
        "def block(rows, c):\n"
        f"    return [({display}) for {target} in rows]\n"
    )


@lru_cache(maxsize=EXTERN_CACHE_SIZE)
def _generated(width: int) -> Callable[..., list[tuple[Constant, ...]]]:
    namespace: dict[str, object] = {}
    code = compile(extern_source(width), f"<extern block {width}>", "exec")
    exec(code, namespace)  # the source is built from one int (extern_block)
    return namespace["block"]  # type: ignore[return-value]


#: The process-wide table.  Relations intern into it at insert time; the
#: kernel compiler and the kernels read it.  Append-only, so sharing one
#: table across every knowledge base in the process is safe.
SYMBOLS = SymbolTable()
