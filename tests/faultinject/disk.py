"""Fault injection at the disk calls of one durable directory.

The durable path (:mod:`repro.catalog.wal` and
:func:`repro.catalog.persist._atomic_write`) has no hook of its own.  A
:class:`Disk` reaches six stages of it by wrapping calls that path already
makes — ``open`` as :mod:`repro.catalog.wal` calls it, :func:`os.fsync` and
:func:`os.replace` — and calls :attr:`Disk.hook` with the stage name at
each:

- ``append:before`` — a log record's ``write`` on the append handle,
  nothing of it written yet;
- ``append:mid`` — half the record's bytes written and flushed (a torn
  record), the rest not yet;
- ``append:written`` — every byte written, the append handle's fsync not
  yet run;
- ``append:synced`` — that fsync returned, the append not yet acknowledged;
- ``snapshot:staged`` — the snapshot's staged file written and fsynced,
  its ``os.replace`` onto ``snapshot.json`` not yet run;
- ``snapshot:replaced`` — the snapshot durable, ``wal.log`` not yet
  reopened with ``"wb"`` (the log not yet truncated).

A hook that raises at a stage simulates a crash there (:class:`Crash`, a
``BaseException`` nothing may swallow) or a failed write (an ``OSError``).
Only calls on the directory's own ``wal.log`` and ``snapshot.json`` reach a
stage, so a log of another directory — the one a killed process's
successor recovers into, say — never sees the hook.  A log record is the
append handle's write of anything but the format header; the handle must
be opened after the :class:`Disk` is installed (install it before
:func:`~repro.catalog.open_durable`).
"""

from __future__ import annotations

import builtins
import os
from typing import Callable

import pytest

from repro.catalog import wal

#: Every stage, in the order one append and then one snapshot reach them.
STAGES = (
    "append:before",
    "append:mid",
    "append:written",
    "append:synced",
    "snapshot:staged",
    "snapshot:replaced",
)


class Crash(BaseException):
    """The simulated process death: not an Exception, never swallowed."""


def crash_at(stage: str) -> Callable[[str], None]:
    """A hook that kills the process at *stage*."""

    def hook(reached: str) -> None:
        if reached == stage:
            raise Crash(stage)

    return hook


class Disk:
    """The stages of durable writes into *directory*, installed with
    *monkeypatch* until it undoes its patches.

    ``hook`` (``None``: no fault) is called with each stage reached;
    ``reached`` lists the stages in order and ``writes`` the bytes of each
    log record written, as the durable path handed them over.
    """

    def __init__(
        self,
        monkeypatch: pytest.MonkeyPatch,
        directory: str,
        hook: Callable[[str], None] | None = None,
    ) -> None:
        directory = os.path.abspath(directory)
        self.log_path = os.path.join(directory, wal.LOG_NAME)
        self.snapshot_path = os.path.join(directory, wal.SNAPSHOT_NAME)
        self.hook = hook
        self.reached: list[str] = []
        self.writes: list[bytes] = []
        #: File descriptors of the live append handles on ``wal.log``.
        self._appending: set[int] = set()
        # The calls the patches wrap: the originals, or a Disk installed
        # for another directory before this one.
        self._next_open = getattr(wal, "open", builtins.open)
        self._next_fsync, self._next_replace = os.fsync, os.replace
        monkeypatch.setattr(wal, "open", self._open, raising=False)
        monkeypatch.setattr(os, "fsync", self._fsync)
        monkeypatch.setattr(os, "replace", self._replace)

    def stage(self, name: str) -> None:
        self.reached.append(name)
        if self.hook is not None:
            self.hook(name)

    def _open(self, path, mode="r", *args, **kwargs):
        ours = os.path.abspath(path) == self.log_path
        if ours and mode == "wb":
            self.stage("snapshot:replaced")
        handle = self._next_open(path, mode, *args, **kwargs)
        if ours and mode == "ab":
            return _AppendHandle(self, handle)
        return handle

    def _fsync(self, fd: int) -> None:
        appending = fd in self._appending
        if appending:
            self.stage("append:written")
        self._next_fsync(fd)
        if appending:
            self.stage("append:synced")

    def _replace(self, source, destination, **kwargs) -> None:
        if os.path.abspath(destination) == self.snapshot_path:
            self.stage("snapshot:staged")
        self._next_replace(source, destination, **kwargs)


class _AppendHandle:
    """``wal.log`` opened for append: a log record's one ``write`` reaches
    ``append:before`` and ``append:mid`` around its flushed first half."""

    def __init__(self, disk: Disk, handle) -> None:
        self._disk = disk
        self._handle = handle
        self._fd = handle.fileno()
        disk._appending.add(self._fd)

    def write(self, data: bytes) -> int:
        if data == f"{wal.LOG_FORMAT}\n".encode():
            return self._handle.write(data)
        self._disk.writes.append(bytes(data))
        self._disk.stage("append:before")
        half = len(data) // 2
        self._handle.write(data[:half])
        self._handle.flush()
        self._disk.stage("append:mid")
        return half + self._handle.write(data[half:])

    def close(self) -> None:
        self._disk._appending.discard(self._fd)
        self._handle.close()

    def __getattr__(self, name: str):
        return getattr(self._handle, name)
