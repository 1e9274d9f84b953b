"""The JSON wire protocol: result payloads and error/status mapping.

Responses are JSON objects with a stable envelope::

    {"ok": true,  "snapshot": {"id": 3, "token": "9f2c…"}, "kind": "...",
     "result": …, "elapsed_ms": 1.8}
    {"ok": false, "error": {"type": "AdmissionError", "message": "…",
     "budget": "admission", "tier": "interactive"}}

``snapshot`` attributes every read to exactly one published version (see
:mod:`repro.catalog.snapshot`).  ``result`` is a structured rendering per
result kind (verdicts and comparisons carry ``rendered``, the human text
the ``dbk`` shell would print).  :func:`encode_snapshot_head` and
:func:`encode_answer_tail` are the one encoder of the success envelope, in
its two parts.  Status codes: 200 ok, 400 bad statement,
404 unknown path, 408 budget exhausted, 413 body too large, 429 admission
rejected, 500 internal, 503 draining.
"""

from __future__ import annotations

import json

from repro.catalog.snapshot import KBSnapshot
from repro.core.answers import DescribeResult
from repro.core.compare import ConceptComparison
from repro.core.necessity import NecessityResult
from repro.core.possibility import PossibilityResult
from repro.engine.evaluate import RetrieveResult
from repro.errors import (
    AdmissionError,
    LanguageError,
    ReproError,
    ResourceExhausted,
    ServerError,
)

#: HTTP status for each error class of the envelope (most specific first).
STATUS_TOO_MANY = 429
STATUS_TIMEOUT = 408
STATUS_BAD_REQUEST = 400
STATUS_NOT_FOUND = 404
STATUS_INTERNAL = 500
STATUS_DRAINING = 503


def _diagnostics_payload(result: object) -> dict | None:
    diagnostics = getattr(result, "diagnostics", None)
    if diagnostics is None:
        return None
    return {
        "complete": diagnostics.complete,
        "budget": diagnostics.budget,
        "consumed": diagnostics.consumed,
        "limit": diagnostics.limit,
    }


def result_payload(result: object) -> tuple[str, object]:
    """``(kind, structured payload)`` for any session query result.

    Retrieve answers ship their bindings as plain JSON values
    (:attr:`Constant.value <repro.logic.terms.Constant.value>` is always a
    ``str``/``int``/``float``/``bool``); knowledge-query answers ship
    their rule texts — the paper's intensional answers are rules, and rule
    text is their canonical serialization.
    """
    if isinstance(result, RetrieveResult):
        return "retrieve", {
            "subject": str(result.subject),
            "variables": [variable.name for variable in result.variables],
            "rows": [[constant.value for constant in row] for row in result.rows],
            "boolean": result.boolean,
            "diagnostics": _diagnostics_payload(result),
        }
    if isinstance(result, DescribeResult):
        return "describe", {
            "rules": [str(rule) for rule in result.rules()],
            "contradiction": bool(getattr(result, "contradiction", False)),
            "diagnostics": _diagnostics_payload(result),
        }
    if isinstance(result, (NecessityResult, PossibilityResult)):
        kind = "necessity" if isinstance(result, NecessityResult) else "possibility"
        return kind, {
            "verdict": bool(result),
            "rendered": str(result),
        }
    if isinstance(result, ConceptComparison):
        return "compare", {"rendered": str(result)}
    if isinstance(result, dict):  # wildcard describe: predicate -> DescribeResult
        return "describe_wildcard", {
            predicate: result_payload(sub)[1] for predicate, sub in result.items()
        }
    if isinstance(result, str):  # definition acknowledgement
        return "ack", result
    return type(result).__name__, str(result)


def encode_snapshot_head(snapshot: KBSnapshot) -> bytes:
    """The ``/query`` success envelope up to, not including, ``kind``.

    The per-snapshot part: every response quotes the id and token of the
    snapshot its request pinned, whichever publication the answer was first
    computed on.
    """
    document = json.dumps(
        {
            "ok": True,
            "snapshot": {"id": snapshot.snapshot_id, "token": snapshot.token},
        }
    )
    return document[:-1].encode("utf-8")


def encode_answer_tail(result: object) -> bytes:
    """The envelope's ``, "kind": …, "result": …`` — the per-answer part.

    A function of the answer alone, so the bytes can be kept beside a
    memoized answer and reused under any snapshot the answer is valid for:
    the caller finishes a response as head + tail + ``, "elapsed_ms": N}``
    (and the trace, when asked for).  Key order and separators are those of
    ``json.dumps`` on the whole envelope.
    """
    kind, payload = result_payload(result)
    document = json.dumps({"kind": kind, "result": payload})
    return b", " + document[1:-1].encode("utf-8")


def error_payload(error: BaseException) -> tuple[int, dict]:
    """``(HTTP status, error object)`` for any request failure.

    The structured :class:`~repro.errors.ResourceExhausted` fields survive
    the wire, so a client can tell a deadline trip from a fact-budget trip
    without parsing prose; :class:`~repro.errors.AdmissionError` adds the
    rejecting tier.
    """
    payload: dict = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, AdmissionError):
        payload["tier"] = error.tier
        payload["budget"] = error.budget
        return STATUS_TOO_MANY, payload
    if isinstance(error, ResourceExhausted):
        payload["budget"] = error.budget
        payload["consumed"] = _jsonable(error.consumed)
        payload["limit"] = _jsonable(error.limit)
        return STATUS_TIMEOUT, payload
    if isinstance(error, ServerError):
        return STATUS_BAD_REQUEST, payload
    if isinstance(error, (LanguageError, ReproError)):
        return STATUS_BAD_REQUEST, payload
    return STATUS_INTERNAL, payload


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
