"""Statement fuzz over the wire: generated text as ``/query`` and ``/commit``.

The lexer fuzz's strategies (:mod:`tests.lang.test_lexer_fuzz`: grammar-shaped
``statements`` and token ``soup``) are posted to a loopback
:func:`~repro.server.serve_in_thread` server, one text as a ``POST /query``
body and one to three as a ``POST /commit`` list.  Whatever the text, the
answer is a ``200`` or a ``4xx`` whose envelope names an error class of
:mod:`repro.errors`, a :class:`~repro.errors.LanguageError` (or the commit
error quoting one) says where in the text it is, there is never a ``5xx``,
and ``/healthz`` stays ok.

Runs are seeded like the lexer fuzz: set ``FAULTINJECT_SEED`` to explore
other sequences (CI runs the default and a fresh seed).
"""

from __future__ import annotations

import inspect
import json
import os
import re
from http.client import HTTPConnection

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import errors
from repro.datasets import university_kb
from repro.server import MultiVersionCatalog, serve_in_thread
from tests.lang.test_lexer_fuzz import soup, statements

SEED = int(os.environ.get("FAULTINJECT_SEED", "20261017"))

#: Seconds any single exchange may take before the test fails.
DEADLINE = 10.0

#: Every error class the envelope may name, by name.
ERROR_CLASSES = {
    name: value
    for name, value in vars(errors).items()
    if inspect.isclass(value) and issubclass(value, Exception)
}

texts = st.one_of(statements, soup)


@pytest.fixture(scope="module")
def served():
    handle = serve_in_thread(
        MultiVersionCatalog(university_kb()), pool_size=1, trace=False
    )
    yield handle
    handle.stop()


def exchange(handle, method: str, path: str, body: dict | None = None):
    """One request on a fresh connection: ``(status, JSON document)``."""
    connection = HTTPConnection(handle.host, handle.port, timeout=DEADLINE)
    try:
        encoded = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=encoded)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def assert_answered(handle, path: str, body: dict) -> None:
    status, document = exchange(handle, "POST", path, body)
    assert status == 200 or 400 <= status < 500, (status, document, body)
    if status == 200:
        assert document["ok"] is True, (document, body)
    else:
        assert document["ok"] is False, (document, body)
        error = document["error"]
        kind = ERROR_CLASSES.get(error["type"])
        assert kind is not None, (status, error, body)
        # A commit quotes the parse error it refuses (as a ServerError).
        if issubclass(kind, errors.LanguageError) or "cannot parse" in error["message"]:
            assert re.search(r"\(line \d+, column \d+\)", error["message"]), error
    status, health = exchange(handle, "GET", "/healthz")
    assert status == 200 and health["ok"] is True, (health, body)


@seed(SEED)
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(text=texts)
def test_a_generated_query_body_is_answered_or_refused_by_class(served, text):
    assert_answered(served, "/query", {"statement": text})


@seed(SEED)
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(batch=st.lists(texts, min_size=1, max_size=3))
def test_a_generated_commit_list_is_applied_or_refused_by_class(served, batch):
    assert_answered(served, "/commit", {"statements": batch})
