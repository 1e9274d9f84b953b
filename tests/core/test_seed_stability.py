"""Printed knowledge answers do not depend on ``PYTHONHASHSEED``.

Renders the 25 statement classes of the ``knowledge_mix`` workload (rebuilt
from :mod:`repro.datasets`, see :mod:`tests.core.describe_corpus`) in three
subprocesses with different hash seeds and requires identical text.  The
``compare`` statements used to name their generalisation variables in a
set's iteration order.
"""

from tests.core.describe_corpus import KNOWLEDGE_MIX
from tests.hashseed import run_under_seed

RENDER = """
import json
from tests.core.describe_corpus import KNOWLEDGE_BASES, KNOWLEDGE_MIX, run_statement
print(json.dumps(
    {sid: run_statement(KNOWLEDGE_BASES[key](), text)
     for sid, (key, text) in KNOWLEDGE_MIX.items()},
    sort_keys=True,
))
"""


def test_statement_texts_are_identical_under_three_seeds():
    assert len(KNOWLEDGE_MIX) == 25
    first, second, third = (run_under_seed(RENDER, seed) for seed in (0, 1, 2))
    assert first == second == third
    assert b"shared concept" in first
