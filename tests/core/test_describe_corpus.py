"""Replay the seeded describe corpus against its recorded answers.

The golden was recorded on the commit before the relevance cut, the
signature-screened redundancy pass and the term-layer changes landed (see
:mod:`tests.core.describe_corpus`), so a pass here means those changes kept
every answer: same rules, same order, same algorithm, same contradiction
flag.  Each answer compares up to a renaming of its variables: on the
recording commit the numbering of mechanically renamed variables (``Y1`` vs
``Y12``, ``G0`` vs ``S``) followed ``PYTHONHASHSEED``.
"""

import json

import pytest

from tests.core.describe_corpus import GOLDEN_PATH, canonical_record, cases

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = dict(cases())


def test_corpus_covers_the_issue():
    families = {}
    for case_id in GOLDEN:
        families.setdefault(case_id.split("/")[0], set()).add(case_id)
    assert len(families["chain"]) == 40
    assert {"tree/2x7", "tree/3x4"} <= families["tree"]
    assert len(families["union"]) == 48
    assert len(families["hyp"]) == 7
    assert len(families["paper"]) == 18
    assert len({case_id.split("/")[1] for case_id in families["gen"]}) >= 200
    assert set(GOLDEN) <= set(CASES)


@pytest.mark.parametrize("case_id", sorted(GOLDEN))
def test_answer_matches_recording(case_id):
    assert canonical_record(CASES[case_id]()) == canonical_record(GOLDEN[case_id])
