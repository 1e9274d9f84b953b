"""The shipped example programs stay warning-clean (mirrors the CI gate)."""

import glob
import os

import pytest

from repro.analysis.analyzer import analyze_source
from repro.session import Session

PROGRAMS = sorted(
    glob.glob(
        os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "programs", "*.dbk"
        )
    )
)


def test_examples_exist():
    assert len(PROGRAMS) >= 3


@pytest.mark.parametrize("path", PROGRAMS, ids=os.path.basename)
def test_example_is_warning_clean(path):
    with open(path) as handle:
        report = analyze_source(handle.read())
    assert report.clean, report.format(path)


@pytest.mark.parametrize("path", PROGRAMS, ids=os.path.basename)
def test_example_loads_under_strict_lint(path):
    # Loading never lints; the warning-clean check above is the gate.
    session = Session()
    with open(path) as handle:
        assert session.load(handle.read()) > 0
