"""The example scripts must run end to end and show their headline results."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "honor(X) <- student(X, M, G) and (G > 3.7)." in output
        assert "false" in output  # the possibility question

    def test_university_advisor(self):
        output = run_example("university_advisor.py")
        assert "Example 3" in output
        assert "complete(X, databases, Z, 4.0)" in output
        assert "prior(X, Y) <- prior(X, databases)." in output  # modified E6
        assert "honor(X) is necessary" in output

    def test_flight_routes(self):
        output = run_example("flight_routes.py")
        assert "jfk" in output
        assert "link(X, Y)." in output  # symmetry-derived unconditional answer

    def test_hypothetical_audit(self):
        output = run_example("hypothetical_audit.py")
        assert "bonus_eligible" in output
        assert "false" in output

    def test_proofs_and_negation(self):
        output = run_example("proofs_and_negation.py")
        assert "fred" in output                    # the review-list answer
        assert "[stored fact]" in output           # a proof leaf
        assert "KB505" in output                   # the lint finding

    def test_family_tree(self):
        output = run_example("family_tree.py")
        assert "sibling(X, Y) <- parent(elizabeth, Y) and (X != Y)." in output
        assert "ancestor(X, Y) <- ancestor(X, george)." in output
        assert "sibling(A, B) is necessary" in output
        assert "cousin(william, zara)" in output
