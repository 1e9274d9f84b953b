"""Integration tests for the observability CLI surface.

``dbk explain`` / ``dbk profile`` / ``dbk retrieve`` must work against the
bundled example programs (the acceptance scenario), and the REPL ``.trace``
meta-command toggles a session tracer.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main, run_repl
from repro.datasets import university_kb
from repro.session import Session

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"

#: One representative query per bundled program.
PROGRAM_QUERIES = {
    "university.dbk": "honor(X)",
    "flights.dbk": "reachable(paris, X)",
    "genealogy.dbk": "ancestor(george, X)",
}


def run_lines(*lines, kb=None):
    session = Session(kb if kb is not None else university_kb())
    stream = io.StringIO("\n".join(lines) + "\n")
    out = io.StringIO()
    run_repl(session, stream=stream, out=out)
    return out.getvalue()


class TestExplainCommand:
    @pytest.mark.parametrize("program,query", sorted(PROGRAM_QUERIES.items()))
    def test_explains_every_example_program(self, capsys, program, query):
        assert main(["explain", "--load", str(EXAMPLES / program), query]) == 0
        out = capsys.readouterr().out
        assert "route: " in out
        assert "stratum 1" in out
        assert "query conjunction:" in out

    def test_recursive_program_shows_delta_rewritings(self, capsys):
        path = EXAMPLES / "genealogy.dbk"
        assert main(["explain", "--load", str(path), "ancestor(X, Y)"]) == 0
        out = capsys.readouterr().out
        assert "(recursive)" in out
        assert "delta rewritings" in out

    def test_json_output(self, capsys):
        assert main(["explain", "--dataset", "university", "honor(X)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["route"], payload["reason"]) == ("materialise", None)
        assert payload["strata"][0]["predicates"] == ["honor"]

    def test_magic_engine(self, capsys):
        """A bound goal on a recursive predicate explains as the magic
        route, with the reason; nothing selects it."""
        args = ["explain", "--dataset", "university", "prior(databases, Y)"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "route: goal_directed (cold)" in out
        assert "magic-sets rewrite" in out
        assert main(["explain", "--dataset", "university", "prior(X, Y)"]) == 0
        assert "route: materialise (free_goal)" in capsys.readouterr().out

    def test_bad_statement_exits_2(self, capsys):
        assert main(["explain", "--dataset", "university", "nonexistent(X)"]) == 2
        assert "error:" in capsys.readouterr().err


class TestProfileCommand:
    @pytest.mark.parametrize("program,query", sorted(PROGRAM_QUERIES.items()))
    def test_profiles_every_example_program(self, capsys, program, query):
        assert main(["profile", "--load", str(EXAMPLES / program), query]) == 0
        out = capsys.readouterr().out
        assert "rule" in out

    def test_json_output_with_top(self, capsys):
        args = [
            "profile", "--dataset", "routing", "reach(lax, X)", "--json", "--top", "1",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["hotspots"]) == 1
        assert payload["totals"]["facts_derived"] > 0


class TestRetrieveCommand:
    def test_plain_answers_without_trace(self, capsys):
        assert main(["retrieve", "--dataset", "university", "honor(X)"]) == 0
        out = capsys.readouterr().out
        assert "ann" in out
        assert "[trace:" not in out

    def test_trace_file_written(self, tmp_path, capsys):
        trace_file = tmp_path / "span.json"
        args = [
            "retrieve", "--dataset", "university", "honor(X)",
            "--trace", str(trace_file),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[trace:" in out
        tree = json.loads(trace_file.read_text())
        assert tree["name"] == "query"
        assert "duration_ms" in tree

    def test_json_embeds_trace(self, capsys):
        args = ["retrieve", "--dataset", "university", "honor(X)", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 5
        assert payload["trace"]["name"] == "query"

    def test_unwritable_trace_file_exits_2(self, capsys):
        args = [
            "retrieve", "--dataset", "university", "honor(X)",
            "--trace", "/no/such/dir/span.json",
        ]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err


class TestReplTraceCommand:
    def test_trace_on_shows_summary(self):
        output = run_lines(".trace on", "retrieve honor(X)", ".trace")
        assert "tracing on" in output
        assert "facts_derived" in output or "rule" in output

    def test_trace_off(self):
        output = run_lines(".trace on", ".trace off", "retrieve honor(X)", ".trace")
        assert "tracing off" in output

    def test_trace_json(self):
        output = run_lines(".trace on", "retrieve honor(X)", ".trace json")
        assert '"name": "query"' in output

    def test_trace_without_query_reports_status(self):
        output = run_lines(".trace on", ".trace")
        assert "no trace" in output
