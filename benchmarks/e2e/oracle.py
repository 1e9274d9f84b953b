"""Independent answer oracles: every op's answer is checked, wrong = failed.

Nothing here calls the program under test.  Data answers are recomputed
from the generated tables (a BFS for transitive closure, the university
rules written out as Python), knowledge answers are compared with golden
texts under ``golden/`` up to variable renaming and answer order, and
scaling describes are checked on answer count and every answer's head.

A check returns ``None`` when the answer is right and a short reason
otherwise; results are duck-typed (class name, attributes) so the oracle
imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import os
import re
from collections import defaultdict, deque

from inputs import Edge, University

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_VARIABLE = re.compile(r"\b[A-Z_][A-Za-z0-9_]*\b")


# -- transitive closure -----------------------------------------------------------------


def adjacency(edges: list[Edge]) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = defaultdict(set)
    for src, dst in edges:
        graph[src].add(dst)
    return graph


def reachable(graph: dict[str, set[str]], source: str) -> set[str]:
    """Nodes reachable from *source* by one or more edges (BFS)."""
    seen: set[str] = set()
    frontier = deque(graph.get(source, ()))
    while frontier:
        node = frontier.popleft()
        if node not in seen:
            seen.add(node)
            frontier.extend(graph.get(node, ()))
    return seen


def closure(edges: list[Edge]) -> set[tuple[str, str]]:
    graph = adjacency(edges)
    return {(src, dst) for src in list(graph) for dst in reachable(graph, src)}


def check_rows(rows: set[tuple], expected: set[tuple]) -> str | None:
    """Row-set equality (not just the count)."""
    if rows == expected:
        return None
    missing = len(expected - rows)
    extra = len(rows - expected)
    return f"row set differs: {missing} missing, {extra} unexpected"


def row_values(result) -> set[tuple]:
    """A ``RetrieveResult``'s rows as plain value tuples."""
    return {tuple(constant.value for constant in row) for row in result.rows}


# -- the university rules, evaluated independently ------------------------------------


class UniversityOracle:
    """The paper's IDB (section 2.2) written out over the generated tables."""

    def __init__(self, uni: University) -> None:
        self.uni = uni
        self.honor = {name for name, _major, gpa in uni.student if gpa > 3.7}
        teaching = set(uni.teach)
        offered = {
            (title, sem)
            for prof, title, sem, _eval in uni.taught
            if (prof, title) in teaching
        }
        self.can_ta = {
            (name, title)
            for name, title, sem, grade in uni.complete
            if name in self.honor
            and (grade == 4.0 or (grade > 3.3 and (title, sem) in offered))
        }

    def expected(self, shape: str, params: dict[str, str]) -> set[tuple]:
        """The answer rows of one ``inputs.point_schedule`` statement."""
        uni = self.uni
        if shape == "point":
            hit = (params["student"], params["course"]) in self.can_ta
            return {()} if hit else set()
        if shape == "join":
            advanced = {title for title, _prereq in uni.prereq}
            return {
                (title, grade)
                for name, title, _sem, grade in uni.complete
                if name == params["student"] and title in advanced
            }
        if shape == "e1":
            return {
                (name,)
                for name, title in uni.enroll
                if title == params["course"] and name in self.honor
            }
        if shape == "e2":
            return {
                (name,)
                for name, major, gpa in uni.student
                if major == params["major"]
                and gpa > 3.7
                and (name, params["course"]) in self.can_ta
            }
        raise ValueError(f"unknown statement shape {shape!r}")


# -- knowledge answers against golden texts ---------------------------------------------


def canonical(rule_text: str) -> str:
    """Rule text with variables renamed by first occurrence (V1, V2, ...)."""
    names: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        return names.setdefault(match.group(0), f"V{len(names) + 1}")

    return _VARIABLE.sub(rename, rule_text)


def knowledge_summary(result) -> dict:
    """A JSON-friendly digest of any knowledge-query result."""
    if isinstance(result, dict):  # wildcard describe: predicate -> result
        return {
            "kind": "wildcard",
            "predicates": {
                name: knowledge_summary(sub)["answers"]
                for name, sub in sorted(result.items())
            },
        }
    kind = type(result).__name__
    if kind == "DescribeResult":
        return {
            "kind": "describe",
            "answers": sorted(canonical(str(answer)) for answer in result.answers),
            "contradiction": bool(result.contradiction),
        }
    if kind == "NecessityResult":
        return {"kind": "necessity", "necessary": bool(result.necessary)}
    if kind == "PossibilityResult":
        return {"kind": "possibility", "possible": bool(result.possible)}
    if kind == "ConceptComparison":
        return {"kind": "compare", "relation": result.relation}
    return {"kind": kind, "text": str(result)}


def payload_summary(kind: str, payload) -> dict:
    """The same digest from a server response's ``kind``/``result`` fields."""
    if kind == "describe":
        return {
            "kind": "describe",
            "answers": sorted(canonical(text) for text in payload["rules"]),
            "contradiction": bool(payload["contradiction"]),
        }
    return {"kind": kind, "text": json.dumps(payload, sort_keys=True)}


def load_golden() -> dict[str, dict]:
    """Statement id -> expected digest, from every file under ``golden/``."""
    golden: dict[str, dict] = {}
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if name.endswith(".json"):
            with open(os.path.join(GOLDEN_DIR, name)) as handle:
                golden.update(json.load(handle))
    return golden


def check_knowledge(expected: dict, summary: dict) -> str | None:
    """Compare a digest with its golden entry.

    Paper statements carry full answer texts (already canonical and
    sorted); scaling describes carry ``count`` and ``head`` only.
    """
    if expected["kind"] != summary["kind"]:
        return f"expected a {expected['kind']} answer, got {summary['kind']}"
    if "count" in expected:
        answers = summary["answers"]
        if len(answers) != expected["count"]:
            return f"expected {expected['count']} answers, got {len(answers)}"
        head = canonical(expected["head"])
        for answer in answers:
            if canonical(answer.split(" <- ", 1)[0].rstrip(".")) != head:
                return f"answer head differs from {expected['head']}: {answer}"
        return None
    if expected != summary:
        return f"answer differs from golden: {json.dumps(summary, sort_keys=True)}"
    return None
