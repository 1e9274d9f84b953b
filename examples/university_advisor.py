"""The paper's running example, end to end.

Reproduces, on the section 2.2 university database, every worked example of
the paper:

* Examples 1-2  — retrieve (data queries);
* Examples 3-5  — describe with Algorithm 1;
* T1            — the Imielinski transformation of ``prior``;
* Examples 6-7  — recursive describe with Algorithm 2 (both transformation
  styles), plus the divergence of Algorithm 1 under a step budget;
* the section 6 extensions (necessary / not / subjectless / wildcard /
  compare).

Run with::

    python examples/university_advisor.py
"""

from repro import Session
from repro.cli import render
from repro.core import run_algorithm1, transform_knowledge_base
from repro.datasets import university_kb
from repro.engine.guard import ResourceGuard
from repro.errors import SearchBudgetExceeded
from repro.lang import parse_atom, parse_body


def banner(text: str) -> None:
    print()
    print("=" * 78)
    print(text)
    print("=" * 78)


def main() -> None:
    kb = university_kb()
    session = Session(kb)

    banner("The database (paper, section 2.2)")
    for line in kb.describe_catalog():
        print(" ", line)

    banner("Example 1 — retrieve honor(X) where enroll(X, databases)")
    print(render(session.query("retrieve honor(X) where enroll(X, databases)")))

    banner("Example 2 — ad-hoc subject: math students above 3.7 who can TA databases")
    print(render(session.query(
        "retrieve answer(X) where can_ta(X, databases) and "
        "student(X, math, V) and (V > 3.7)"
    )))

    banner("Example 3 — describe can_ta(X, databases) "
           "where student(X, math, V) and (V > 3.7)")
    print(render(session.query(
        "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)"
    )))
    print("\n  (the paper's gloss: completed the course under the professor")
    print("   currently teaching it with grade over 3.3, or with grade 4.0)")

    banner("Example 4 — describe honor(X)")
    print(render(session.query("describe honor(X)")))

    banner("Example 5 — describe can_ta(X, Y) where honor(X) and teach(susan, Y)")
    print(render(session.query(
        "describe can_ta(X, Y) where honor(X) and teach(susan, Y)"
    )))

    banner("Section 5.2 — the transformation of prior")
    program = transform_knowledge_base(kb)
    for rule in program.rules:
        if "prior" in rule.head.predicate:
            print(f"  [{program.kind_of(rule):5}] {rule}")

    banner("Example 6 — describe prior(X, Y) where prior(databases, Y)")
    print("Algorithm 1 on this recursive subject diverges; with a step budget:")
    try:
        run_algorithm1(
            kb,
            parse_atom("prior(X, Y)"),
            parse_body("prior(databases, Y)"),
            guard=ResourceGuard(max_steps=10_000),
        )
    except SearchBudgetExceeded as error:
        print(f"  -> {error}")
    print("\nAlgorithm 2 (standard transformation):")
    print(render(session.query("describe prior(X, Y) where prior(databases, Y)")))
    print("\nAlgorithm 2 (modified transformation — the paper's preferred answer):")
    session_modified = Session(kb, style="modified")
    print(render(session_modified.query(
        "describe prior(X, Y) where prior(databases, Y)"
    )))

    banner("Example 7 — describe prior(X, Y) where prior(X, databases)")
    print("(the typing guard suppresses the unsound 'loop' answers)")
    print(render(session.query("describe prior(X, Y) where prior(X, databases)")))

    banner("Extension: describe honor(X) where necessary complete(X,Y,Z,U) and (U > 3.3)")
    result = session.query(
        "describe honor(X) where necessary complete(X, Y, Z, U) and (U > 3.3)"
    )
    print(render(result) if len(result) else
          "  (no answers — completing a course is never necessary for honor status)")

    banner("Extension: describe can_ta(X, Y) where not honor(X)")
    print(render(session.query("describe can_ta(X, Y) where not honor(X)")))

    banner("Extension: describe where student(X,Y,Z) and (Z < 3.5) and can_ta(X,U)")
    print(render(session.query(
        "describe where student(X, Y, Z) and (Z < 3.5) and can_ta(X, U)"
    )))

    banner("Extension: describe * where honor(X)  (advantages of honor status)")
    print(render(session.query("describe * where honor(X)")))

    banner("Extension: compare (describe can_ta(X, Y)) with (describe honor(X))")
    print(render(session.query(
        "compare (describe can_ta(X, Y)) with (describe honor(X))"
    )))


if __name__ == "__main__":
    main()
