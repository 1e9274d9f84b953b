"""A family tree: recursion, concept comparison, and goal-directed retrieval.

The classic genealogy domain on three royal generations, exercising:

* describe over a rule with *two occurrences of the same predicate*
  (``sibling``) — the identification machinery picks occurrences apart;
* the recursive ``ancestor`` in the paper's preferred (modified,
  aux-free) transformation style;
* ``compare`` between related concepts (sibling vs. cousin);
* a selective recursive query, which the session answers goal-directed
  (magic sets) by itself — there is no engine to choose.

Run with::

    python examples/family_tree.py
"""

from repro import Session
from repro.cli import render
from repro.datasets import genealogy_kb


def banner(text: str) -> None:
    print()
    print("=" * 78)
    print(text)
    print("=" * 78)


def main() -> None:
    session = Session(genealogy_kb(), style="modified")

    banner("The family knowledge")
    for rule in session.kb.rules():
        print(" ", rule)

    banner("Data: who are william's ancestors?  (answered goal-directed)")
    print(render(session.query("retrieve ancestor(X, william)")))
    print(f"\n  goal-directed reads so far: {session.cache_stats()['goal_directed']}")

    banner("Knowledge: what makes someone charles's sibling?")
    print(render(session.query("describe sibling(X, Y) where parent(elizabeth, X)")))

    banner("Recursive knowledge: ancestors of george's descendants")
    print(render(session.query(
        "describe ancestor(X, Y) where ancestor(george, Y)"
    )))
    print("\n  The paper's modified transformation keeps the answer in the")
    print("  ancestor vocabulary — no artificial chain predicate.")

    banner("Must a cousin relationship go through siblings?")
    print(render(session.query("describe cousin(X, Y) where not sibling(A, B)")))

    banner("How do sibling and cousin relate?  (compare)")
    print(render(session.query(
        "compare (describe cousin(X, Y)) with (describe sibling(X, Y))"
    )))

    banner("Why is zara william's cousin?  (explain)")
    print(render(session.query("explain cousin(william, zara)")))


if __name__ == "__main__":
    main()
