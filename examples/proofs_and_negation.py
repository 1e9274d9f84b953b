"""Beyond the paper: negation, proofs, intensional answers, diagnostics.

The paper's section 6 sketches where the system should grow; this script
exercises the implemented extensions on a visa-office case file:

* stratified negation — "Are all foreign students married?" asked the
  natural way, as a query for counterexamples;
* ``explain`` — derivation trees showing *why* an answer holds;
* intensional answers — a data query answered with rules plus residue
  (the paper's mechanism 2);
* the rule-base lint — the redundancy detection section 6 calls for.

Run with::

    python examples/proofs_and_negation.py
"""

from repro import Session, intensional_answer, parse_atom
from repro.cli import render


def banner(text: str) -> None:
    print()
    print("=" * 78)
    print(text)
    print("=" * 78)


CASE_FILE = """
% The visa office's records.
person(ann, usa, married).
person(bob, france, single).
person(carol, japan, married).
person(dave, usa, single).
person(emil, france, married).
person(fred, brazil, single).
sponsor(carol, acme).
sponsor(emil, acme).
sponsor(bob, initech).

% The office's knowledge.
foreign(X) <- person(X, C, S) and (C != usa).
married(X) <- person(X, C, married).
sponsored(X) <- sponsor(X, E).
needs_review(X) <- foreign(X) and not married(X) and not sponsored(X).
fast_track(X) <- foreign(X) and married(X) and sponsored(X).
"""


def main() -> None:
    session = Session()
    session.load(CASE_FILE)

    banner('"Are all foreign students married?" — the paper\'s data reading')
    print("counterexamples (foreign and not married):")
    print(render(session.query("retrieve witness(X) where foreign(X) and not married(X)")))

    banner("Negation inside rules: who needs manual review?")
    print(render(session.query("retrieve needs_review(X)")))

    banner("Who is on the fast track, and why?  (explain)")
    print(render(session.query("explain fast_track(X)")))

    banner("explain a single fact")
    print(render(session.query("explain foreign(bob)")))

    banner("Intensional answer: the fast-track list, abstracted into rules")
    print(intensional_answer(session.kb, parse_atom("fast_track(X)")))

    banner("Linting the rule base (section 6's redundancy concern)")
    session.query("married(X) <- person(X, C, married) and sponsor(X, E).")
    report = session.lint_report()
    print(report)
    print("\n  The added rule is a needless specialisation — exactly the")
    print("  'body of one rule is a consequence of the body of the other'")
    print("  redundancy the paper describes.")


if __name__ == "__main__":
    main()
