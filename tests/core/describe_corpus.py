"""The seeded describe corpus and the rule-base generator behind it.

``tests/core/golden/describe_corpus.json`` holds what each case answered on
the commit *before* the derivation search learned the relevance cut;
``test_describe_corpus.py`` replays every case and compares.  The golden is
recorded once, by running this module on that commit::

    PYTHONPATH=src python -m tests.core.describe_corpus

and is not regenerated afterwards — an intended answer change edits the
affected entries by hand and says so in ``CHANGES.md``.

Cases (``case id -> thunk``) come from :func:`cases`:

* the scaling families of :mod:`repro.datasets.generators` (rule chains,
  rule trees, wide unions, growing hypotheses);
* every paper / enterprise statement of EXPERIMENTS.md (ids E3-E8, X1-X5,
  N/P/C/D), issued through a :class:`~repro.session.Session` as a user
  would;
* generated typed, strongly-linear rule bases with random hypotheses
  (:func:`generated_case`), each described under both transformation
  styles.  The property suite draws from the same generator.
"""

from __future__ import annotations

import json
import random
import re
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from repro.catalog.database import KnowledgeBase
from repro.core import describe
from repro.datasets import (
    enterprise_kb,
    hypothesis_of_size,
    rule_chain_kb,
    rule_tree_kb,
    university_kb,
    wide_union_kb,
)
from repro.engine.guard import ResourceGuard
from repro.errors import ResourceExhausted
from repro.lang.parser import parse_rule
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Variable
from repro.session import Session

GOLDEN_PATH = Path(__file__).parent / "golden" / "describe_corpus.json"

#: Seeds tried for the corpus's generated rule bases, and the step budget a
#: generated case must finish within to be recorded (a few seeds draw a
#: hypothesis that meets every rule of a deep base; they are left out).
GENERATED_SEEDS = range(240)
GENERATED_MAX_STEPS = 600

_VARIABLE = re.compile(r"\b[A-Z_][A-Za-z0-9_]*\b")


def canonical(text: str) -> str:
    """*text* with its variables renamed by first occurrence (V1, V2, ...)."""
    names: dict[str, str] = {}
    return _VARIABLE.sub(
        lambda match: names.setdefault(match.group(0), f"V{len(names) + 1}"), text
    )


# -- the paper's and the enterprise base's statements --------------------------------


def example8_kb() -> KnowledgeBase:
    """The paper's Example 8 program."""
    kb = KnowledgeBase("example8")
    kb.declare_edb("r", 2)
    kb.declare_edb("s", 2)
    kb.add_fact("r", "a", "b")
    kb.add_fact("s", "b", "c")
    kb.add_rules(
        [
            parse_rule("p(X, Y) <- q(X, Z) and r(Z, Y)."),
            parse_rule("q(X, Y) <- q(X, Z) and s(Z, Y)."),
            parse_rule("q(X, Y) <- r(X, Y)."),
        ]
    )
    return kb


KNOWLEDGE_BASES: dict[str, Callable[[], KnowledgeBase]] = {
    "university": university_kb,
    "enterprise": enterprise_kb,
    "example8": example8_kb,
    "rule_chain16": lambda: rule_chain_kb(16),
    "rule_chain32": lambda: rule_chain_kb(32),
    "rule_tree3x3": lambda: rule_tree_kb(3, 3),
    "rule_tree2x6": lambda: rule_tree_kb(6, 2),
    "wide_union32": lambda: wide_union_kb(32),
}

CHAIN_STATEMENT = "describe c0(X) where e0(X, T0)"
TREE_STATEMENT = "describe t_0_0(X) where leaf0(X)"
UNION_STATEMENT = "describe concept(X) where alt0(X, V)"

#: statement id -> (knowledge base key, statement text).
PAPER_STATEMENTS: dict[str, tuple[str, str]] = {
    "E3": (
        "university",
        "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)",
    ),
    "E4": ("university", "describe honor(X)"),
    "E5": ("university", "describe can_ta(X, Y) where honor(X) and teach(susan, Y)"),
    "E6": ("university", "describe prior(X, Y) where prior(databases, Y)"),
    "E7": ("university", "describe prior(X, Y) where prior(X, databases)"),
    "E8": ("example8", "describe p(X, Y) where r(a, Y)"),
    "X1": (
        "university",
        "describe honor(X) where necessary complete(X, Y, Z, U) and (U > 3.3)",
    ),
    "X2": ("university", "describe can_ta(X, Y) where not honor(X)"),
    "X3a": (
        "university",
        "describe where student(X, Y, Z) and (Z < 3.5) and can_ta(X, U)",
    ),
    "X3b": (
        "university",
        "describe where student(X, Y, Z) and (Z > 3.8) and can_ta(X, U)",
    ),
    "X4": ("university", "describe * where honor(X)"),
    "X5": ("university", "compare (describe can_ta(X, Y)) with (describe honor(X))"),
    "N1": ("enterprise", "describe bonus_eligible(X) where not senior(X)"),
    "N2": (
        "enterprise",
        "describe promotable(X) where necessary review(X, Y, S) and (S >= 4.5)",
    ),
    "P1": (
        "enterprise",
        "describe where employee(X, D, S, Y) and (Y < 5) and promotable(X)",
    ),
    "C1": (
        "enterprise",
        "compare (describe bonus_eligible(X)) with (describe promotable(X))",
    ),
    "D1": ("enterprise", "describe lead_eligible(X, P) where senior(X)"),
    "D2": ("enterprise", "describe chain(X, Y) where manages(alice, Y)"),
}

#: The 25 statement classes of the ``knowledge_mix`` benchmark workload,
#: rebuilt from :mod:`repro.datasets`.
KNOWLEDGE_MIX: dict[str, tuple[str, str]] = {
    **PAPER_STATEMENTS,
    "chain16": ("rule_chain16", CHAIN_STATEMENT),
    "chain32": ("rule_chain32", CHAIN_STATEMENT),
    "tree3x3": ("rule_tree3x3", TREE_STATEMENT),
    "tree2x6": ("rule_tree2x6", TREE_STATEMENT),
    "wide_union": ("wide_union32", UNION_STATEMENT),
    "hyp3": ("rule_chain16", "describe c0(X) where " + " and ".join(hypothesis_of_size(3))),
    "hyp6": ("rule_chain16", "describe c0(X) where " + " and ".join(hypothesis_of_size(6))),
}


def render(result) -> dict:
    """A JSON-friendly record of any knowledge-query result."""
    if isinstance(result, dict):  # wildcard describe: predicate -> result
        return {"wildcard": {name: render(sub) for name, sub in sorted(result.items())}}
    if type(result).__name__ == "DescribeResult":
        return {
            "answers": [str(answer) for answer in result.answers],
            "algorithm": result.algorithm,
            "contradiction": bool(result.contradiction),
        }
    return {"text": str(result)}


def canonical_record(record: dict) -> dict:
    """*record* with every answer text canonical (see :func:`canonical`)."""
    if "wildcard" in record:
        return {"wildcard": {k: canonical_record(v) for k, v in record["wildcard"].items()}}
    if "text" in record:
        return {"text": canonical(record["text"])}
    return {**record, "answers": [canonical(answer) for answer in record["answers"]]}


def run_statement(kb: KnowledgeBase, text: str) -> dict:
    """Issue one statement as a user would and render its answer."""
    return render(Session(kb).query(text))


# -- generated rule bases --------------------------------------------------------------

_DOMAIN = ("d0", "d1", "d2", "d3")


def _distinct_args(rng: random.Random, arity: int, pool: list) -> list:
    """*arity* arguments from *pool*, without repeats while the pool lasts."""
    if arity <= len(pool):
        return rng.sample(pool, arity)
    return [rng.choice(pool) for _ in range(arity)]


def _random_body(
    rng: random.Random, predicates: list[tuple[str, int]], cover: list[Variable]
) -> list[Atom]:
    """One or two atoms over *predicates*, more where *cover* needs binding."""
    pool: list = [*cover, Variable("Y1"), Variable("Y2")]
    body: list[Atom] = []
    for _ in range(rng.randint(1, 2)):
        name, arity = rng.choice(predicates)
        args = _distinct_args(rng, arity, pool)
        if rng.random() < 0.15:
            args[rng.randrange(arity)] = rng.choice(_DOMAIN)
        body.append(Atom(name, args))
    bound = {v for atom in body for v in atom.variables()}
    for variable in cover:
        if variable in bound:
            continue
        name, arity = rng.choice(predicates)
        args = _distinct_args(rng, arity, [v for v in pool if v != variable])
        args[rng.randrange(arity)] = variable
        body.append(Atom(name, args))
    if rng.random() < 0.3:
        subject = rng.choice(cover)
        body.append(Atom("score", [subject, Variable("N")]))
        body.append(Atom(rng.choice((">", ">=", "<")), [Variable("N"), rng.randint(1, 4)]))
    return body


def _recursive_rule(
    rng: random.Random, name: str, head_vars: list[Variable], binary: list[str]
) -> Rule:
    """A typed, strongly linear recursive rule for ``name(head_vars)``.

    The body occurrence differs from the head at a non-empty set of shared
    positions, each linked through a binary predicate (so both occurrences
    share that position with the rest of the body, as the transformation
    requires).
    """
    arity = len(head_vars)
    shared = sorted(rng.sample(range(arity), rng.randint(1, arity)))
    inner = list(head_vars)
    links: list[Atom] = []
    for position in shared:
        inner[position] = Variable(f"Z{position + 1}")
        pair = [head_vars[position], inner[position]]
        if rng.random() < 0.5:
            pair.reverse()
        links.append(Atom(rng.choice(binary), pair))
    recursive = Atom(name, inner)
    body = [recursive, *links] if rng.random() < 0.5 else [*links, recursive]
    return Rule(Atom(name, head_vars), body)


def generated_case(seed: int) -> tuple[KnowledgeBase, Atom, tuple[Atom, ...]]:
    """A random rule base with a random EDB instance, subject and hypothesis.

    EDB predicates ``b0..`` (``b0`` binary) and ``score`` hold random facts
    over a four-constant domain; IDB predicates ``p0..`` are layered (a body
    uses EDB and lower IDB predicates only), some with one typed, strongly
    linear recursive rule, so every rule base is inside the fragment the
    transformation supports.  Deterministic in *seed*.
    """
    rng = random.Random(seed)
    kb = KnowledgeBase(f"gen{seed}")
    predicates: list[tuple[str, int]] = []
    for index in range(rng.randint(2, 4)):
        arity = 2 if index == 0 else rng.choice((1, 2, 2, 3))
        name = f"b{index}"
        kb.declare_edb(name, arity)
        rows = {
            tuple(rng.choice(_DOMAIN) for _ in range(arity))
            for _ in range(rng.randint(2, 7))
        }
        kb.add_facts(name, sorted(rows))
        predicates.append((name, arity))
    kb.declare_edb("score", 2)
    kb.add_facts("score", [(constant, rng.randint(0, 5)) for constant in _DOMAIN])
    binary = [name for name, arity in predicates if arity == 2]

    idb: list[tuple[str, int]] = []
    for index in range(rng.randint(2, 4)):
        name = f"p{index}"
        arity = rng.choice((1, 2, 2))
        head_vars = [Variable(f"X{k + 1}") for k in range(arity)]
        head = Atom(name, head_vars)
        shape = rng.random()
        if shape < 0.15 and arity == 2:
            # The transitive closure of one stored relation: the one shape
            # the aux-free (modified) transformation rewrites differently.
            step, middle = rng.choice(binary), Variable("Z1")
            kb.add_rule(Rule(head, [Atom(step, head_vars)]))
            hop = Atom(step, [head_vars[0], middle])
            kb.add_rule(Rule(head, [hop, Atom(name, [middle, head_vars[1]])]))
        else:
            for _ in range(rng.randint(1, 2)):
                kb.add_rule(Rule(head, _random_body(rng, predicates, head_vars)))
            if shape < 0.5:
                kb.add_rule(_recursive_rule(rng, name, head_vars, binary))
        predicates.append((name, arity))
        idb.append((name, arity))

    name, arity = rng.choice(idb[-2:])
    subject_args: list = [Variable(v) for v in ("A", "B")[:arity]]
    if rng.random() < 0.25:
        subject_args[rng.randrange(arity)] = rng.choice(_DOMAIN)
    subject = Atom(name, subject_args)

    pool: list = [a for a in subject_args if isinstance(a, Variable)]
    pool += [Variable("H1"), Variable("H2"), rng.choice(_DOMAIN)]
    hypothesis: list[Atom] = []
    for _ in range(rng.randint(1, 3)):
        hyp_name, hyp_arity = rng.choice(predicates)
        hypothesis.append(Atom(hyp_name, _distinct_args(rng, hyp_arity, pool)))
    if rng.random() < 0.3:
        hypothesis.append(Atom("score", [rng.choice(pool[:-1]), Variable("M")]))
        hypothesis.append(Atom(rng.choice((">", "<")), [Variable("M"), rng.randint(1, 4)]))
    return kb, subject, tuple(hypothesis)


# -- the corpus ------------------------------------------------------------------------


def _built(make: Callable[..., KnowledgeBase], *args: int, text: str) -> dict:
    return run_statement(make(*args), text)


def cases() -> Iterator[tuple[str, Callable[[], dict]]]:
    """Every ``(case id, thunk rendering the case's answer)``."""
    for depth in range(1, 41):
        yield f"chain/{depth}", partial(_built, rule_chain_kb, depth, text=CHAIN_STATEMENT)
    for fanout, depths in ((2, range(1, 8)), (3, range(1, 5))):
        for depth in depths:
            yield (
                f"tree/{fanout}x{depth}",
                partial(_built, rule_tree_kb, depth, fanout, text=TREE_STATEMENT),
            )
    for breadth in range(1, 49):
        yield f"union/{breadth}", partial(_built, wide_union_kb, breadth, text=UNION_STATEMENT)
    for size in range(1, 8):
        text = "describe c0(X) where " + " and ".join(hypothesis_of_size(size))
        yield f"hyp/{size}", partial(_built, rule_chain_kb, 16, text=text)
    for sid, (key, text) in PAPER_STATEMENTS.items():
        yield f"paper/{sid}", partial(_built, KNOWLEDGE_BASES[key], text=text)
    for seed in GENERATED_SEEDS:
        for style in ("standard", "modified"):
            yield f"gen/{seed}/{style}", partial(_describe_generated, seed, style)


def _describe_generated(seed: int, style: str) -> dict:
    kb, subject, hypothesis = generated_case(seed)
    guard = ResourceGuard(max_steps=GENERATED_MAX_STEPS)
    return render(describe(kb, subject, hypothesis, style=style, guard=guard))


def record() -> None:
    """Write the golden file (run on the parent commit only)."""
    golden = {}
    for case_id, thunk in cases():
        try:
            golden[case_id] = thunk()
        except ResourceExhausted:
            assert case_id.startswith("gen/"), case_id
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
