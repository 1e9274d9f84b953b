"""Soundness of strict lint: it never rejects an engine-evaluable program.

``lint="strict"`` refuses a load exactly when the analyzer reports an
*error*-severity finding.  Errors are reserved for programs outside the
sound fragment — programs the engines themselves refuse (unsafe rules,
broken recursion discipline, unstratifiable negation, conflicting
definitions).  So the defining property is one-directional: whenever a
random program loads **and** every IDB predicate evaluates successfully
on the data engines, strict lint must accept it.  Warnings (dead code,
arity drift in a body atom, unsatisfiable comparisons) explicitly do not
count: those programs run fine, they are just suspicious.

The generator deliberately produces defective programs — unbound head
variables, misspelled body predicates, wrong-arity references, random
comparison conjuncts — so both sides of the implication get exercised.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.analyzer import analyze
from repro.catalog.database import KnowledgeBase
from repro.catalog.loader import load_program
from repro.engine import retrieve
from repro.errors import ReproError
from repro.lang.parser import parse_program
from repro.logic.atoms import Atom
from repro.logic.terms import Variable

from tests.oracle import reference_answers

CONSTANTS = ["a", "b", "c"]
NUMBERS = ["1", "2", "3"]
VARIABLES = ["X", "Y", "Z", "W"]
COMPARATORS = ["<", "<=", ">", ">=", "!="]


@st.composite
def random_program_text(draw):
    lines = []
    available = []  # (name, arity)
    for index in range(draw(st.integers(1, 2))):
        name = f"e{index}"
        arity = draw(st.integers(1, 2))
        available.append((name, arity))
        rows = draw(
            st.lists(
                st.tuples(
                    *[
                        st.sampled_from(CONSTANTS + NUMBERS)
                        for _ in range(arity)
                    ]
                ),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        for row in rows:
            lines.append(f"{name}({', '.join(row)}).")

    for layer in range(draw(st.integers(1, 3))):
        body = []
        bound = []
        for _ in range(draw(st.integers(1, 2))):
            predicate, arity = draw(st.sampled_from(available))
            # Defect injection: misspell the predicate or drift the arity.
            if draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
                predicate = predicate + "x"
            if draw(st.integers(0, 4)) == 0:
                arity = 3 - arity
            args = [
                draw(st.sampled_from(VARIABLES)) for _ in range(arity)
            ]
            bound.extend(args)
            body.append(f"{predicate}({', '.join(args)})")
        if draw(st.integers(0, 2)) == 0:
            variable = draw(st.sampled_from(bound + VARIABLES[:1]))
            op = draw(st.sampled_from(COMPARATORS))
            limit = draw(st.sampled_from(NUMBERS))
            body.append(f"({variable} {op} {limit})")
        head_arity = draw(st.integers(1, 2))
        # Mostly well-bound heads, occasionally an unbound (unsafe) one.
        head_pool = bound + (
            VARIABLES if draw(st.integers(0, 4)) == 0 else []
        )
        head_args = [
            draw(st.sampled_from(head_pool)) for _ in range(head_arity)
        ]
        name = f"c{layer}"
        lines.append(f"{name}({', '.join(head_args)}) <- {' and '.join(body)}.")
        available.append((name, head_arity))

    idb = sorted({name for name, _ in available if name.startswith("c")})
    heads = {name: arity for name, arity in available}
    return "\n".join(lines) + "\n", [(name, heads[name]) for name in idb]


def engines_accept(source, idb):
    """Load with lint off and evaluate every IDB predicate, on the engine
    and on the reference evaluator."""
    kb = KnowledgeBase()
    try:
        load_program(kb, source, lint="off")
        for predicate, arity in idb:
            subject = Atom(
                predicate, [Variable(f"V{i}") for i in range(arity)]
            )
            answer = retrieve(kb, subject).to_set()
            assert answer == reference_answers(kb, subject)
    except ReproError:
        return False
    return True


class TestStrictLintSoundness:
    @settings(max_examples=120, deadline=None)
    @given(random_program_text())
    def test_strict_never_rejects_engine_evaluable_programs(self, generated):
        source, idb = generated
        if not engines_accept(source, idb):
            return  # the implication constrains evaluable programs only
        report = analyze(parse_program(source))
        assert report.ok, (
            "strict lint would reject an engine-evaluable program:\n"
            + source
            + report.format()
        )

    @settings(max_examples=60, deadline=None)
    @given(random_program_text())
    def test_analyzer_is_total_and_deterministic(self, generated):
        source, _ = generated
        first = analyze(parse_program(source))
        second = analyze(parse_program(source))
        assert [d.as_dict() for d in first] == [d.as_dict() for d in second]
