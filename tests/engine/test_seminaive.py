"""Unit tests for the semi-naive bottom-up engine."""

import itertools

import pytest

from repro.errors import EvaluationLimitError, ResourceExhausted, SafetyError
from repro.catalog.database import KnowledgeBase
from repro.catalog.loader import load_program
from repro.engine.evaluate import retrieve
from repro.engine.guard import ResourceGuard
from repro.engine.kernels import IntTable
from repro.engine.plan import DELTA_PREFIX, DeltaName, delta_name
from repro.engine.seminaive import SemiNaiveEngine
from repro.datasets import chain_graph_kb, random_graph_kb
from repro.lang.parser import parse_atom, parse_rule
from repro.obs.trace import Tracer

from tests.oracle import reference_rows


def values(relation):
    return sorted(tuple(c.value for c in row) for row in relation.rows())


class TestNonRecursive:
    def test_single_rule(self, uni):
        engine = SemiNaiveEngine(uni)
        honor = engine.derived_relation("honor")
        assert values(honor) == [
            ("ann",), ("bob",), ("carol",), ("frank",), ("grace",),
        ]

    def test_layered_rules(self, uni):
        engine = SemiNaiveEngine(uni)
        can_ta = engine.derived_relation("can_ta")
        names = {row[0] for row in values(can_ta)}
        # ann/carol via rule 1 (susan taught databases), bob/frank/grace via 4.0.
        assert names == {"ann", "carol", "bob", "frank", "grace"}

    def test_relevance_restriction(self, uni):
        engine = SemiNaiveEngine(uni)
        engine.evaluate(["honor"])
        # prior was not needed and must not have been materialised.
        assert engine.fact_count() == 5

    def test_incremental_reuse(self, uni):
        engine = SemiNaiveEngine(uni)
        first = engine.derived_relation("honor")
        second = engine.derived_relation("honor")
        assert first is second


class TestRecursive:
    def test_transitive_closure_on_chain(self):
        kb = chain_graph_kb(5)
        engine = SemiNaiveEngine(kb)
        path = engine.derived_relation("path")
        assert len(path) == 5 * 6 // 2  # all ordered pairs along the chain

    def test_transitive_closure_matches_networkx(self):
        import networkx as nx

        kb = random_graph_kb(nodes=12, edges=25, seed=7)
        graph = nx.DiGraph()
        for row in kb.facts("edge"):
            graph.add_edge(row[0].value, row[1].value)
        # reflexive=False keeps (n, n) exactly for nodes on a cycle, matching
        # Datalog TC semantics (path(a, a) holds when a can reach itself).
        expected = set(nx.transitive_closure(graph, reflexive=False).edges())
        engine = SemiNaiveEngine(kb)
        computed = {
            (row[0].value, row[1].value) for row in engine.derived_relation("path")
        }
        assert computed == expected

    def test_cycle_terminates(self):
        kb = KnowledgeBase()
        kb.declare_edb("edge", 2)
        kb.add_facts("edge", [("a", "b"), ("b", "c"), ("c", "a")])
        kb.add_rules(
            [
                parse_rule("path(X, Y) <- edge(X, Y)."),
                parse_rule("path(X, Y) <- edge(X, Z) and path(Z, Y)."),
            ]
        )
        engine = SemiNaiveEngine(kb)
        assert len(engine.derived_relation("path")) == 9

    def test_mutual_recursion(self):
        kb = KnowledgeBase()
        kb.declare_edb("zero", 1)
        kb.declare_edb("succ", 2)
        kb.add_fact("zero", "n0")
        kb.add_facts("succ", [(f"n{i}", f"n{i + 1}") for i in range(6)])
        kb.add_rules(
            [
                parse_rule("even(X) <- zero(X)."),
                parse_rule("even(X) <- succ(Y, X) and odd(Y)."),
                parse_rule("odd(X) <- succ(Y, X) and even(Y)."),
            ]
        )
        engine = SemiNaiveEngine(kb)
        assert values(engine.derived_relation("even")) == [("n0",), ("n2",), ("n4",), ("n6",)]
        assert values(engine.derived_relation("odd")) == [("n1",), ("n3",), ("n5",)]

    def test_permutation_rule_symmetric_closure(self, symmetric_routing):
        engine = SemiNaiveEngine(symmetric_routing)
        link = engine.derived_relation("link")
        pairs = {(row[0].value, row[1].value) for row in link}
        assert ("sfo", "lax") in pairs  # reverse of a stored flight
        assert all((b, a) in pairs for (a, b) in pairs)


class TestDeltaDrivenFixpoint:
    """Delta-first plans and the fused head, held to the reference
    evaluator on the recursion shapes whose delta variants differ."""

    EDGES = "".join(
        f"edge(n{a}, n{b}).\n" for a, b in [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 0)]
    )
    PROGRAMS = {
        "left_linear": "path(X, Y) <- edge(X, Y).\npath(X, Y) <- path(X, Z) and edge(Z, Y).\n",
        "right_linear": "path(X, Y) <- edge(X, Y).\npath(X, Y) <- edge(X, Z) and path(Z, Y).\n",
        # Two delta variants of one rule, each with the other occurrence
        # as its (growing) build side.
        "non_linear": "path(X, Y) <- edge(X, Y).\npath(X, Y) <- path(X, Z) and path(Z, Y).\n",
        # Two tables in one stratum, each rule's delta the other's head.
        "mutual": (
            "even(X, Y) <- edge(X, Z) and odd(Z, Y).\n"
            "odd(X, Y) <- edge(X, Y).\n"
            "odd(X, Y) <- edge(X, Z) and even(Z, Y).\n"
        ),
        # The same, through the admit path: no head here is fused.
        "mutual_unfused": (
            "even(X, Y, k) <- edge(X, Z) and odd(Z, Y, k).\n"
            "odd(X, Y, k) <- edge(X, Y).\n"
            "odd(X, Y, k) <- edge(X, Z) and even(Z, Y, k).\n"
        ),
        # Heads the last join cannot carry (a constant, an interleaving).
        "unfused_heads": (
            "path(X, Y) <- edge(X, Y).\npath(X, Y) <- edge(X, Z) and path(Z, Y).\n"
            "via(X, Z, Y) <- edge(X, Z) and via(Z, W, Y).\nvia(X, Y, Y) <- edge(X, Y).\n"
            "mark(X, reached) <- path(n5, X).\n"
        ),
    }

    def kb(self, name):
        # The non-linear and untyped recursions are outside the discipline
        # ``describe`` needs; the data engines evaluate them all the same.
        kb = KnowledgeBase(enforce_recursion_discipline=False)
        load_program(kb, self.EDGES + self.PROGRAMS[name])
        return kb

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_the_reference(self, name):
        kb = self.kb(name)
        derived = SemiNaiveEngine(kb).evaluate()
        assert derived and all(len(relation) for relation in derived.values())
        for predicate, relation in derived.items():
            assert set(relation.rows()) == reference_rows(kb, predicate), predicate
            relation.check_invariants()

    def test_every_delta_kernel_scans_its_delta_first(self):
        kb = self.kb("non_linear")
        SemiNaiveEngine(kb).evaluate()
        (stratum,) = kb.dependency_graph().compiled.values()
        variants = {key: k for key, k in stratum.kernels.items() if key[1] >= 0}
        assert sorted(variants) == [(1, 0), (1, 1)]
        for kernel in variants.values():
            first, second = kernel.kernel.steps
            assert first.predicate == delta_name("path") and first.shape is None
            assert second.predicate == "path" and kernel.head_fused

    def test_a_trip_at_any_checkpoint_leaves_a_sound_flushed_partial(self):
        # The tail stages head rows straight into the table, so a budget
        # that trips between two fires (the step budget is charged at the
        # tail's own boundary too) must still flush what earlier fires
        # staged and made visible — and nothing that is not derivable.
        kb = self.kb("right_linear")
        subject = parse_atom("path(X, Y)")
        full = retrieve(kb, subject).to_set()
        sizes = set()
        for steps in range(1, 200):
            guard = ResourceGuard(max_steps=steps, mode="degrade")
            result = retrieve(kb, subject, guard=guard)
            assert result.to_set() <= full, steps
            if not result.diagnostics.degraded:
                assert result.to_set() == full
                break
            sizes.add(len(result.rows))
        else:
            pytest.fail("the budget never stopped tripping")
        assert len(sizes) > 2 and max(sizes) > 0  # partials grow with the budget

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_every_flushed_relation_holds_each_row_once(self, name):
        # The flush hands a table's rows over as distinct and the relation
        # adopts them without hashing them again.  check_invariants rejects
        # an id-only relation holding a row twice; it must pass on every
        # derived relation after a trip at any step budget — one inside the
        # first delta round among them — and after the full fixpoint.
        kb = self.kb(name)
        reference = {p: reference_rows(kb, p) for p in kb.idb_predicates()}
        tripped_in_first_round = False
        for steps in itertools.count(1):
            guard = ResourceGuard(max_steps=steps, mode="degrade")
            engine = SemiNaiveEngine(kb, guard=guard)
            try:
                engine.evaluate()
                tripped = False
            except ResourceExhausted:
                tripped = True
                tripped_in_first_round |= guard.iterations == 1
            for predicate, rows in reference.items():
                relation = engine.partial_relation(predicate)
                relation.check_invariants()
                assert set(relation.rows()) <= rows, (steps, predicate)
                if not tripped:
                    assert set(relation.rows()) == rows, predicate
            if not tripped:
                break
        assert tripped_in_first_round

    @pytest.mark.parametrize("name", ["mutual", "mutual_unfused", "non_linear"])
    def test_a_trip_inside_a_round_flushes_the_rows_visible_before_it(
        self, name, monkeypatch
    ):
        # The rows a round stages sit in the table's index past its visible
        # rows; a trip at any step of round k must flush exactly what the
        # rounds before it made visible — the rows an iteration budget of
        # k - 1 leaves — and none of the staged ones.
        kb = self.kb(name)
        staged_at_flush = []
        flush = IntTable.flush

        def recording(table, relation):
            staged_at_flush.append(len(table.pending))
            flush(table, relation)

        monkeypatch.setattr(IntTable, "flush", recording)

        class TripInRound(ResourceGuard):
            """Trips at the *at*-th step checkpoint of delta round *round*."""

            def __init__(self, round, at):
                super().__init__(mode="degrade")
                self.round, self.at, self.seen = round, at, 0

            def tick(self, steps=1, error=None):
                super().tick(steps, error)
                if self.iterations == self.round:
                    self.seen += 1
                    if self.seen == self.at:
                        self._trip("steps", self.seen, self.at, "inside the round", error)

        def rows_after(guard):
            engine = SemiNaiveEngine(kb, guard=guard)
            try:
                engine.evaluate()
            except ResourceExhausted:
                pass
            return {p: engine.partial_relation(p).rows() for p in kb.idb_predicates()}

        full = rows_after(None)
        dropped_staged = False
        for round in (2, 3):
            before = rows_after(ResourceGuard(max_iterations=round - 1, mode="degrade"))
            assert before != full
            for at in itertools.count(1):
                guard = TripInRound(round, at)
                staged_at_flush.clear()
                partial = rows_after(guard)
                if guard.tripped is None:
                    break  # the round ended before its at-th step
                assert partial == before, (round, at)
                dropped_staged |= any(staged_at_flush)
        assert dropped_staged, "no trip found rows staged"

    def test_a_bound_firing_resolves_a_stored_id_table_once_per_evaluation(
        self, monkeypatch
    ):
        # A stored relation cannot change during a fixpoint, so the delta
        # variant's build side on edge is resolved when the firing is
        # bound, once per evaluation, not once per iteration.
        from repro.catalog.relation import Relation

        kb = chain_graph_kb(30)
        edge = kb.relation("edge")
        requested = []
        table = Relation.table

        def counting(relation, shape, const=()):
            if relation is edge:
                requested.append(shape)
            return table(relation, shape, const)

        monkeypatch.setattr(Relation, "table", counting)
        for evaluation in (1, 2):
            guard = ResourceGuard()
            engine = SemiNaiveEngine(kb, guard=guard)
            assert len(engine.derived_relation("path")) == 465
            assert guard.iterations == 30
            assert len(requested) == evaluation  # one shape, once per evaluation
        assert len(set(requested)) == 1

    def test_strict_trip_leaves_the_partial_relation_flushed(self):
        kb = chain_graph_kb(30)
        engine = SemiNaiveEngine(kb, guard=ResourceGuard(max_iterations=5))
        with pytest.raises(EvaluationLimitError):
            engine.derived_relation("path")
        partial = engine.partial_relation("path")
        partial.check_invariants()
        assert 0 < len(partial) < 465
        assert set(partial.rows()) <= reference_rows(kb, "path")

    def test_rule_labels_are_formatted_once_per_stratum(self, monkeypatch):
        from repro.logic.clauses import Rule

        formatted = []
        original = Rule.__str__
        monkeypatch.setattr(
            Rule, "__str__", lambda rule: formatted.append(rule) or original(rule)
        )
        kb = chain_graph_kb(40)
        tracer = Tracer()
        with tracer.span("test"):
            SemiNaiveEngine(kb, tracer=tracer).derived_relation("path")
        # The initial round fires the exit rule alone, so the first of the
        # delta rounds does the recursive rule's full firing: one round
        # per path length.
        assert len(tracer.last.find("iteration")) == 40
        assert len(formatted) == 2  # two rules, whatever the iteration count
        labels = {span.attributes["rule"] for span in tracer.last.find("rule")}
        assert labels == {original(rule) for rule in kb.rules_for("path")}


    @pytest.mark.parametrize(
        "statement",
        [
            "retrieve answer(X) where can_ta(X, databases) and student(X, math, V)"
            " and (V > 3.7)",
            "retrieve outsider(X) where student(X, M, V) and not honor(X)",
            "retrieve prior(databases, Y)",
            "retrieve prior(X, Y) where (X != Y)",
            "retrieve student(X, M, V) where (V >= 3) and (W = V)",
        ],
    )
    def test_an_untraced_cold_read_formats_no_text(self, monkeypatch, statement):
        # Plans, kernels and rule labels are text only for explain and a
        # recording tracer: a plain read compiles and evaluates without
        # formatting an atom, a rule or a constant.
        from repro.datasets.university import university_kb
        from repro.logic.atoms import Atom
        from repro.logic.clauses import Rule
        from repro.logic.terms import Constant
        from repro.session import Session

        session = Session(university_kb())
        formatted = []
        for cls in (Atom, Rule, Constant):
            original = cls.__str__
            def counted(term, original=original):
                formatted.append(term)
                return original(term)

            monkeypatch.setattr(cls, "__str__", counted)
        assert session.query(statement).rows
        assert formatted == []


class TestDeltaNames:
    """A delta occurrence is told apart by what the rewriting made, not by
    the spelling of its predicate: a stored predicate named exactly like
    a member's delta is read as itself."""

    NAME = DELTA_PREFIX + "path"

    def kb(self):
        from repro.logic.atoms import Atom
        from repro.logic.clauses import Rule
        from repro.logic.terms import Variable

        kb = KnowledgeBase()
        load_program(kb, "edge(a, b). edge(b, c). path(X, Y) <- edge(X, Y).")
        kb.declare_edb(self.NAME, 2)
        kb.add_facts(self.NAME, [("c", "z")])
        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        kb.add_rule(
            Rule(Atom("path", [X, Y]), [Atom("path", [X, Z]), Atom(self.NAME, [Z, Y])])
        )
        return kb

    def test_retrieve_reads_the_stored_predicate(self):
        kb = self.kb()
        answer = retrieve(kb, parse_atom("path(X, Y)")).rows
        assert {tuple(c.value for c in row) for row in answer} == {
            ("a", "b"), ("b", "c"), ("b", "z"),
        }
        assert set(answer) == reference_rows(kb, "path")

    def test_a_delta_name_equals_no_plain_name(self):
        made = delta_name("path")
        assert isinstance(made, DeltaName) and made.member == "path"
        assert made == delta_name("path") and str(made) == self.NAME
        assert made != self.NAME and self.NAME != made
        assert {self.NAME: 1}.get(made) is None and {made: 1}.get(self.NAME) is None


class TestLimitsAndErrors:
    def test_budget_enforced(self):
        kb = chain_graph_kb(60)
        engine = SemiNaiveEngine(kb, guard=ResourceGuard(max_facts=100))
        with pytest.raises(EvaluationLimitError) as info:
            engine.derived_relation("path")
        assert info.value.budget == "facts"
        assert info.value.limit == 100

    def test_unsafe_rule_rejected(self):
        kb = KnowledgeBase(enforce_recursion_discipline=False)
        kb.declare_edb("q", 1)
        kb.add_fact("q", "a")
        kb.add_rule(parse_rule("p(X, W) <- q(X)."))
        with pytest.raises(SafetyError):
            SemiNaiveEngine(kb).derived_relation("p")

    def test_undefined_body_predicate_is_empty(self):
        kb = KnowledgeBase()
        kb.declare_edb("q", 1)
        kb.add_fact("q", "a")
        kb.add_rule(parse_rule("p(X) <- q(X) and ghost(X)."))
        assert len(SemiNaiveEngine(kb).derived_relation("p")) == 0
