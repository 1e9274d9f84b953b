"""Pass 7 (abstract interpretation) — KB701-KB704 diagnostics."""

from repro.analysis.analyzer import analyze


def run(source):
    return analyze(source, passes=["absint"])


class TestIncomparableOrder:
    def test_numeric_vs_symbolic_order_is_kb701(self):
        source = (
            "q(1). q(2).\n"
            "r(a). r(b).\n"
            "p(X, Y) <- q(X) and r(Y) and (X < Y).\n"
        )
        (d,) = [d for d in run(source) if d.code == "KB701"]
        assert d.severity.value == "warning"
        assert d.predicate == "p"
        assert d.span.line == 3
        assert "can never succeed" in d.message
        assert "never comparable" in d.hint

    def test_numeric_order_is_silent(self):
        source = "q(1). q(2).\np(X, Y) <- q(X) and q(Y) and (X < Y).\n"
        assert [d for d in run(source) if d.code == "KB701"] == []

    def test_string_order_is_silent(self):
        source = "q(a). q(b).\np(X, Y) <- q(X) and q(Y) and (X < Y).\n"
        assert [d for d in run(source) if d.code == "KB701"] == []

    def test_boolean_vs_symbolic_order_is_kb701(self):
        # Booleans order only with booleans, as evaluation raises on
        # ``true < abc`` the LogicError it raises on ``1 < abc``.
        source = (
            "c(true).\n"
            "p(X) <- c(X) and (X < abc).\n"
            "q(X) <- c(X) and (X < true).\n"
        )
        assert [d.predicate for d in run(source) if d.code == "KB701"] == ["p"]


class TestEmptyJoin:
    def test_disjoint_kinds_join_is_kb702(self):
        source = "q(1). q(2).\nr(a). r(b).\np(X) <- q(X) and r(X).\n"
        (d,) = [d for d in run(source) if d.code == "KB702"]
        assert d.severity.value == "warning"
        assert d.span.line == 3
        assert "provably" in d.message and "empty" in d.message

    def test_disjoint_enum_join_is_kb702(self):
        source = "q(1). q(2).\nr(3). r(4).\np(X) <- q(X) and r(X).\n"
        assert "KB702" in {d.code for d in run(source)}

    def test_overlapping_join_is_silent(self):
        source = "q(1). q(2).\nr(2). r(3).\np(X) <- q(X) and r(X).\n"
        assert "KB702" not in {d.code for d in run(source)}

    def test_impossible_constant_is_kb702(self):
        source = "role(admin, 1).\np(Y) <- role(guest, Y).\n"
        (d,) = [d for d in run(source) if d.code == "KB702"]
        assert "can never match its column" in d.message
        assert d.span.line == 2

    def test_matching_constant_is_silent(self):
        source = "role(admin, 1).\np(Y) <- role(admin, Y).\n"
        assert "KB702" not in {d.code for d in run(source)}

    def test_int_and_float_of_one_value_match(self):
        # 4 and 4.0 are one constant, whichever spelling a column holds.
        source = "q(4).\nr(4.0).\np(X) <- q(X) and r(X).\ns(X) <- q(X) and r(4).\n"
        assert "KB702" not in {d.code for d in run(source)}

    def test_widened_int_and_float_columns_overlap(self):
        # Past the enum cap only kinds and intervals are left to compare.
        ints = "".join(f"q({n}).\n" for n in range(40))
        floats = "".join(f"r({n}.5).\n" for n in range(40))
        source = ints + floats + "p(X) <- q(X) and r(X).\n"
        assert "KB702" not in {d.code for d in run(source)}


class TestUnboundedRecursion:
    def test_disconnected_atom_in_recursion_is_kb703(self):
        source = "e(1). e(2).\nr(X) <- e(X).\nr(X) <- r(Y) and e(X).\n"
        (d,) = [d for d in run(source) if d.code == "KB703"]
        assert d.severity.value == "warning"
        assert d.predicate == "r"
        assert d.span.line == 3
        assert "multiplies every iteration" in d.message

    def test_linear_closure_is_silent(self):
        source = (
            "e(1, 2). e(2, 3).\n"
            "path(X, Y) <- e(X, Y).\n"
            "path(X, Y) <- e(X, Z) and path(Z, Y).\n"
        )
        assert "KB703" not in {d.code for d in run(source)}

    def test_comparison_connection_counts(self):
        # e(X) is tied to the recursive r(Y) through (X = Y): not a product.
        source = "e(1).\nr(X) <- e(X).\nr(X) <- r(Y) and e(X) and (X = Y).\n"
        assert "KB703" not in {d.code for d in run(source)}

    def test_one_finding_per_rule(self):
        source = (
            "e(1). f(2).\n"
            "r(X) <- e(X).\n"
            "r(X) <- r(Y) and e(X) and f(X).\n"
        )
        assert len([d for d in run(source) if d.code == "KB703"]) == 1


class TestUnreachableByCall:
    SOURCE = (
        "e(1). e(2).\n"
        "level(admin, X) <- e(X).\n"
        "level(guest, X) <- e(X).\n"
        "top(X) <- level(guest, X).\n"
    )

    def test_never_called_constant_head_is_kb704(self):
        (d,) = [d for d in run(self.SOURCE) if d.code == "KB704"]
        assert d.severity.value == "warning"
        assert d.predicate == "level"
        assert d.span.line == 2
        assert "unreachable" in d.message and "admin" in d.message

    def test_matching_reference_is_silent(self):
        source = self.SOURCE + "aud(X) <- level(admin, X).\n"
        assert "KB704" not in {d.code for d in run(source)}

    def test_variable_reference_with_compatible_domain_is_silent(self):
        # The caller passes a variable that can take the value `admin`.
        source = (
            "e(1).\nwho(admin).\n"
            "level(admin, X) <- e(X).\n"
            "top(W, X) <- who(W) and level(W, X).\n"
        )
        assert "KB704" not in {d.code for d in run(source)}

    def test_unreferenced_predicate_is_left_to_kb503(self):
        source = "e(1).\nlevel(admin, X) <- e(X).\n"
        assert "KB704" not in {d.code for d in run(source)}


class TestPassRegistration:
    def test_absint_pass_is_registered_with_its_codes(self):
        from repro.analysis.registry import get_pass

        p = get_pass("absint")
        assert p.codes == ("KB701", "KB702", "KB703", "KB704")

    def test_clean_program_has_no_absint_findings(self):
        source = (
            "edge(1, 2). edge(2, 3).\n"
            "path(X, Y) <- edge(X, Y).\n"
            "path(X, Y) <- edge(X, Z) and path(Z, Y).\n"
        )
        codes = {d.code for d in run(source)}
        assert not codes & {"KB701", "KB702", "KB703", "KB704"}
