"""Tests for persistence (JSON dumps, CSV import/export)."""

import json

import pytest

from repro.errors import CatalogError
from repro.catalog.persist import (
    export_csv,
    import_csv,
    kb_from_dict,
    kb_to_dict,
    load_kb,
    save_kb,
)
from repro.catalog.database import KnowledgeBase
from repro.engine import retrieve
from repro.lang.parser import parse_atom, parse_body
from repro.logic.clauses import IntegrityConstraint


class TestJsonRoundTrip:
    def test_facts_survive(self, uni, tmp_path):
        path = str(tmp_path / "uni.json")
        save_kb(uni, path)
        restored = load_kb(path)
        assert restored.fact_count() == uni.fact_count()
        assert restored.edb_predicates() == uni.edb_predicates()

    def test_rules_survive(self, uni, tmp_path):
        path = str(tmp_path / "uni.json")
        save_kb(uni, path)
        restored = load_kb(path)
        assert [str(r) for r in restored.rules()] == [str(r) for r in uni.rules()]

    def test_queries_agree_after_restore(self, uni, tmp_path):
        path = str(tmp_path / "uni.json")
        save_kb(uni, path)
        restored = load_kb(path)
        for subject in ("honor(X)", "can_ta(X, databases)", "prior(databases, Y)"):
            assert (
                retrieve(restored, parse_atom(subject)).to_set()
                == retrieve(uni, parse_atom(subject)).to_set()
            )

    def test_constraints_survive(self, tmp_path):
        kb = KnowledgeBase("c")
        kb.declare_edb("p", 1)
        kb.add_constraint(IntegrityConstraint(parse_body("p(X) and q(X)")))
        path = str(tmp_path / "c.json")
        save_kb(kb, path)
        assert len(load_kb(path).constraints()) == 1

    def test_numeric_values_keep_type(self, uni, tmp_path):
        path = str(tmp_path / "uni.json")
        save_kb(uni, path)
        restored = load_kb(path)
        row = next(iter(restored.facts("student")))
        assert isinstance(row[2].value, float)

    def test_attribute_names_survive(self, uni, tmp_path):
        path = str(tmp_path / "uni.json")
        save_kb(uni, path)
        restored = load_kb(path)
        assert restored.schema("student").attributes == ("sname", "major", "gpa")

    def test_format_marker_checked(self):
        with pytest.raises(CatalogError):
            kb_from_dict({"format": "something-else"})

    def test_dump_is_plain_json(self, uni, tmp_path):
        path = tmp_path / "uni.json"
        save_kb(uni, str(path))
        data = json.loads(path.read_text())
        assert data["format"] == "repro-kb/1"
        assert "student" in data["edb"]

    def test_dict_round_trip_without_files(self, uni):
        restored = kb_from_dict(kb_to_dict(uni))
        assert restored.rule_count() == uni.rule_count()


class TestCsv:
    def test_export_then_import(self, uni, tmp_path):
        path = str(tmp_path / "students.csv")
        assert export_csv(uni, "student", path) == 8
        fresh = KnowledgeBase("fresh")
        assert import_csv(fresh, "student", path) == 8
        assert fresh.schema("student").attributes == ("sname", "major", "gpa")

    def test_import_coerces_numbers(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("name,score\nann,3.9\nbob,4\n")
        kb = KnowledgeBase()
        import_csv(kb, "score", str(path))
        values = {row[1].value for row in kb.facts("score")}
        assert values == {3.9, 4}

    def test_import_keeps_non_finite_words_as_text(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("k,v\n1,inf\n2,nan\n3,infinity\n4,-inf\n")
        kb = KnowledgeBase()
        import_csv(kb, "cell", str(path))
        values = {row[1].value for row in kb.facts("cell")}
        assert values == {"inf", "nan", "infinity", "-inf"}

    def test_non_finite_floats_come_back_from_csv_as_text(self, tmp_path):
        kb = KnowledgeBase()
        kb.declare_edb("cell", 2)
        kb.add_fact("cell", 1, float("inf"))
        path = str(tmp_path / "cell.csv")
        export_csv(kb, "cell", path)
        back = KnowledgeBase()
        import_csv(back, "cell", path)
        assert [row[1].value for row in back.facts("cell")] == ["inf"]

    def test_import_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\nc,d\n")
        kb = KnowledgeBase()
        assert import_csv(kb, "pairs", str(path), header=False) == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nc\n")
        kb = KnowledgeBase()
        with pytest.raises(CatalogError):
            import_csv(kb, "pairs", str(path), header=False)

    def test_import_into_declared_relation_checks_arity(self, uni, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\nann\n")
        from repro.errors import ArityError

        with pytest.raises(ArityError):
            import_csv(uni, "student", str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        kb = KnowledgeBase()
        assert import_csv(kb, "p", str(path)) == 0
