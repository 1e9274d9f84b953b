"""A full lifecycle: import, define, query, persist, update, audit.

One scenario driving most subsystems in sequence, the way a downstream
user would: CSV data in, knowledge defined in the language, data and
knowledge queries, a JSON snapshot, updates under a warm view cache, a
final audit.
"""

from repro import Session, audit, load_kb, save_kb
from repro.catalog.persist import import_csv
from repro.engine import explain, retrieve
from repro.lang.parser import parse_atom

CSV = """name,team,score
ada,infra,91
grace,infra,84
alan,apps,77
edsger,apps,95
barbara,research,88
"""

RULES = """
expert(X) <- review(X, T, S) and (S >= 85).
core_team(X) <- review(X, infra, S).
anchor(X) <- expert(X) and core_team(X).
"""


def test_full_lifecycle(tmp_path):
    # 1. Import tabular data.
    csv_path = tmp_path / "reviews.csv"
    csv_path.write_text(CSV)
    session = Session()
    assert import_csv(session.kb, "review", str(csv_path)) == 5

    # 2. Define knowledge in the language.
    assert session.load(RULES) == 3

    # 3. Data and knowledge queries agree with expectations.
    experts = sorted(session.query("retrieve expert(X)").values())
    assert experts == ["ada", "barbara", "edsger"]
    description = session.query("describe anchor(X)")
    assert "expert" in str(description)
    necessity = session.query("describe anchor(X) where not expert(X)")
    assert necessity.necessary

    # 4. Proofs for an answer.
    proof = explain(session.kb, parse_atom("anchor(ada)"))
    assert proof is not None and proof.depth() == 3

    # 5. Snapshot and restore.
    snapshot = tmp_path / "kb.json"
    save_kb(session.kb, str(snapshot))
    restored = load_kb(str(snapshot))
    assert retrieve(restored, parse_atom("anchor(X)")).values() == ["ada"]

    # 6. Updates reach the warm view of the restored knowledge base.
    serving = Session(restored)
    assert serving.query("retrieve anchor(X)").values() == ["ada"]
    restored.add_fact("review", "grace", "infra", 90)
    assert sorted(serving.query("retrieve anchor(X)").values()) == ["ada", "grace"]
    restored.relation("review").delete(("ada", "infra", 91))
    assert serving.query("retrieve anchor(X)").values() == ["grace"]
    assert serving.cache_stats()["incremental_refreshes"] == 2

    # 7. The rule base stays clean.
    report = audit(restored)
    assert report.clean
