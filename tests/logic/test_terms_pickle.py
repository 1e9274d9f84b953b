"""A pickled term must hash like a fresh one in the process that loads it.

``Constant`` and ``Variable`` carry their hash in a slot.  String hashes
change with ``PYTHONHASHSEED``, so a term dumped under one seed and loaded
under another has to rebuild its hash — otherwise ``k == Constant("abc")``
holds while ``Constant("abc") in {k: 1}`` does not.
"""

from tests.hashseed import run_under_seed

DUMP = """
import pickle, sys
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
terms = [
    Constant("abc"), Constant(3), Variable("X"), Variable("X#3", fresh=True),
    Atom("p", ["X", "abc"]),
]
assert len({term: 1 for term in terms}) == 5  # every hash is computed, and cached
sys.stdout.buffer.write(pickle.dumps(terms))
"""

LOAD = """
import pickle, sys
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = [
    Constant("abc"), Constant(3), Variable("X"), Variable("X#3", fresh=True),
    Atom("p", ["X", "abc"]),
]
assert loaded == fresh
assert loaded[3].fresh and loaded[3] != Variable("X#3")
for old, new in zip(loaded, fresh):
    assert hash(old) == hash(new), old
    assert new in {old: 1} and old in {new: 1}, old
print("ok")
"""


def test_terms_survive_a_hash_seed_change():
    assert run_under_seed(LOAD, 2, run_under_seed(DUMP, 1)).strip() == b"ok"


def test_terms_round_trip_in_process():
    import copy
    import pickle

    from repro.logic.terms import Constant, Variable

    terms = (
        Constant("abc"), Constant(2.5), Constant(True),
        Variable("X#3"), Variable("X#3", fresh=True),
    )
    for term in terms:
        for clone in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
            assert clone == term and hash(clone) == hash(term)
            assert type(clone) is type(term)
            if isinstance(term, Variable):
                assert clone.fresh is term.fresh
