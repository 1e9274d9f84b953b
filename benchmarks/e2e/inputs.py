"""Seeded input generators owned by the benchmark.

Everything the program under test receives is produced here as ``.dbk``
program text plus statement texts: nothing is imported from
``repro.datasets``, so a change to the program cannot change its own test
load.  The same seed always yields the same texts and the same op
schedule.  Alongside each program the generators return the plain Python
data (edge lists, student tables) the oracles in :mod:`oracle` evaluate
independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Default ``--seed`` (recorded here because ``BENCHMARK.json`` admits no
#: extra keys; see README.md).
DEFAULT_SEED = 20260926

Edge = tuple[str, str]

TC_RULES = (
    "path(X, Y) <- edge(X, Y).",
    "path(X, Y) <- edge(X, Z) and path(Z, Y).",
)


def rng_for(seed: int, *scope: object) -> random.Random:
    """An independent stream per (seed, scope): schedules never share draws."""
    return random.Random(":".join(str(part) for part in (seed, *scope)))


# -- transitive-closure graphs ------------------------------------------------------


def chain_edges(rng: random.Random, length: int) -> list[Edge]:
    """A path graph over ``length + 1`` nodes whose names are permuted."""
    names = [f"n{i}" for i in rng.sample(range(10 * (length + 1)), length + 1)]
    return [(names[i], names[i + 1]) for i in range(length)]


def clustered_edges(rng: random.Random, components: int, size: int) -> list[Edge]:
    """Disconnected components: a spine plus ``size // 2`` random chords each."""
    edges: dict[Edge, None] = {}
    for component in range(components):
        nodes = [f"c{component}_n{i}" for i in range(size)]
        for i in range(size - 1):
            edges[(nodes[i], nodes[i + 1])] = None
        for _ in range(size // 2):
            src, dst = rng.sample(nodes, 2)
            edges[(src, dst)] = None
    return list(edges)


def graph_program(edges: list[Edge]) -> str:
    lines = [f"edge({src}, {dst})." for src, dst in edges]
    lines.extend(TC_RULES)
    return "\n".join(lines) + "\n"


# -- the paper's university database (section 2.2), as program text -----------------

UNIVERSITY_RULES = (
    "honor(X) <- student(X, Y, Z) and (Z > 3.7).",
    "prior(X, Y) <- prereq(X, Y).",
    "prior(X, Y) <- prereq(X, Z) and prior(Z, Y).",
    "can_ta(X, Y) <- honor(X) and complete(X, Y, Z, U) and (U > 3.3) "
    "and taught(V, Y, Z, W) and teach(V, Y).",
    "can_ta(X, Y) <- honor(X) and complete(X, Y, Z, 4.0).",
)

COURSES = (
    "databases", "datastructures", "programming", "algorithms",
    "calculus", "algebra", "mechanics",
)
MAJORS = ("math", "cs", "physics", "history")
SEMESTERS = ("f88", "s89", "f89")


@dataclass
class University:
    """The university facts as plain tables (the oracle's view of the data)."""

    student: list[tuple[str, str, float]] = field(default_factory=list)
    professor: list[tuple[str, str, int]] = field(default_factory=list)
    course: list[tuple[str, int]] = field(default_factory=list)
    enroll: list[tuple[str, str]] = field(default_factory=list)
    teach: list[tuple[str, str]] = field(default_factory=list)
    prereq: list[tuple[str, str]] = field(default_factory=list)
    taught: list[tuple[str, str, str, float]] = field(default_factory=list)
    complete: list[tuple[str, str, str, float]] = field(default_factory=list)

    def program(self) -> str:
        lines: list[str] = []
        for name in (
            "student", "professor", "course", "enroll",
            "teach", "prereq", "taught", "complete",
        ):
            for row in getattr(self, name):
                lines.append(f"{name}({', '.join(str(v) for v in row)}).")
        lines.extend(UNIVERSITY_RULES)
        return "\n".join(lines) + "\n"


def university(rng: random.Random | None = None, students: int = 0) -> University:
    """The paper's instance, optionally scaled by ``students`` synthetic ones.

    The base facts are the ones EXPERIMENTS.md's answers were recorded on,
    so the golden answers in ``golden/`` hold for any scale (knowledge
    answers depend on rules only).
    """
    uni = University(
        student=[
            ("ann", "math", 3.9), ("bob", "math", 3.8), ("carol", "cs", 3.95),
            ("dave", "cs", 3.2), ("eve", "math", 3.5), ("frank", "physics", 3.75),
            ("grace", "cs", 4.0), ("hugo", "math", 2.9),
        ],
        professor=[
            ("susan", "cs", 5551), ("tom", "cs", 5552),
            ("uma", "math", 5553), ("victor", "physics", 5554),
        ],
        course=[
            ("databases", 4), ("datastructures", 4), ("programming", 3),
            ("algorithms", 4), ("calculus", 4), ("algebra", 3), ("mechanics", 4),
        ],
        enroll=[
            ("ann", "databases"), ("bob", "databases"), ("carol", "databases"),
            ("dave", "databases"), ("eve", "algorithms"), ("frank", "mechanics"),
            ("grace", "algorithms"),
        ],
        teach=[
            ("susan", "databases"), ("tom", "algorithms"),
            ("uma", "calculus"), ("victor", "mechanics"),
        ],
        prereq=[
            ("databases", "datastructures"), ("datastructures", "programming"),
            ("algorithms", "datastructures"), ("calculus", "algebra"),
            ("mechanics", "calculus"),
        ],
        taught=[
            ("susan", "databases", "f88", 4.5), ("susan", "databases", "s89", 4.2),
            ("tom", "databases", "f89", 3.9), ("tom", "algorithms", "f88", 4.0),
            ("uma", "calculus", "f88", 4.8), ("victor", "mechanics", "s89", 3.5),
        ],
        complete=[
            ("ann", "databases", "f88", 3.6), ("ann", "datastructures", "f88", 3.8),
            ("bob", "databases", "f89", 4.0), ("bob", "datastructures", "f88", 3.4),
            ("carol", "databases", "s89", 3.5), ("carol", "algorithms", "f88", 4.0),
            ("dave", "databases", "f89", 3.9), ("eve", "calculus", "f88", 4.0),
            ("frank", "calculus", "f88", 4.0), ("grace", "databases", "f89", 3.2),
            ("grace", "datastructures", "f88", 4.0),
        ],
    )
    if students:
        if rng is None:
            raise ValueError("scaling the university needs a seeded rng")
        for index in range(students):
            sname = f"s{index}"
            uni.student.append(
                (sname, rng.choice(MAJORS), round(rng.uniform(2.0, 4.0), 2))
            )
            uni.enroll.append((sname, rng.choice(COURSES)))
            done: dict[tuple[str, str], float] = {}
            for _ in range(rng.randrange(1, 4)):
                key = (rng.choice(COURSES), rng.choice(SEMESTERS))
                done[key] = round(rng.uniform(2.0, 4.0), 1)
            uni.complete.extend(
                (sname, title, sem, grade) for (title, sem), grade in done.items()
            )
    return uni


# -- the enterprise database, as program text -----------------------------------------

ENTERPRISE_PROGRAM = """\
employee(alice, engineering, 140000, 8).
employee(bruno, engineering, 95000, 6).
employee(chen, engineering, 120000, 3).
employee(dora, sales, 105000, 10).
employee(emil, sales, 70000, 2).
employee(fatima, research, 130000, 7).
employee(george, research, 88000, 5).
department(engineering, product).
department(sales, field).
department(research, product).
manages(alice, bruno).
manages(alice, chen).
manages(dora, emil).
manages(fatima, george).
manages(alice, fatima).
project(atlas, engineering, 750000).
project(borealis, engineering, 300000).
project(comet, research, 900000).
project(dynamo, sales, 150000).
assigned(alice, atlas, 30).
assigned(bruno, atlas, 40).
assigned(chen, borealis, 25).
assigned(dora, dynamo, 35).
assigned(fatima, comet, 28).
assigned(george, comet, 15).
review(alice, 1989, 4.8).
review(bruno, 1989, 4.6).
review(chen, 1989, 4.9).
review(dora, 1989, 4.2).
review(fatima, 1989, 4.7).
review(george, 1989, 3.9).
senior(X) <- employee(X, D, S, Y) and (Y >= 5).
well_paid(X) <- employee(X, D, S, Y) and (S > 100000).
high_performer(X) <- review(X, Y, S) and (S >= 4.5).
promotable(X) <- senior(X) and high_performer(X).
lead_eligible(X, P) <- promotable(X) and assigned(X, P, H) and (H >= 20).
chain(X, Y) <- manages(X, Y).
chain(X, Y) <- manages(X, Z) and chain(Z, Y).
bonus_eligible(X) <- lead_eligible(X, P) and project(P, D, B) and (B > 500000).
"""

#: The paper's Example 8 program (Algorithm 1 hangs on it, Algorithm 2 ends).
EXAMPLE8_PROGRAM = """\
r(a, b).
s(b, c).
p(X, Y) <- q(X, Z) and r(Z, Y).
q(X, Y) <- q(X, Z) and s(Z, Y).
q(X, Y) <- r(X, Y).
"""


# -- rule-shaped knowledge bases for describe scaling -------------------------------


def rule_chain_program(depth: int, facts_per_level: int = 4) -> str:
    """``c0 <- c1 and e0``; ...; ``c<depth-1> <- base and e<depth-1>``."""
    lines = [f"base(v{i})." for i in range(facts_per_level)]
    for level in range(depth):
        lines.extend(f"e{level}(v{i}, t{level})." for i in range(facts_per_level))
    for level in range(depth):
        inner = f"c{level + 1}" if level + 1 < depth else "base"
        lines.append(f"c{level}(X) <- {inner}(X) and e{level}(X, Y).")
    return "\n".join(lines) + "\n"


def rule_tree_program(fanout: int, depth: int) -> str:
    """A complete concept tree; the root's derivations have fanout**depth leaves."""
    lines = [f"leaf{leaf}(v0)." for leaf in range(fanout ** depth)]
    for level in range(depth):
        for index in range(fanout ** level):
            children = []
            for child in range(fanout):
                child_index = index * fanout + child
                name = "leaf" if level + 1 == depth else f"t_{level + 1}_"
                children.append(f"{name}{child_index}(X)")
            lines.append(f"t_{level}_{index}(X) <- {' and '.join(children)}.")
    return "\n".join(lines) + "\n"


def wide_union_program(breadth: int) -> str:
    """One concept defined by ``breadth`` alternative rules."""
    lines = [f"alt{index}(v0, {index})." for index in range(breadth)]
    lines.extend(
        f"concept(X) <- alt{index}(X, V) and (V >= {index})."
        for index in range(breadth)
    )
    return "\n".join(lines) + "\n"


def chain_hypothesis(size: int) -> str:
    return " and ".join(f"e{index}(X, T{index})" for index in range(size))


# -- knowledge_mix: programs and the statements cycled over them ----------------------

RULE_CHAIN_DEPTHS = (16, 32)
RULE_TREES = ((3, 3), (2, 6))
WIDE_UNION_BREADTH = 32
HYPOTHESIS_SIZES = (3, 6)

#: statement id -> (program key, statement text).  Ids E3-E8 and X1-X5 are
#: EXPERIMENTS.md's; their expected answers live in ``golden/paper.json``.
KNOWLEDGE_STATEMENTS: dict[str, tuple[str, str]] = {
    "E3": (
        "university",
        "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)",
    ),
    "E4": ("university", "describe honor(X)"),
    "E5": (
        "university",
        "describe can_ta(X, Y) where honor(X) and teach(susan, Y)",
    ),
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
    "X5": (
        "university",
        "compare (describe can_ta(X, Y)) with (describe honor(X))",
    ),
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
    **{
        f"chain{depth}": (f"rule_chain{depth}", "describe c0(X) where e0(X, T0)")
        for depth in RULE_CHAIN_DEPTHS
    },
    **{
        f"tree{fanout}x{depth}": (
            f"rule_tree{fanout}x{depth}",
            "describe t_0_0(X) where leaf0(X)",
        )
        for fanout, depth in RULE_TREES
    },
    "wide_union": (
        f"wide_union{WIDE_UNION_BREADTH}",
        "describe concept(X) where alt0(X, V)",
    ),
    **{
        f"hyp{size}": (
            "rule_chain16",
            f"describe c0(X) where {chain_hypothesis(size)}",
        )
        for size in HYPOTHESIS_SIZES
    },
}


def knowledge_programs() -> dict[str, str]:
    """Program key -> ``.dbk`` text for every knowledge_mix knowledge base."""
    programs = {
        "university": university().program(),
        "enterprise": ENTERPRISE_PROGRAM,
        "example8": EXAMPLE8_PROGRAM,
        f"wide_union{WIDE_UNION_BREADTH}": wide_union_program(WIDE_UNION_BREADTH),
    }
    for depth in RULE_CHAIN_DEPTHS:
        programs[f"rule_chain{depth}"] = rule_chain_program(depth)
    for fanout, depth in RULE_TREES:
        programs[f"rule_tree{fanout}x{depth}"] = rule_tree_program(fanout, depth)
    return programs


def knowledge_schedule(rng: random.Random, count: int) -> list[str]:
    """Statement ids: whole cycles over all texts, each cycle shuffled."""
    ids = list(KNOWLEDGE_STATEMENTS)
    schedule: list[str] = []
    while len(schedule) < count:
        cycle = ids[:]
        rng.shuffle(cycle)
        schedule.extend(cycle)
    return schedule[:count]


# -- point_retrieve / serve_* statements over the scaled university -------------------

E1 = "retrieve honor(X) where enroll(X, {course})"
E2 = (
    "retrieve answer(X) where can_ta(X, {course}) and "
    "student(X, {major}, V) and (V > 3.7)"
)
POINT = "retrieve can_ta({student}, {course})"
JOIN = "retrieve took(C, G) where complete({student}, C, S, G) and prereq(C, P)"


def point_schedule(
    rng: random.Random, uni: University, count: int
) -> list[tuple[str, str, dict[str, str]]]:
    """``(shape, statement text, parameters)`` per op: two point lookups, one
    selective join and one each of E1/E2 per group of five, parameters drawn
    per op."""
    shapes = ("point", "join", "point", "e1", "e2")
    names = [row[0] for row in uni.student]
    schedule = []
    for index in range(count):
        shape = shapes[index % len(shapes)]
        params = {
            "student": rng.choice(names),
            "course": rng.choice(COURSES),
            "major": rng.choice(MAJORS),
        }
        template = {"point": POINT, "join": JOIN, "e1": E1, "e2": E2}[shape]
        schedule.append((shape, template.format(**params), params))
    return schedule


#: serve_read's warm mix: the fifth statement is the encode-heavy one.
SERVE_STATEMENTS: tuple[tuple[str, str], ...] = (
    ("point", "retrieve can_ta(bob, databases)"),
    ("honor", "retrieve honor(X)"),
    ("E3", KNOWLEDGE_STATEMENTS["E3"][1]),
    ("E4", KNOWLEDGE_STATEMENTS["E4"][1]),
    ("students", "retrieve student(X, M, G)"),
)


# -- churn_requery graph and schedule ---------------------------------------------------


def regular_cluster_edges(
    rng: random.Random, components: int, size: int
) -> list[Edge]:
    """Components of one fixed shape (a spine plus a forward chord from every
    other node), only their names seeded: every seed maintains the same view
    shape, so seeds differ in op order, not in the work an op means."""
    edges: list[Edge] = []
    for component in rng.sample(range(10 * components), components):
        nodes = [f"c{component}_n{i}" for i in range(size)]
        edges.extend((nodes[i], nodes[i + 1]) for i in range(size - 1))
        edges.extend((nodes[i], nodes[i + 3]) for i in range(0, size - 3, 2))
    return edges


def churn_schedule(
    rng: random.Random, edges: list[Edge], pairs: int
) -> list[tuple[Edge, Edge | None, str]]:
    """``(edge to delete, edge to re-insert, requery source)`` per pair.

    Every write is one transaction that deletes one edge and re-inserts the
    edge the previous write deleted, so the knowledge base stays at its
    steady-state size and every requery repairs the same kind of delta.
    Edge positions are spread evenly over the whole edge list with a seeded
    phase and visited in seeded order (uniform, but every run touches the
    cheap and the expensive positions in the same proportion); the requery
    source is drawn per op so the statement memo misses.
    """
    nodes = sorted({node for edge in edges for node in edge})
    order: list[int] = []
    while len(order) < pairs:
        take = min(pairs - len(order), len(edges))
        phase = rng.random()
        sweep = [int((j + phase) * len(edges) / take) for j in range(take)]
        rng.shuffle(sweep)
        if order and sweep[0] == order[-1]:
            sweep.append(sweep.pop(0))
        order.extend(sweep)
    schedule = []
    previous: Edge | None = None
    for index in order:
        schedule.append((edges[index], previous, rng.choice(nodes)))
        previous = edges[index]
    return schedule
