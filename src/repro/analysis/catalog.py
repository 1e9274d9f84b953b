"""The diagnostic catalogue: one entry per stable ``KBxxx`` code.

``dbk lint --explain KB401`` renders these entries on the terminal, so
each one carries what the full reference (``docs/LINT.md``) says in
miniature: the owning pass, the severity, a one-paragraph explanation,
and a minimal triggering program.  The catalogue is the single source of
truth the CLI reads; a registered pass code without an entry here is a
bug (a test asserts the two sets match).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CatalogEntry", "all_entries", "catalog_entry"]


@dataclass(frozen=True)
class CatalogEntry:
    """Everything ``--explain`` prints about one diagnostic code."""

    code: str
    title: str
    severity: str
    pass_name: str  # "(parsing)" for KB001, a registry pass name otherwise
    summary: str
    example: str = ""

    def format(self) -> str:
        lines = [
            f"{self.code} — {self.title} ({self.severity})",
            f"pass: {self.pass_name}",
            "",
            self.summary,
        ]
        if self.example:
            lines.append("")
            lines.append("example:")
            lines.extend(f"    {line}" for line in self.example.splitlines())
        return "\n".join(lines)


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "KB001",
        "syntax error",
        "error",
        "(parsing)",
        "The file does not parse; the lexer or parser failure is turned into "
        "a located diagnostic instead of an exception so CI always gets "
        "structured output.",
        "p(X <- q(X).",
    ),
    CatalogEntry(
        "KB101",
        "unbound head variable",
        "error",
        "safety",
        "Every head variable must be bound by a positive body atom or pinned "
        "through a chain of = conjuncts anchored at a constant.  Only = "
        "binds: != and the order comparisons never ground a variable.",
        "p(X, W) <- q(X).",
    ),
    CatalogEntry(
        "KB102",
        "unbound comparison variable",
        "error",
        "safety",
        "An order comparison over a variable nothing binds denotes an "
        "infinite relation.",
        "p(X) <- q(X) and (Y > 3).",
    ),
    CatalogEntry(
        "KB103",
        "unbound variable in a negated atom",
        "error",
        "safety",
        "Negation-as-failure needs the negated atom ground at evaluation "
        "time.",
        "p(X) <- q(X) and not r(X, Y).",
    ),
    CatalogEntry(
        "KB201",
        "recursive rule not strongly linear",
        "error",
        "recursion",
        "The paper's standing assumption: the head predicate of a recursive "
        "rule occurs exactly once in its body.  Rewrite with the linear "
        "closure form.",
        "path(X, Y) <- path(X, Z) and path(Z, Y).",
    ),
    CatalogEntry(
        "KB202",
        "recursive rule not typed w.r.t. its head",
        "error",
        "recursion",
        "Across all occurrences of the head predicate in the rule, every "
        "variable must keep a single argument position; otherwise the "
        "describe transformation is unsound.",
        "grows(X, Y) <- grows(Y, X) and edge(X, Y).",
    ),
    CatalogEntry(
        "KB203",
        "mutual recursion without a direct self-atom",
        "info",
        "recursion",
        "The data engines evaluate mutually recursive predicates; only the "
        "describe transformation is restricted to direct recursion.",
        "even(X) <- edge(X, Y) and odd(Y).\nodd(X)  <- edge(X, Y) and even(Y).",
    ),
    CatalogEntry(
        "KB204",
        "permutation rule",
        "info",
        "recursion",
        "A pure argument permutation such as link(X, Y) <- link(Y, X) is "
        "tolerated: the engines bound its applications by the permutation "
        "order instead of transforming it.",
        "link(X, Y) <- link(Y, X).",
    ),
    CatalogEntry(
        "KB301",
        "recursion through negation",
        "error",
        "stratification",
        "The program has no stratified model; well-founded semantics would "
        "be required, which the stratified engines do not provide.",
        "p(X) <- q(X) and not p(X).",
    ),
    CatalogEntry(
        "KB401",
        "unsatisfiable rule comparisons",
        "warning",
        "comparisons",
        "The conjunction of a rule's comparison atoms has no solution over "
        "a dense ordered domain; the rule loads but can never fire.",
        "p(X) <- q(X, Y) and (Y > 3) and (Y < 2).",
    ),
    CatalogEntry(
        "KB402",
        "unsatisfiable constraint comparisons",
        "warning",
        "comparisons",
        "The comparison atoms of an integrity constraint are jointly "
        "unsatisfiable, so the constraint can never trip.",
        "not (q(X, Y) and (Y > 3) and (Y <= 3)).",
    ),
    CatalogEntry(
        "KB501",
        "reference to an undefined predicate",
        "warning",
        "deadcode",
        "A body or constraint atom references a predicate with no facts, no "
        "rules and no declaration — usually a typo.",
        "enroll(ann, db).\nhonor(X) <- enrol(X, C).",
    ),
    CatalogEntry(
        "KB502",
        "unreachable IDB predicate",
        "warning",
        "deadcode",
        "No chain of rules connects the predicate to any EDB facts, so it "
        "can never derive anything (e.g. a recursion without a base case).",
        "p(X, Y) <- p(X, Z) and p(Z, Y).",
    ),
    CatalogEntry(
        "KB503",
        "defined but never referenced",
        "info",
        "deadcode",
        "Nothing references the predicate.  Query entry points look exactly "
        "like this, hence informational.",
        "e(a).\ntop(X) <- e(X).",
    ),
    CatalogEntry(
        "KB504",
        "duplicate rule",
        "warning",
        "deadcode",
        "A rule stated twice — verbatim, or as an alphabetic variant (the "
        "rules theta-subsume each other).",
        "p(X) <- e(X).\np(Y) <- e(Y).",
    ),
    CatalogEntry(
        "KB505",
        "subsumed rule",
        "warning",
        "deadcode",
        "A sibling rule with the same head is strictly more general: every "
        "answer of this rule is already produced.",
        "p(X) <- e(X, Y).\np(X) <- e(X, Y) and (Y > 3).",
    ),
    CatalogEntry(
        "KB601",
        "conflicting definitions",
        "error",
        "consistency",
        "One predicate is defined (facts, rule heads, declarations) at two "
        "different arities; the knowledge base rejects such a program at "
        "load.",
        "p(a).\np(a, b).",
    ),
    CatalogEntry(
        "KB602",
        "rules shadow stored facts",
        "error",
        "consistency",
        "EDB and IDB are disjoint: a predicate may not have both stored "
        "facts and defining rules.",
        "f(a).\nf(X) <- e(X).",
    ),
    CatalogEntry(
        "KB603",
        "body reference at the wrong arity",
        "warning",
        "consistency",
        "The atom can never match and silently evaluates to the empty "
        "relation.  A warning, not an error: the engines do evaluate such "
        "programs.",
        "e(a).\np(X) <- e(X, Y).",
    ),
    CatalogEntry(
        "KB604",
        "reserved predicate name",
        "warning",
        "consistency",
        "The predicate name is a language keyword, only constructible "
        "through the Python API; such a knowledge base cannot round-trip "
        "through text.",
    ),
    CatalogEntry(
        "KB701",
        "order comparison over incomparable domains",
        "warning",
        "absint",
        "Type inference proves the two sides of an order comparison can "
        "only hold values of incomparable kinds (no side shares an order "
        "class — numbers, strings, booleans — with the other), so the "
        "comparison raises or "
        "eliminates every row at evaluation time.",
        "q(1). r(a).\np(X, Y) <- q(X) and r(Y) and (X < Y).",
    ),
    CatalogEntry(
        "KB702",
        "join over provably disjoint domains",
        "warning",
        "absint",
        "The inferred column domains of two occurrences of a shared "
        "variable (or a constant argument and its column) have an empty "
        "intersection, so the join can never produce a row.",
        "q(1). r(a).\np(X) <- q(X) and r(X).",
    ),
    CatalogEntry(
        "KB703",
        "recursion grows through an unconstrained atom",
        "warning",
        "absint",
        "A recursive rule joins the recursive atom with a body atom sharing "
        "no variables with it (a cross product), so each iteration can "
        "multiply the derived relation instead of extending it.",
        "e(1). r(X) <- e(X).\nr(X) <- r(Y) and e(X).",
    ),
    CatalogEntry(
        "KB704",
        "rule unreachable by any call pattern",
        "warning",
        "absint",
        "The rule's constant head arguments are incompatible with every "
        "reference to its predicate (constants differ, or the inferred "
        "argument domain excludes them), so no call can ever select this "
        "rule.  Ad-hoc queries are not visible to the analysis; ignore the "
        "finding if the predicate is queried directly.",
        "e(1). level(admin, X) <- e(X).\ntop(X) <- level(guest, X).",
    ),
)

_BY_CODE = {entry.code: entry for entry in _ENTRIES}


def all_entries() -> tuple[CatalogEntry, ...]:
    """Every catalogue entry, in code order."""
    return _ENTRIES


def catalog_entry(code: str) -> CatalogEntry | None:
    """Look up one entry by code (case-insensitive); ``None`` if unknown."""
    return _BY_CODE.get(code.strip().upper())
