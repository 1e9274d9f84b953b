"""Deductive engine: data-query (retrieve) evaluation.

One evaluator behind one public API (:func:`retrieve`,
:func:`evaluate_conjunction`): :mod:`repro.engine.plan` compiles a rule
body or query conjunction to a logical plan, :mod:`repro.engine.kernels`
lowers it to an integer kernel over interned symbol ids, and the one
stratum driver in :mod:`repro.engine.seminaive` runs the fixpoint.
A goal that binds every recursive predicate it reads, over views that are
not fresh, is routed by :mod:`repro.engine.evaluate` to the same evaluator
run over the magic-sets rewriting for its shape (:mod:`repro.engine.magic`);
both hand ``retrieve`` an id batch and the answer is externalized once.  The
tuple-at-a-time joins of :mod:`repro.engine.joins` (``join_conjunction``,
``Resolver``, ``bind_row``) answer no query: they serve ``explain`` proof
trees (:mod:`repro.engine.provenance`), the view cache's one-pass repair
of non-recursive views (:mod:`repro.engine.incremental`, which only
:mod:`repro.engine.viewcache` imports), and — as
:mod:`repro.engine.reference`, which nothing here imports — the oracle
the test suites compare the production path against."""

from repro.engine.evaluate import (
    RetrieveResult,
    derivable,
    evaluate_conjunction,
    retrieve,
)
from repro.engine.guard import (
    MODES,
    CancellationToken,
    Diagnostics,
    ResourceGuard,
)
from repro.engine.plan import (
    ConjunctionPlan,
    RulePlan,
    compile_conjunction,
    compile_rule,
)
from repro.engine.kernels import (
    ConjunctionKernel,
    IntTable,
    RuleKernel,
    compile_conjunction_kernel,
    compile_rule_kernel,
)
from repro.engine.magic import MagicProgram, magic_conjunction, magic_rewrite
from repro.engine.provenance import (
    Explanation,
    ProofNode,
    explain,
    explain_all,
    explain_statement,
)
from repro.engine.safety import check_rule_safety, safety_problems
from repro.engine.seminaive import SemiNaiveEngine
from repro.engine.viewcache import CacheStats, ViewCache

__all__ = [
    "MODES",
    "CancellationToken",
    "Diagnostics",
    "ResourceGuard",
    "ConjunctionPlan",
    "RulePlan",
    "compile_conjunction",
    "compile_rule",
    "ConjunctionKernel",
    "IntTable",
    "RuleKernel",
    "compile_conjunction_kernel",
    "compile_rule_kernel",
    "RetrieveResult",
    "derivable",
    "evaluate_conjunction",
    "retrieve",
    "MagicProgram",
    "magic_conjunction",
    "magic_rewrite",
    "Explanation",
    "ProofNode",
    "explain",
    "explain_all",
    "explain_statement",
    "check_rule_safety",
    "safety_problems",
    "SemiNaiveEngine",
    "CacheStats",
    "ViewCache",
]
