"""DET003 — purity of functions run by the cycle executor.

Stage 2 must be a pure function of its ``OptimizationTask``: a cycle
re-run from its recorded task — a replay, or the quality ledger's
re-runs at another budget — must reproduce the run's result, so a stage
that reads or mutates module globals computes against state the replay
does not have.  The rule discovers worker functions two ways — any function
passed to an ``...executor.run(fn, ...)`` / ``.submit(fn, ...)`` /
``.map(fn, ...)`` call, plus the declared
:data:`repro.analysis.contracts.WORKER_FUNCTIONS` — and requires each to
be a module-level ``def`` (picklable by name, closure-free by
construction) that never declares ``global``/``nonlocal`` and never
reads a mutable module-level binding.  Imports, module-level
defs/classes, and ``UPPER_CASE`` constants are safe reads.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .. import contracts
from ..base import Finding, ModuleContext, ProjectRule, register
from .common import ImportMap

_SUBMIT_ATTRS = frozenset({"run", "submit", "map"})


def _receiver_is_executor(func: ast.Attribute) -> bool:
    try:
        text = ast.unparse(func.value)
    except Exception:  # pragma: no cover - unparse is total on 3.10+
        return False
    return "executor" in text.lower()


def _module_bindings(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Classify module-level names into (safe, mutable) for worker reads.

    Safe: imports, defs/classes, dunders, and ``UPPER_CASE`` constants.
    Everything else assigned at module level is treated as mutable state
    a worker must not depend on.
    """
    safe: set[str] = set()
    mutable: set[str] = set()

    def classify(name: str) -> None:
        if name.startswith("__") or name.isupper():
            safe.add(name)
        else:
            mutable.add(name)

    def handle(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    safe.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                safe.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            classify(leaf.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                classify(stmt.target.id)
            elif isinstance(stmt, ast.If):
                handle(stmt.body)
                handle(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                handle(stmt.body)
                handle(stmt.orelse)
                handle(stmt.finalbody)
                for h in stmt.handlers:
                    handle(h.body)
    handle(tree.body)
    return safe, mutable - safe


def _local_names(fn: ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    args = fn.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


@register
class WorkerPurityRule(ProjectRule):
    code = "DET003"
    name = "worker-purity"
    summary = (
        "functions run by the cycle executor must be module-level, "
        "closure-free, and must not read/write module globals"
    )

    def check_project(
        self, modules: dict[str, ModuleContext]
    ) -> Iterator[Finding]:
        # (defining_module, function_name) -> context the reference was
        # seen in (for resolution failures we report at the call site).
        targets: dict[tuple[str, str], tuple[ModuleContext, ast.AST]] = {}
        inline: list[Finding] = []
        for name in sorted(modules):
            ctx = modules[name]
            self._discover(ctx, modules, targets, inline)
        for mod, fname in sorted(contracts.WORKER_FUNCTIONS):
            if mod in modules:
                node = modules[mod].tree
                targets.setdefault((mod, fname), (modules[mod], node))
        yield from inline
        for (mod, fname), (refctx, refnode) in sorted(targets.items()):
            defctx = modules.get(mod)
            if defctx is None:
                continue
            yield from self._check_worker(defctx, fname, refctx, refnode)

    # -- discovery -----------------------------------------------------
    def _discover(
        self,
        ctx: ModuleContext,
        modules: dict[str, ModuleContext],
        targets: dict,
        inline: list[Finding],
    ) -> None:
        imap = ImportMap(ctx.tree, ctx.module)
        toplevel = {
            stmt.name
            for stmt in ctx.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_ATTRS
                and node.args
                and _receiver_is_executor(node.func)
            ):
                continue
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                inline.append(
                    ctx.finding(
                        self.code,
                        worker,
                        "lambda shipped to a cycle executor: workers must "
                        "be module-level functions (picklable by name, "
                        "closure-free)",
                    )
                )
            elif isinstance(worker, ast.Attribute):
                inline.append(
                    ctx.finding(
                        self.code,
                        worker,
                        f"`{ast.unparse(worker)}` shipped to a "
                        "cycle executor: workers must be module-level "
                        "functions, not bound methods or attributes",
                    )
                )
            elif isinstance(worker, ast.Name):
                if worker.id in toplevel:
                    targets.setdefault(
                        (ctx.module, worker.id), (ctx, worker)
                    )
                elif worker.id in imap.bindings:
                    bound = imap.bindings[worker.id]
                    if "." in bound:
                        mod, fname = bound.rsplit(".", 1)
                        targets.setdefault((mod, fname), (ctx, worker))
                elif any(
                    isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub.name == worker.id
                    for sub in ast.walk(ctx.tree)
                ):
                    inline.append(
                        ctx.finding(
                            self.code,
                            worker,
                            f"`{worker.id}` shipped to a cycle executor "
                            "resolves to a nested def: workers must be "
                            "module-level (nested defs capture closures "
                            "and cannot pickle by name)",
                        )
                    )
                # else: a parameter or unresolvable name (e.g. the
                # executor plumbing itself forwarding `fn`) — out of
                # static reach, skip.

    # -- purity --------------------------------------------------------
    def _check_worker(
        self,
        defctx: ModuleContext,
        fname: str,
        refctx: ModuleContext,
        refnode: ast.AST,
    ) -> Iterator[Finding]:
        fn = next(
            (
                stmt
                for stmt in defctx.tree.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == fname
            ),
            None,
        )
        if fn is None:
            yield refctx.finding(
                self.code,
                refnode,
                f"worker `{fname}` is not a module-level function in "
                f"`{defctx.module}` (nested defs / lambdas cannot be "
                "pickled by name and may capture closures)",
            )
            return
        _safe, mutable = _module_bindings(defctx.tree)
        local = _local_names(fn)
        seen: set[tuple[str, int]] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                yield defctx.finding(
                    self.code,
                    node,
                    f"worker `{fname}` declares `global "
                    f"{', '.join(node.names)}`: a replay from the task "
                    "would not see module state",
                )
            elif isinstance(node, ast.Nonlocal):
                yield defctx.finding(
                    self.code,
                    node,
                    f"worker `{fname}` declares `nonlocal`: workers "
                    "must be closure-free",
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable
                and node.id not in local
                and (node.id, node.lineno) not in seen
            ):
                seen.add((node.id, node.lineno))
                yield defctx.finding(
                    self.code,
                    node,
                    f"worker `{fname}` reads module global `{node.id}`: "
                    "a replay from the recorded task does not see it, "
                    "so results depend on what ran before — pass the "
                    "value through the task instead",
                )
