"""DET005 — the static mirror of the ``deterministic_state()`` contract.

At runtime, ``SimulationMetrics.deterministic_state()`` compares every
field *except* the explicit ``TIMING_FIELDS`` exclusion allowlist, and
raises on allowlist entries that are not real fields.  This rule checks
the same contract without running anything:

* every name in the ``TIMING_FIELDS`` tuple must be a declared
  ``SimulationMetrics`` dataclass field (a stale entry would silently
  exclude nothing at runtime until the first ``deterministic_state``
  call — here it fails at lint time);
* every store of a wall-clock-derived value into a ``SimulationMetrics``
  field (``metrics.x = ... perf_counter() ...``, directly or through a
  tainted local) must target a field *on* the allowlist — otherwise a
  wall-clock measurement would be compared by the bit-identity tests
  and parallel runs could never match serial ones.

``tests/test_parallel_engine.py`` locks the static view to the runtime
one via :func:`parse_metrics_contract`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .. import contracts
from ..base import Finding, ModuleContext, ProjectRule, register
from .common import FunctionStackVisitor, ImportMap, contains_wallclock_call

__all__ = ["MetricsAllowlistRule", "parse_metrics_contract"]


def parse_metrics_contract(
    tree: ast.Module,
    class_name: str = contracts.METRICS_CLASS,
    tuple_name: str = contracts.TIMING_TUPLE_NAME,
) -> tuple[tuple[str, ...], tuple[str, ...], ast.AST | None]:
    """Parse ``(field_names, timing_fields, timing_tuple_node)`` from the
    metrics module's AST.  Fields are the class-body ``AnnAssign``
    targets (dataclass fields); the timing tuple is the plain
    ``TIMING_FIELDS = (...)`` assignment."""
    fields: list[str] = []
    timing: list[str] = []
    tuple_node: ast.AST | None = None
    for stmt in tree.body:
        if not (isinstance(stmt, ast.ClassDef) and stmt.name == class_name):
            continue
        for item in stmt.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                fields.append(item.target.id)
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == tuple_name
                        and isinstance(item.value, (ast.Tuple, ast.List))
                    ):
                        tuple_node = item
                        timing = [
                            elt.value
                            for elt in item.value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        ]
    return tuple(fields), tuple(timing), tuple_node


class _TaintVisitor(FunctionStackVisitor):
    """Finds wall-clock values flowing into metrics-field stores."""

    def __init__(
        self,
        ctx: ModuleContext,
        rule: "MetricsAllowlistRule",
        fields: frozenset[str],
        timing: frozenset[str],
    ) -> None:
        super().__init__()
        self.ctx = ctx
        self.rule = rule
        self.fields = fields
        self.timing = timing
        self.imap = ImportMap(ctx.tree, ctx.module)
        self.taint_stack: list[set[str]] = [set()]
        self.findings: list[Finding] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.taint_stack.append(set())
        super().visit_FunctionDef(node)
        self.taint_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.taint_stack.append(set())
        super().visit_AsyncFunctionDef(node)
        self.taint_stack.pop()

    def _value_tainted(self, value: ast.AST) -> bool:
        if contains_wallclock_call(value, self.imap):
            return True
        tainted = self.taint_stack[-1]
        return any(
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load)
            and sub.id in tainted
            for sub in ast.walk(value)
        )

    def _field_of_target(self, target: ast.AST) -> str | None:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    def _check_store(self, target: ast.AST, value: ast.AST) -> None:
        field = self._field_of_target(target)
        if (
            field in self.fields
            and field not in self.timing
            and self._value_tainted(value)
        ):
            self.findings.append(
                self.ctx.finding(
                    self.rule.code,
                    target,
                    f"wall-clock-derived value stored into "
                    f"SimulationMetrics.{field}, which is not in "
                    "TIMING_FIELDS: it would be compared by "
                    "deterministic_state() and break bit-identity — "
                    "add it to the allowlist or use simulated time",
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        tainted = self._value_tainted(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if tainted:
                    self.taint_stack[-1].add(target.id)
                else:
                    self.taint_stack[-1].discard(target.id)
            else:
                self._check_store(target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            if self._value_tainted(node.value):
                self.taint_stack[-1].add(node.target.id)
        else:
            self._check_store(node.target, node.value)
        self.generic_visit(node)


@register
class MetricsAllowlistRule(ProjectRule):
    code = "DET005"
    name = "metrics-allowlist"
    summary = (
        "TIMING_FIELDS entries must be real SimulationMetrics fields, "
        "and wall-clock values may only land in allowlisted fields"
    )

    def check_project(
        self, modules: dict[str, ModuleContext]
    ) -> Iterator[Finding]:
        metrics_ctx = modules.get(contracts.METRICS_MODULE)
        if metrics_ctx is None:
            return
        fields, timing, tuple_node = parse_metrics_contract(metrics_ctx.tree)
        field_set = frozenset(fields)
        for name in timing:
            if name not in field_set:
                yield metrics_ctx.finding(
                    self.code,
                    tuple_node or metrics_ctx.tree,
                    f"TIMING_FIELDS entry `{name}` is not a "
                    f"{contracts.METRICS_CLASS} field: a stale allowlist "
                    "entry excludes nothing and hides its intent",
                )
        timing_set = frozenset(timing)
        for name in sorted(modules):
            visitor = _TaintVisitor(
                modules[name], self, field_set, timing_set
            )
            visitor.visit(modules[name].tree)
            yield from visitor.findings
