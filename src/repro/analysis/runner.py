"""File discovery, rule execution, and report formatting."""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from .base import (
    Finding,
    ModuleContext,
    ProjectRule,
    Report,
    all_rules,
)

__all__ = ["analyze_paths", "discover_files", "format_report"]


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Sorted on purpose: detlint's own output order must not depend on
    filesystem enumeration (DET004 applies to us too).
    """
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
        else:
            raise FileNotFoundError(f"not a .py file or directory: {path}")
    return sorted(out)


def _build_contexts(files: Iterable[Path]) -> tuple[list[ModuleContext], list[Finding]]:
    contexts: list[ModuleContext] = []
    errors: list[Finding] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        try:
            contexts.append(ModuleContext(str(path), text))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule="DET000",
                    message=f"syntax error: {exc.msg}",
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                )
            )
    return contexts, errors


def _run_rules(
    contexts: list[ModuleContext],
    select: Sequence[str] | None = None,
) -> Report:
    rules = all_rules()
    if select:
        unknown = sorted(set(select) - set(rules))
        if unknown:
            raise KeyError(
                f"unknown rule codes {unknown}; available: {sorted(rules)}"
            )
        rules = {code: rules[code] for code in sorted(select)}
    modules = {ctx.module: ctx for ctx in contexts}
    collected: list[Finding] = []
    for code in sorted(rules):
        rule = rules[code]()
        if isinstance(rule, ProjectRule):
            collected.extend(rule.check_project(modules))
        else:
            for ctx in contexts:
                collected.extend(rule.check(ctx))
    collected.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report = Report(
        findings=[f for f in collected if not f.suppressed],
        suppressed=[f for f in collected if f.suppressed],
        files_checked=len(contexts),
        rules_run=tuple(sorted(rules)),
    )
    return report


def analyze_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
) -> Report:
    """Lint files/directories; the library entry point behind the CLI."""
    contexts, errors = _build_contexts(discover_files(paths))
    report = _run_rules(contexts, select=select)
    report.findings = sorted(
        errors + report.findings,
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )
    return report


def format_report(report: Report, fmt: str = "human") -> str:
    """Render a report as ``human`` text or a ``json`` document."""
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True)
    lines = [f.format() for f in report.findings]
    counts = report.counts()
    summary = (
        ", ".join(f"{code}: {n}" for code, n in counts.items())
        if counts
        else "clean"
    )
    lines.append(
        f"detlint: {len(report.findings)} finding(s) in "
        f"{report.files_checked} file(s) "
        f"({len(report.suppressed)} suppressed) — {summary}"
    )
    return "\n".join(lines)
