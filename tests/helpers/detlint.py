"""Lint in-memory source strings with detlint's rules.

``repro.analysis.analyze_paths`` reads modules from disk; the rule tests
feed fixture sources instead, so they build the module contexts here and
run the same rule pass over them.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.base import ModuleContext, Report
from repro.analysis.runner import _run_rules


def analyze_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    select: Sequence[str] | None = None,
    extra_modules: dict[str, str] | None = None,
) -> Report:
    """Lint one source string.

    ``module`` overrides the dotted module name (so fixtures can claim
    to live inside e.g. ``repro.cloud``); ``extra_modules`` maps dotted
    names to additional sources for cross-module rules (DET003/DET005).
    """
    contexts = [ModuleContext(path, source, module=module)]
    for name, text in (extra_modules or {}).items():
        contexts.append(
            ModuleContext(name.replace(".", "/") + ".py", text, module=name)
        )
    return _run_rules(contexts, select=select)
