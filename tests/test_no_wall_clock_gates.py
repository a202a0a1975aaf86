"""Tier-1 asserts behaviour; the ledger (``bench/``) owns the wall clock.

The Tier-1 command collects ``tests/`` and ``benchmarks/``
(``pyproject.toml``'s ``testpaths``), and it is every session's merge
gate — on a host that changes speed by 25–35% for seconds at a time.  An
``assert wall < 60.0`` there fails on host weather, not on the code
(``test_perf_sharded_100k_jobs`` read 94.9 s beside a ``bench/run.py``
child).  So in anything Tier-1 collects, no comparison puts a
``perf_counter`` difference — or a name bound to one, directly or
through a local function's return tuple — against a numeric literal.

Same-process ratio gates between two measured arms (``before / after >=
1.25``) are not touched: both arms see the same weather.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
COLLECTED = sorted(
    path for d in ("tests", "benchmarks") for path in (ROOT / d).rglob("*.py")
)


def _reads_the_clock(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Call)
        and getattr(n.func, "attr", getattr(n.func, "id", None))
        == "perf_counter"
        for n in ast.walk(node)
    )


def _is_number(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


class _Scope:
    """One function body: which of its names hold seconds of wall clock."""

    def __init__(self, func: ast.AST, returns: dict[str, list[bool]]) -> None:
        self.func, self.returns = func, returns
        self.wall_names: set[str] = set()
        while self._bind():
            pass

    def is_wall(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.wall_names
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Sub) and (
                _reads_the_clock(node.left) or _reads_the_clock(node.right)
            ):
                return True
            left, right = self.is_wall(node.left), self.is_wall(node.right)
            if left and right and isinstance(node.op, ast.Div):
                return False  # a ratio of two measured arms
            return left or right
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("min", "max", "round", "float", "sum"):
                return any(self.is_wall(arg) for arg in node.args)
        return False

    def _bind(self) -> bool:
        """One pass over the assignments; true when a name was added."""
        before = len(self.wall_names)
        for node in ast.walk(self.func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name) and self.is_wall(value):
                self.wall_names.add(target.id)
            elif isinstance(target, ast.Tuple):
                if isinstance(value, ast.Tuple):
                    flags = [self.is_wall(v) for v in value.elts]
                elif isinstance(value, ast.Call) and isinstance(
                    value.func, ast.Name
                ):
                    flags = self.returns.get(value.func.id, [])
                else:
                    flags = []
                for element, flag in zip(target.elts, flags):
                    if flag and isinstance(element, ast.Name):
                        self.wall_names.add(element.id)
        return len(self.wall_names) > before


def _wall_clock_gates(path: Path) -> list[str]:
    """``file:line`` of every comparison of wall-clock seconds with a
    numeric literal in ``path``."""
    tree = ast.parse(path.read_text())
    functions = [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # Which positions of each local function's returned tuple are wall
    # clock (``return metrics, time.perf_counter() - t0``).
    returns: dict[str, list[bool]] = {}
    for func in functions:
        scope = _Scope(func, {})
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
                returns[func.name] = [scope.is_wall(v) for v in node.value.elts]
    found = []
    for func in functions:
        scope = _Scope(func, returns)
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(scope.is_wall(o) for o in operands) and any(
                _is_number(o) for o in operands
            ):
                found.append(f"{path.name}:{node.lineno}")
    return sorted(set(found))


@pytest.mark.parametrize(
    "path", COLLECTED, ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_absolute_wall_clock_gate(path):
    assert _wall_clock_gates(path) == []


def test_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import time\n"
        "def _run(sim):\n"
        "    t0 = time.perf_counter()\n"
        "    metrics = sim.run()\n"
        "    return metrics, time.perf_counter() - t0\n"
        "def test_direct():\n"
        "    t0 = time.perf_counter()\n"
        "    assert time.perf_counter() - t0 < 5\n"
        "def test_bound_name():\n"
        "    t0 = time.perf_counter()\n"
        "    wall = time.perf_counter() - t0\n"
        "    per_job = wall / 100\n"
        "    assert wall < 60.0\n"
        "    assert 0.5 > per_job\n"
        "def test_through_a_return_tuple(sim):\n"
        "    metrics, wall = _run(sim)\n"
        "    assert metrics.jobs > 90\n"
        "    assert wall < 120.0\n"
        "def test_ratio_of_two_arms_is_fine(a, b):\n"
        "    _, before = _run(a)\n"
        "    _, after = _run(b)\n"
        "    assert before / after >= 1.25\n"
        "    assert after < before\n"
    )
    assert _wall_clock_gates(sample) == [
        "sample.py:13", "sample.py:14", "sample.py:18", "sample.py:8",
    ]
