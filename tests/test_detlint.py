"""detlint (``repro.analysis``) — rule true positives, false-positive
guards, suppression handling, the CLI, and the live-tree gate.

Each rule class gets (a) fixture snippets asserting the violations it
exists to catch are caught, and (b) known-good idioms from the real
codebase asserted clean — the false-positive guards are what make the
zero-findings CI gate trustworthy.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers.detlint import analyze_source
from repro.analysis import all_rules, analyze_paths, contracts
from repro.analysis.base import Suppressions, module_name_for_path
from repro.analysis.runner import format_report

REPO = Path(__file__).resolve().parents[1]
#: The CLI subprocesses import ``repro`` from this checkout's ``src``, so
#: they run without the package installed.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    ),
}


def codes(report, rule=None):
    return [f.rule for f in report.findings if rule is None or f.rule == rule]


def lines(report, rule):
    return [f.line for f in report.findings if f.rule == rule]


# ---------------------------------------------------------------------------
# DET001 — ambient / unseeded RNG
class TestDet001AmbientRng:
    def test_np_random_module_functions_flagged(self):
        r = analyze_source(
            "import numpy as np\n"
            "x = np.random.rand(3)\n"
            "np.random.seed(0)\n"
            "y = np.random.normal(size=4)\n"
        )
        assert lines(r, "DET001") == [2, 3, 4]

    def test_stdlib_random_flagged(self):
        r = analyze_source(
            "import random\n"
            "random.shuffle([1, 2])\n"
            "from random import choice\n"
            "choice([1, 2])\n"
        )
        assert lines(r, "DET001") == [2, 4]

    def test_unseeded_default_rng_flagged_seeded_ok(self):
        r = analyze_source(
            "import numpy as np\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng(None)\n"
            "c = np.random.default_rng(7)\n"
            "d = np.random.default_rng(seed=7)\n"
            "from numpy.random import default_rng\n"
            "e = default_rng()\n"
        )
        assert lines(r, "DET001") == [2, 3, 7]

    def test_generator_methods_never_flagged(self):
        """Draws on an injected Generator are the sanctioned idiom."""
        r = analyze_source(
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n"
            "    return rng.normal() + rng.choice([1, 2])\n"
            "class C:\n"
            "    def g(self):\n"
            "        return self._rng.random()\n"
        )
        assert codes(r, "DET001") == []

    def test_seed_sequence_and_bit_generators_ok(self):
        r = analyze_source(
            "import numpy as np\n"
            "ss = np.random.SeedSequence(entropy=(1, 2, 3))\n"
            "g = np.random.Generator(np.random.PCG64(ss))\n"
        )
        assert codes(r, "DET001") == []

    def test_unrelated_attribute_chains_ok(self):
        """`self.random.thing()` on a non-module object is not RNG."""
        r = analyze_source(
            "class C:\n"
            "    def f(self):\n"
            "        return self.random.draw()\n"
        )
        assert codes(r, "DET001") == []


# ---------------------------------------------------------------------------
# DET002 — wall-clock in simulated-time packages
class TestDet002WallClock:
    def test_wallclock_in_simulated_package_flagged(self):
        r = analyze_source(
            "import time\n"
            "from datetime import datetime\n"
            "def step(now):\n"
            "    t = time.time()\n"
            "    d = datetime.now()\n"
            "    return now + 1\n",
            module="repro.cloud.widget",
        )
        assert lines(r, "DET002") == [4, 5]

    def test_from_import_alias_flagged(self):
        r = analyze_source(
            "from time import perf_counter as pc\n"
            "def f():\n"
            "    return pc()\n",
            module="repro.moo.widget",
        )
        assert lines(r, "DET002") == [3]

    def test_outside_simulated_packages_not_flagged(self):
        """Experiments/benchmark harnesses may time themselves freely."""
        r = analyze_source(
            "import time\nt = time.perf_counter()\n",
            module="repro.experiments.widget",
        )
        assert codes(r, "DET002") == []

    def test_declared_accounting_sites_exempt(self):
        """The declared simulator stopwatch functions are the allowlist."""
        r = analyze_source(
            "import time\n"
            "class CloudSimulator:\n"
            "    def run(self, apps):\n"
            "        t0 = time.perf_counter()\n"
            "        return t0\n"
            "    def other(self):\n"
            "        return time.perf_counter()\n",
            module="repro.cloud.simulator",
        )
        assert lines(r, "DET002") == [7]

    def test_simulated_now_parameters_not_flagged(self):
        """Passing simulated `now` around must never trip the rule."""
        r = analyze_source(
            "def fire(self, shard, now):\n"
            "    shard.deadline = now + self.interval\n",
            module="repro.scheduler.triggers",
        )
        assert codes(r, "DET002") == []


# ---------------------------------------------------------------------------
# DET003 — worker purity
class TestDet003WorkerPurity:
    def test_worker_reading_mutable_global_flagged(self):
        r = analyze_source(
            "_cache = {}\n"
            "def worker(task):\n"
            "    _cache[task] = 1\n"
            "    return len(_cache)\n"
            "def go(executor, tasks):\n"
            "    return executor.run(worker, tasks)\n",
            module="repro.widget",
        )
        assert lines(r, "DET003") == [3, 4]

    def test_worker_declaring_global_flagged(self):
        r = analyze_source(
            "counter = 0\n"
            "def worker(task):\n"
            "    global counter\n"
            "    counter += 1\n"
            "def go(executor, tasks):\n"
            "    return executor.submit(worker, tasks)\n",
            module="repro.widget",
        )
        assert any(
            "global" in f.message for f in r.findings if f.rule == "DET003"
        )

    def test_lambda_and_bound_method_flagged(self):
        r = analyze_source(
            "class Sim:\n"
            "    def go(self, tasks):\n"
            "        self.cycle_executor.run(lambda t: t, tasks)\n"
            "        self.cycle_executor.submit(self.step, tasks)\n",
            module="repro.widget",
        )
        assert lines(r, "DET003") == [3, 4]

    def test_nested_def_flagged(self):
        r = analyze_source(
            "def go(executor, tasks):\n"
            "    def worker(t):\n"
            "        return t\n"
            "    return executor.run(worker, tasks)\n",
            module="repro.widget",
        )
        assert any("nested" in f.message for f in r.findings)

    def test_pure_worker_ok(self):
        """Imports, module defs, and UPPER_CASE constants are safe reads
        — the shape of the real ``run_optimization``."""
        r = analyze_source(
            "import numpy as np\n"
            "SCALE = 2.0\n"
            "def helper(x):\n"
            "    return x * SCALE\n"
            "def worker(task):\n"
            "    return helper(np.sum(task))\n"
            "def go(executor, tasks):\n"
            "    return executor.run(worker, tasks)\n",
            module="repro.widget",
        )
        assert codes(r, "DET003") == []

    def test_cross_module_worker_checked_via_import(self):
        impure = (
            "state = []\n"
            "def run_cycle(task):\n"
            "    state.append(task)\n"
            "    return task\n"
        )
        caller = (
            "from repro.other import run_cycle\n"
            "def go(executor, tasks):\n"
            "    return executor.run(run_cycle, tasks)\n"
        )
        r = analyze_source(
            caller,
            module="repro.widget",
            extra_modules={"repro.other": impure},
        )
        assert any(
            "run_cycle" in f.message and "state" in f.message
            for f in r.findings
            if f.rule == "DET003"
        )

    def test_declared_contract_worker_checked_without_callsite(self):
        """contracts.WORKER_FUNCTIONS pins run_optimization even if no
        executor call site is visible in the analyzed set."""
        r = analyze_source(
            "tally = {}\n"
            "def run_optimization(task):\n"
            "    tally[task] = 1\n"
            "    return task\n",
            module="repro.scheduler.cycle",
        )
        assert any("tally" in f.message for f in r.findings if f.rule == "DET003")

    def test_executor_plumbing_forwarding_fn_not_flagged(self):
        """cycle_executor.py itself forwards `fn` parameters; a bare
        parameter name is out of static reach, not a finding."""
        r = analyze_source(
            "class PooledExecutor:\n"
            "    def run(self, fn, tasks):\n"
            "        return [fn(t) for t in tasks]\n"
            "    def submit(self, fn, tasks):\n"
            "        return self.pool_executor.submit(fn, tasks)\n",
            module="repro.widget",
        )
        assert codes(r, "DET003") == []


# ---------------------------------------------------------------------------
# DET004 — unordered iteration
class TestDet004UnorderedIteration:
    def test_for_over_set_flagged(self):
        r = analyze_source("s = {1, 2}\nfor x in s:\n    print(x)\n")
        assert lines(r, "DET004") == [2]

    def test_listdir_and_glob_flagged(self):
        r = analyze_source(
            "import os, glob\n"
            "for n in os.listdir('.'):\n"
            "    print(n)\n"
            "names = glob.glob('*.json')\n"
            "for n in names:\n"
            "    print(n)\n"
        )
        assert lines(r, "DET004") == [2, 5]

    def test_list_and_comprehension_sinks_flagged(self):
        r = analyze_source(
            "xs = list({1, 2})\n"
            "ys = [x for x in {1, 2}]\n"
            "zs = {k: 1 for k in set([1, 2])}\n"
        )
        assert lines(r, "DET004") == [1, 2, 3]

    def test_sorted_wrapping_is_clean(self):
        r = analyze_source(
            "s = {3, 1}\n"
            "for x in sorted(s):\n"
            "    print(x)\n"
            "ys = [x for x in sorted(set([1, 2]))]\n"
        )
        assert codes(r, "DET004") == []

    def test_order_insensitive_consumers_not_flagged(self):
        """len/min/max/membership/set-algebra never need sorting."""
        r = analyze_source(
            "s = {1, 2}\n"
            "n = len(s)\n"
            "m = max(s)\n"
            "ok = 1 in s\n"
            "t = s | {3}\n"
            "u = s & {1}\n"
        )
        assert codes(r, "DET004") == []

    def test_set_typed_binop_result_tracked(self):
        r = analyze_source(
            "a = {1} | {2}\nfor x in a:\n    print(x)\n"
        )
        assert lines(r, "DET004") == [2]

    def test_reassignment_clears_tracking(self):
        r = analyze_source(
            "a = {1, 2}\na = sorted(a)\nfor x in a:\n    print(x)\n"
        )
        assert codes(r, "DET004") == []

    def test_dict_iteration_not_flagged(self):
        """dicts are insertion-ordered — iterating them is fine."""
        r = analyze_source(
            "d = {'a': 1}\n"
            "for k in d:\n"
            "    print(k)\n"
            "for k, v in d.items():\n"
            "    print(k, v)\n"
        )
        assert codes(r, "DET004") == []


# ---------------------------------------------------------------------------
# DET005 — metrics allowlist mirror
_METRICS_FIXTURE = """
class SimulationMetrics:
    wall_seconds: float = 0.0
    stage_seconds: dict = None
    completed_jobs: int = 0
    TIMING_FIELDS = ("wall_seconds", "stage_seconds"{extra})
"""


class TestDet005MetricsAllowlist:
    def _run(self, body, extra="", module="repro.cloud.fake"):
        return analyze_source(
            body,
            module=module,
            extra_modules={
                "repro.cloud.metrics": _METRICS_FIXTURE.format(extra=extra)
            },
        )

    def test_stale_allowlist_entry_flagged(self):
        r = self._run("x = 1\n", extra=", 'ghost_field'")
        assert any(
            "ghost_field" in f.message for f in r.findings if f.rule == "DET005"
        )

    def test_wallclock_into_unlisted_field_flagged(self):
        r = self._run(
            "import time\n"
            "def run(metrics):\n"
            "    metrics.completed_jobs = time.perf_counter()\n"
        )
        assert any(
            "completed_jobs" in f.message
            for f in r.findings
            if f.rule == "DET005"
        )

    def test_taint_flows_through_locals(self):
        r = self._run(
            "import time\n"
            "def run(metrics):\n"
            "    t0 = time.perf_counter()\n"
            "    elapsed = time.perf_counter() - t0\n"
            "    metrics.completed_jobs = elapsed\n"
        )
        assert lines(r, "DET005") == [5]

    def test_wallclock_into_listed_field_ok(self):
        r = self._run(
            "import time\n"
            "def run(metrics):\n"
            "    t0 = time.perf_counter()\n"
            "    metrics.wall_seconds = time.perf_counter() - t0\n"
            "    metrics.stage_seconds['optimize'] = time.perf_counter()\n"
        )
        assert codes(r, "DET005") == []

    def test_simulated_values_into_any_field_ok(self):
        r = self._run(
            "def run(metrics, now, start):\n"
            "    metrics.completed_jobs = now - start\n"
        )
        assert codes(r, "DET005") == []


# ---------------------------------------------------------------------------
# Suppressions, runner, CLI
class TestSuppressions:
    def test_inline_directive_with_reason(self):
        r = analyze_source(
            "import random\n"
            "random.random()  # detlint: disable=DET001 -- fixture needs entropy\n"
        )
        assert r.findings == []
        assert [f.rule for f in r.suppressed] == ["DET001"]
        assert r.suppressed[0].suppression_reason == "fixture needs entropy"

    def test_directive_only_covers_named_rules(self):
        r = analyze_source(
            "import random\n"
            "random.random()  # detlint: disable=DET004 -- wrong code\n"
        )
        assert codes(r, "DET001") == ["DET001"]

    def test_bare_disable_covers_all_rules(self):
        r = analyze_source(
            "import random\nrandom.random()  # detlint: disable\n"
        )
        assert r.findings == []

    def test_standalone_comment_covers_next_line(self):
        r = analyze_source(
            "import random\n"
            "# detlint: disable=DET001 -- reason on its own line\n"
            "random.random()\n"
        )
        assert r.findings == []
        assert r.suppressed[0].line == 3

    def test_parse_captures_codes_and_reason(self):
        sup = Suppressions.parse(
            "x = 1  # detlint: disable=DET001,DET004 -- two rules\n"
        )
        hit, reason = sup.lookup("DET004", 1)
        assert hit and reason == "two rules"
        assert sup.lookup("DET002", 1) == (False, "")


class TestRunnerAndCli:
    def test_module_name_derivation(self):
        assert (
            module_name_for_path("src/repro/cloud/simulator.py")
            == "repro.cloud.simulator"
        )
        assert module_name_for_path("src/repro/analysis/__init__.py") == (
            "repro.analysis"
        )
        assert module_name_for_path("/tmp/fixture.py") == "fixture"

    def test_all_rules_registered(self):
        assert sorted(all_rules()) == [
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
        ]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            analyze_source("x = 1\n", select=["DET999"])

    def test_json_report_shape(self):
        r = analyze_source("s = {1}\nfor x in s:\n    print(x)\n")
        doc = json.loads(format_report(r, "json"))
        assert doc["tool"] == "detlint"
        assert doc["counts"] == {"DET004": 1}
        (finding,) = doc["findings"]
        assert finding["rule"] == "DET004"
        assert finding["line"] == 2

    def test_cli_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(tmp_path)],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_cli_findings_exit_one_and_json_artifact(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\nrandom.random()\n")
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                str(tmp_path),
                "--json-output",
                str(out),
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=CLI_ENV,
        )
        assert proc.returncode == 1
        assert "DET001" in proc.stdout
        doc = json.loads(out.read_text())
        assert doc["counts"] == {"DET001": 1}

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=CLI_ENV,
        )
        assert proc.returncode == 0
        for code in ("DET001", "DET002", "DET003", "DET004", "DET005"):
            assert code in proc.stdout


# ---------------------------------------------------------------------------
# The gate itself: the live tree stays at zero unsuppressed findings.
class TestLiveTree:
    def test_src_is_clean(self):
        report = analyze_paths([str(REPO / "src")])
        assert report.clean, "\n" + "\n".join(
            f.format() for f in report.findings
        )

    def test_every_live_suppression_carries_a_reason(self):
        """An intentional violation must say why it is safe."""
        report = analyze_paths([str(REPO / "src")])
        for f in report.suppressed:
            assert f.suppression_reason, (
                f"suppression without justification: {f.format()}"
            )

    def test_real_worker_function_is_checked_and_pure(self):
        """The contract worker (run_optimization) is in the checked set:
        injecting an impurity into a copy of the real module is caught."""
        cycle_path = REPO / "src" / "repro" / "scheduler" / "cycle.py"
        source = cycle_path.read_text() + (
            "\n_memo = {}\n"
            "def run_optimization_bad(task):\n"
            "    _memo[task] = 1\n"
            "    return _memo\n"
            "def _go(executor, tasks):\n"
            "    return executor.run(run_optimization_bad, tasks)\n"
        )
        r = analyze_source(
            source, path=str(cycle_path), module="repro.scheduler.cycle"
        )
        assert any("_memo" in f.message for f in r.findings if f.rule == "DET003")
        # And the pristine module passes.
        clean = analyze_source(
            cycle_path.read_text(),
            path=str(cycle_path),
            module="repro.scheduler.cycle",
        )
        assert codes(clean, "DET003") == []

    def test_contract_entries_resolve_to_defs(self):
        """Every ``(module, function)`` the contracts name must be a
        ``def`` in ``src/``: a renamed method would otherwise leave a
        dead allowlist entry (or silently drop a worker from DET003)."""
        named = set(contracts.WORKER_FUNCTIONS) | {
            (module, function)
            for module, functions in contracts.TIMING_ACCOUNTING_SITES.items()
            for function in functions
        }
        assert named
        for module, function in sorted(named):
            path = REPO / "src" / Path(*module.split(".")).with_suffix(".py")
            defs = {
                node.name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            assert function in defs, f"{module}.{function} is not a def"
