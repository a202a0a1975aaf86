"""Every public definition in ``src/`` is run by a figure, workload or example.

An ``ast`` census over the repository.  The *definitions* are every
function, class, method and property under ``src/repro``; a public one is
one whose own name and enclosing class names carry no leading underscore.
The *roots* are what the project runs:

* every statement of ``bench/*.py``, ``benchmarks/*.py``,
  ``examples/*.py`` and each ``src/**/__main__.py``;
* ``repro.experiments.report.main``, which writes EXPERIMENTS.md;
* the module-level statements of every ``src/`` module other than its
  imports and its ``__all__`` (constants, dispatch tables, the
  ``if __name__ == "__main__"`` blocks).

A definition is live when a root or a live definition names it — as a
``Name``, an ``Attribute`` or an import alias — and, for a method, when
its class is live too.  Names are matched without resolving them, so a
``.rebalance`` call keeps every live class's ``rebalance`` alive: the
census errs toward keeping code, never toward calling used code dead.
A class's private and dunder methods live with the class.  Liveness is
iterated to a fixed point, so a chain that only tests reach dies as a
whole.

The test fails naming each public definition that is not live and not
in :data:`ALLOWED`.  Tests are not roots: a definition only ``tests/``
calls is API kept for its own test.

The *parameter census* asks the same of every defaulted parameter of
every function and method under ``src/repro`` outside ``analysis/``,
private ones included.  Its roots are the calls the files above make:
every call in ``src/``, ``bench/``, ``benchmarks/`` and ``examples/``.
A keyword counts only where it can reach the function it names: a
function's callees are the calls by its own name, and a constructor's
are the calls to its class and its subclasses, with ``cls(...)``,
``type(self)(...)`` and ``super().__init__(...)`` resolved to the
enclosing class (its bases for the last).  Callee names are not resolved
further, so a call by a shared name reaches every function of that name:

* a keyword-only default is dead when no call to one of its callees
  passes a keyword of its name or spreads ``**``;
* a positional-or-keyword default is dead when no call to one of its
  callees passes that many positional arguments, passes its name as a
  keyword or spreads ``*`` or ``**``, and nothing names the function
  other than as a callee (a dispatch table or a callback holding it
  keeps it).

The *value rule*: a function something names other than as a callee (a
dispatch table, a callback, a ``functools.partial`` or an annotation)
can be called under any name, as ``report``'s ``run(seed=seed)`` calls
every figure.  For such a function a keyword of a parameter's name
passed to any call keeps the parameter, so the census still errs toward
keeping code.

A dead parameter is named ``module:qualname(param)``; it becomes the
constant it always is, or an :data:`ALLOWED` key says why it stays.
"""

import ast
from collections import defaultdict
from fnmatch import fnmatchcase
from functools import cache
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]
SRC = REPO / "src"

#: Public definitions nothing in the roots reaches, and dead parameters,
#: each with the reason it stays.  A key is an ``fnmatch`` pattern over
#: ``module:Qualified.name``, or over ``module:Qualified.name(param)``.
ALLOWED = {
    "repro.circuits.circuit:Circuit.to_dict": (
        "the mitigation pin (tests/test_mitigation_pin.py) hashes every "
        "expanded instance through it"
    ),
    "repro.cloud.execution:ExecutionModel.expected_fidelity": (
        "the noise-free ground truth an exact-estimate arm of Fig. 6 "
        "answers with (ROADMAP direction 9(b))"
    ),
    **dict.fromkeys(
        ["repro.circuits.circuit:OpSink.barrier", "repro.circuits.circuit:OpSink.reset"],
        "the circuit API's spelling of two pseudo-ops (gates.PSEUDO_OPS) that the "
        "live cutter, DD pass, router and depth count handle; no shipped "
        "workload emits them, so those branches have no other public "
        "constructor",
    ),
    "repro.analysis.rules.det*:*Rule": (
        "each detlint rule registers itself with @register at import, "
        "and all_rules() hands the registry to the runner"
    ),
    **dict.fromkeys(
        [
            f"repro.estimator.models:_select_and_fit({param})"
            for param in ("degrees", "alpha", "n_splits")
        ],
        "TestDegreeSelection and the scipy-route oracle "
        "(tests/helpers/reference_ridge.py) hold the selection to its "
        "references over reordered, repeated and single degrees and degree 4, "
        "2 to 6 folds and three ridge strengths",
    ),
    "repro.orchestrator.api:Qonductor.create_workflow(config)": (
        "the paper's Qonductor API (Table 2) packages a workflow with its "
        "execution config into an image; tests/test_orchestrator.py holds a "
        "refused config to create_workflow"
    ),
    "repro.orchestrator.api:Qonductor.classical_step(fn)": (
        "a classical step of the paper's hybrid workflows runs the user's "
        "function; tests/test_orchestrator.py checks that its output and its "
        "failure reach the workflow's results"
    ),
    "repro.analysis.*:*.visit_*": (
        "ast.NodeVisitor dispatches visit_<NodeType> by getattr on the "
        "node's class name; no caller names the method"
    ),
}


@cache
def _tree(path):
    return ast.parse(path.read_text())


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _names(nodes):
    """Every name ``nodes`` reference: ``Name`` ids, ``Attribute``
    attrs and the names an import binds or brings in."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name.rpartition(".")[2])
                if sub.asname:
                    found.add(sub.asname)
    return found


def _is_public(qualname):
    return not any(part.startswith("_") for part in qualname.split("."))


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Definition:
    """One function, class, method or property and what it names."""

    def __init__(self, module, qualname, node, owner):
        self.key = f"{module}:{qualname}"
        self.qualname = qualname
        self.name = node.name
        self.owner = owner  # the enclosing class's _Definition, or None
        self.node = node
        if isinstance(node, ast.ClassDef):
            # Bases, decorators, keywords and the class body's own
            # statements; its methods are definitions of their own.
            own = [stmt for stmt in node.body if not isinstance(stmt, _DEFS)]
            self.refs = _names(node.bases + node.keywords + node.decorator_list + own)
        else:
            self.refs = _names([node])


def _collect(body, module, prefix, owner, out):
    for node in body:
        if isinstance(node, _DEFS):
            definition = _Definition(module, prefix + node.name, node, owner)
            out.append(definition)
            if isinstance(node, ast.ClassDef):
                _collect(node.body, module, f"{definition.qualname}.", definition, out)


def _assigns_all(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def census(allowed=ALLOWED):
    """``(definitions, live)`` for the tree as it stands: every
    :class:`_Definition` and the set of those live, starting from the
    roots, ``report.main`` and the definitions ``allowed`` matches (so
    what they call lives too)."""
    definitions = []
    roots = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = _tree(path)
        _collect(tree.body, _module_name(path), "", None, definitions)
        if path.name == "__main__.py":
            roots |= _names(tree.body)
        else:
            roots |= _names(
                stmt
                for stmt in tree.body
                if not isinstance(stmt, (*_DEFS, ast.Import, ast.ImportFrom))
                and not _assigns_all(stmt)
            )
    for folder in ("bench", "benchmarks", "examples"):
        for path in sorted((REPO / folder).glob("*.py")):
            roots |= _names([_tree(path)])
    live = {
        d
        for d in definitions
        if d.key == "repro.experiments.report:main"
        or any(fnmatchcase(d.key, pattern) for pattern in allowed)
    }
    named = roots.union(*(d.refs for d in live))
    changed = True
    while changed:
        changed = False
        for d in definitions:
            if d in live or (d.owner is not None and d.owner not in live):
                continue
            if d.name in named or (d.owner is not None and not _is_public(d.name)):
                live.add(d)
                named |= d.refs
                changed = True
    return definitions, live


def dead_public():
    definitions, live = census()
    return sorted(d.key for d in definitions if d not in live and _is_public(d.qualname))


def _bound(scope):
    """The names a function or lambda binds in its own scope: its
    parameters and its assignment, loop and ``with`` targets."""
    args = scope.args
    found = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    found.update(a.arg for a in (args.vararg, args.kwarg) if a)
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        if not isinstance(node, (*_DEFS, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def _base_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _is_call_to(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


class _Calls(ast.NodeVisitor):
    """What the roots' calls reach: each call by callee name (a class
    for ``cls(...)``, ``type(self)(...)`` and ``super().__init__(...)``
    inside it, the bases for the last), every keyword name passed, and
    every name used other than as a callee.
    A name a function binds itself is its own local, not a use of a
    definition; a module's ``__getattr__`` re-exports the names it
    imports lazily, as ``__all__`` would, rather than using them."""

    def __init__(self):
        self.calls = defaultdict(list)
        self.keywords = set()
        self.values = set()
        self._classes = []
        self._locals = []

    def _scope(self, node, bound):
        self._locals.append(bound)
        self.generic_visit(node)
        self._locals.pop()

    def visit_ClassDef(self, node):
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        bound = _bound(node)
        if node.name == "__getattr__" and not self._classes and not self._locals:
            bound |= _names(n for n in ast.walk(node) if isinstance(n, ast.ImportFrom))
        self._scope(node, bound)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._scope(node, _bound(node))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in b for b in self._locals):
            self.values.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.values.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        cls = self._classes[-1] if self._classes else None
        names = []
        if isinstance(func, ast.Name):
            names = [cls.name if func.id == "cls" and cls else func.id]
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
            if func.attr == "__init__" and isinstance(func.value, ast.Name):
                names = [func.value.id]  # Base.__init__(self, ...)
            elif func.attr == "__init__" and _is_call_to(func.value, "super") and cls:
                names = [_base_name(b) for b in cls.bases]
            self.visit(func.value)
        elif _is_call_to(func, "type") and cls:
            names = [cls.name]  # type(self)(...)
        else:
            self.visit(func)
        for name in names:
            self.calls[name].append(node)
        self.keywords.update(k.arg for k in node.keywords if k.arg)
        for child in [*node.args, *node.keywords]:
            self.visit(child)


def _subclasses(definitions):
    """Each class name -> the names of it and every class deriving from
    it, by base-class name."""
    children = defaultdict(set)
    for d in definitions:
        if isinstance(d.node, ast.ClassDef):
            for base in d.node.bases:
                children[_base_name(base)].add(d.name)
    family = {}
    for d in definitions:
        if isinstance(d.node, ast.ClassDef) and d.name not in family:
            found, todo = set(), [d.name]
            while todo:
                name = todo.pop()
                if name not in found:
                    found.add(name)
                    todo.extend(children[name])
            family[d.name] = found
    return family


@cache
def _root_calls(repo, src):
    """The :class:`_Calls` of every file under ``src`` and of the root
    folders of ``repo``."""
    seen = _Calls()
    for path in sorted(src.rglob("*.py")):
        seen.visit(_tree(path))
    for folder in ("bench", "benchmarks", "examples"):
        for path in sorted((repo / folder).glob("*.py")):
            seen.visit(_tree(path))
    return seen


def _is_staticmethod(node):
    return any(isinstance(x, ast.Name) and x.id == "staticmethod" for x in node.decorator_list)


def dead_parameters(allowed=ALLOWED):
    """``module:qualname(param)`` of every defaulted parameter no root's
    call can pass, minus the parameter keys ``allowed`` matches."""
    definitions = []
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        if module != "repro.analysis" and not module.startswith("repro.analysis."):
            _collect(_tree(path).body, module, "", None, definitions)
    seen = _root_calls(REPO, SRC)
    family = _subclasses(definitions)
    dead = []
    for d in definitions:
        node = d.node
        if isinstance(node, ast.ClassDef):
            continue
        if d.name == "__init__" and d.owner is not None:
            callees = family[d.owner.name]
        else:
            callees = {d.name}
        calls = [c for name in callees for c in seen.calls[name]]
        passed = {k.arg for c in calls for k in c.keywords}  # None: a ** spread
        spread_kw = None in passed
        as_value = bool(callees & seen.values)
        if as_value:
            passed |= seen.keywords
        args = node.args
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and arg.arg not in passed and not spread_kw:
                dead.append(f"{d.key}({arg.arg})")
        positional = [*args.posonlyargs, *args.args]
        if d.owner is not None and not _is_staticmethod(node):
            positional = positional[1:]  # self or cls
        first_default = len(positional) - len(args.defaults)
        spread = spread_kw or any(isinstance(a, ast.Starred) for c in calls for a in c.args)
        for index, arg in enumerate(positional):
            if index < first_default or as_value or spread or arg.arg in passed:
                continue
            if not any(len(c.args) > index for c in calls):
                dead.append(f"{d.key}({arg.arg})")
    return sorted(
        key for key in dead if not any(fnmatchcase(key, pattern) for pattern in allowed)
    )


def unneeded_allowances(allowed=ALLOWED):
    """The keys of ``allowed`` that keep nothing alive: they match no
    definition and no parameter the census finds dead without them."""
    definitions, live = census(allowed={})
    dead = {d.key for d in definitions if d not in live}
    dead |= set(dead_parameters(allowed={}))
    return [pattern for pattern in allowed if not any(fnmatchcase(k, pattern) for k in dead)]


def test_every_public_definition_is_reached():
    dead = dead_public()
    assert not dead, (
        "public definitions no figure, workload or example reaches "
        "(delete them, or allow one in ALLOWED with its reason):\n  "
        + "\n  ".join(dead)
    )


def test_every_default_is_passed_by_a_root():
    dead = dead_parameters()
    assert not dead, (
        "defaulted parameters no figure, workload or example passes (make "
        "each the constant it always is, or allow it in ALLOWED with its "
        "reason):\n  " + "\n  ".join(dead)
    )


def test_every_allowance_has_a_reason_and_is_needed():
    """Each entry says why, and keeps alive at least one definition or
    parameter that would be dead without the allowances."""
    for pattern, reason in ALLOWED.items():
        assert len(reason.split()) >= 5, pattern
    unneeded = unneeded_allowances()
    assert not unneeded, f"{unneeded} match nothing the census finds dead"


_MOD = (
    "from .other import helper\n"
    "__all__ = ['Orphan', 'study']\n"
    "TABLE = {'k': Used, 'f': in_table}\n"
    "class Used:\n"
    "    def __init__(self):\n"
    "        self.x = from_init()\n"
    "    def called(self):\n"
    "        return 1\n"
    "    def never(self):\n"
    "        return 2\n"
    "class Orphan:\n"
    "    def called(self):\n"
    "        return 3\n"
    "def study():\n"
    "    return Orphan().called()\n"
    "def from_init():\n"
    "    return 4\n"
    "def from_example():\n"
    "    return 5\n"
    "def knob(*, tests_only=1, bench_too=1):\n"
    "    return tests_only + bench_too\n"
    "def spread(a, b=2):\n"
    "    return a + b\n"
    "def in_table(a, b=2, *, mode=1):\n"
    "    return a + b + mode\n"
    "def as_callback(a, b=2):\n"
    "    return a + b\n"
    "def one_positional(a, b=2, c=3):\n"
    "    return a + b + c\n"
    "class Base:\n"
    "    def __init__(self, a, b=2):\n"
    "        self.a = a + b\n"
    "class Derived(Base):\n"
    "    pass\n"
    "def quiet(a, b=2, *, flag=1):\n"
    "    return a + b + flag\n"
    "def partial_target(a, *, k=1):\n"
    "    return a + k\n"
    "class Spread:\n"
    "    def __init__(self, a=1, *, b=2):\n"
    "        self.a = a + b\n"
    "    @classmethod\n"
    "    def build(cls, d):\n"
    "        return cls(**d)\n"
)


@pytest.fixture
def toy_repo(tmp_path, monkeypatch):
    """A repository in miniature, with a ``tests/`` folder the census
    must not read; the census's paths point into it."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(_MOD)
    (package / "experiments").mkdir()
    (package / "experiments" / "__init__.py").write_text("")
    (package / "experiments" / "report.py").write_text(
        "def main():\n    return None\n"
    )
    for folder in ("bench", "benchmarks", "examples", "tests"):
        (tmp_path / folder).mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import from_example\n"
        "from_example()\n"
        "TABLE['k']().called()\n"
        "knob()\n"
        "spread(1, **{'b': 3})\n"
        "sorted([3, 1], key=as_callback)\n"
        "one_positional(1, 2)\n"
        "Derived(1, 2)\n"
        "quiet(1)\n"
        "dict(b=3, flag=2)\n"
        "TABLE['f'](1, mode=2)\n"
        "import functools\n"
        "functools.partial(partial_target, k=2)(1)\n"
        "Spread().build({'b': 3})\n"
    )
    (tmp_path / "bench" / "run.py").write_text("knob(bench_too=2)\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "knob(tests_only=2, bench_too=2)\none_positional(1, 2, 3)\n"
    )
    monkeypatch.setattr(f"{__name__}.REPO", tmp_path)
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path / "src")


def test_census_sees_what_it_forbids(toy_repo):
    """A tests-only chain dies as a whole; a root, a live caller, an
    attribute call and a class's dunder keep code alive."""
    definitions, live = census()
    dead = sorted(d.key for d in definitions if d not in live)
    assert dead == [
        "repro.mod:Orphan",
        "repro.mod:Orphan.called",
        "repro.mod:Used.never",
        "repro.mod:study",
    ]


def test_parameter_census_sees_what_it_forbids(toy_repo):
    """A keyword only ``tests/`` passes is dead and one ``bench/`` passes
    lives; a keyword passed only to an unrelated callee is dead;
    ``**``, a dispatch table, a callback and a subclass's call keep
    positional defaults alive; a call through a dispatch table and a
    ``functools.partial`` keep the keywords they pass, and ``cls(**d)``
    keeps every parameter of its class; an allowance that keeps nothing
    fails."""
    assert dead_parameters(allowed={}) == [
        "repro.mod:knob(tests_only)",
        "repro.mod:one_positional(c)",
        "repro.mod:quiet(b)",
        "repro.mod:quiet(flag)",
    ]
    allowed = {
        "repro.mod:knob(tests_only)": "a keyword only its own test passes",
        "repro.mod:spread(b)": "a default the examples spread into it",
    }
    assert dead_parameters(allowed) == [
        "repro.mod:one_positional(c)",
        "repro.mod:quiet(b)",
        "repro.mod:quiet(flag)",
    ]
    assert unneeded_allowances(allowed) == ["repro.mod:spread(b)"]
