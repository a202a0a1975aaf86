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
"""

import ast
from fnmatch import fnmatchcase
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]
SRC = REPO / "src"

#: Public definitions nothing in the roots reaches, each with the reason
#: it stays.  A key is an ``fnmatch`` pattern over ``module:Qualified.name``.
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
    "repro.analysis.*:*.visit_*": (
        "ast.NodeVisitor dispatches visit_<NodeType> by getattr on the "
        "node's class name; no caller names the method"
    ),
}


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
        tree = ast.parse(path.read_text())
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
            roots |= _names([ast.parse(path.read_text())])
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


def test_every_public_definition_is_reached():
    dead = dead_public()
    assert not dead, (
        "public definitions no figure, workload or example reaches "
        "(delete them, or allow one in ALLOWED with its reason):\n  "
        + "\n  ".join(dead)
    )


def test_every_allowance_has_a_reason_and_is_needed():
    """Each entry says why, and keeps alive at least one definition that
    would be dead without the allowances."""
    definitions, live = census(allowed={})
    for pattern, reason in ALLOWED.items():
        assert len(reason.split()) >= 5, pattern
        assert any(
            fnmatchcase(d.key, pattern) and d not in live for d in definitions
        ), f"{pattern} matches no definition the census finds dead"


def test_census_sees_what_it_forbids(tmp_path, monkeypatch):
    """A tests-only chain dies as a whole; a root, a live caller, an
    attribute call and a class's dunder keep code alive."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "from .other import helper\n"
        "__all__ = ['Orphan', 'study']\n"
        "TABLE = {'k': Used}\n"
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
    )
    (package / "experiments").mkdir()
    (package / "experiments" / "__init__.py").write_text("")
    (package / "experiments" / "report.py").write_text(
        "def main():\n    return None\n"
    )
    for folder in ("bench", "benchmarks", "examples"):
        (tmp_path / folder).mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import from_example\n"
        "from_example()\n"
        "TABLE['k']().called()\n"
    )
    monkeypatch.setattr(f"{__name__}.REPO", tmp_path)
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path / "src")
    definitions, live = census()
    dead = sorted(d.key for d in definitions if d not in live)
    assert dead == [
        "repro.mod:Orphan",
        "repro.mod:Orphan.called",
        "repro.mod:Used.never",
        "repro.mod:study",
    ]
