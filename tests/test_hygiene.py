"""Static checks on the package source that need no linter."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cutnets"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == \
        ["line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.name`` of each annotated class-body field and each
    ``@property`` in ``sources`` (module name to source) whose name no
    source reads as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in item.decorator_list):
                    name = item.name
                else:
                    continue
                if name not in read:
                    found.append(f"{module}.{cls.name}.{name}")
    return found


def test_checker_flags_an_unread_field():
    source = ("class A:\n    x: int\n    y: int\n    @property\n    def z(self):\n"
              "        return 1\n    @property\n    def w(self):\n        return self.x\n"
              "def f(a):\n    a.y = 1\n    return a.w\n")
    assert unread_fields({"m": source}) == ["m.A.y", "m.A.z"]


def test_no_unread_fields():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_fields(sources) == []


# Exhaustive oracles with a node or size budget: their depth is bounded by
# the budget, not by the input, so they may recurse.
RECURSION_ALLOWED = {
    "reference.display_oracle.solve",
    "reference.display_oracle.solve.extend",
    "reference.all_simple_paths.extend",
    "reference.labeled_isomorphic.assign",
    "reference.rooted_isomorphic.assign",
    "reference._search_orientation.place",
    "reference.cherry_picking_sequence.search",
}


def self_recursive(source: str, module: str = "m") -> list[str]:
    """Dotted names of the functions that call themselves: a method through
    ``self.<name>(...)``, any other function or closure through its bare
    name (a method calling a module function of its own name is not)."""
    found = []

    def visit(node, path, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [n.func for n in ast.walk(child) if isinstance(n, ast.Call)]
                if in_class:
                    hit = any(isinstance(f, ast.Attribute) and f.attr == child.name
                              and isinstance(f.value, ast.Name) and f.value.id == "self"
                              for f in calls)
                else:
                    hit = any(isinstance(f, ast.Name) and f.id == child.name for f in calls)
                if hit:
                    found.append(".".join([module] + path + [child.name]))
                visit(child, path + [child.name], False)
            else:
                visit(child, path, in_class)

    visit(ast.parse(source), [], False)
    return found


def test_checker_flags_recursion():
    source = ("def f(n):\n    return f(n - 1)\n"
              "def g():\n    def h(x):\n        return h(x)\n    return h\n"
              "class C:\n    def walk(self):\n        self.walk()\n"
              "    def bridges(self):\n        return bridges(self)\n"
              "def loop(n):\n    while n:\n        n -= 1\n")
    assert self_recursive(source) == ["m.f", "m.g.h", "m.C.walk"]


def test_no_recursion_outside_the_budgeted_oracles():
    found = set()
    for path in MODULES:
        found.update(self_recursive(path.read_text(encoding="utf-8"), path.stem))
    assert found - RECURSION_ALLOWED == set()
    assert RECURSION_ALLOWED - found == set(), "stale allowlist entry"


def callers_of(source: str, attr: str, module: str = "m", bare: bool = False) -> set[str]:
    """Dotted names of the functions whose own body (not a nested def's)
    calls a method or attribute named ``attr``, as ``<x>.<attr>(...)``, or
    with ``bare`` a function bound to the plain name ``attr``, as
    ``<attr>(...)``."""
    found = set()

    def calls(func):
        if bare:
            return isinstance(func, ast.Name) and func.id == attr
        return isinstance(func, ast.Attribute) and func.attr == attr

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call) and calls(child.func):
                found.add(".".join([module] + path))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_checker_finds_attribute_callers():
    source = ("class C:\n    def freeze(self):\n        return C._make(1)\n"
              "def f():\n    def g():\n        return x._make()\n    return g\n"
              "def h():\n    return _make()\n")
    assert callers_of(source, "_make") == {"m.C.freeze", "m.f.g"}
    assert callers_of(source, "_make", bare=True) == {"m.h"}


def test_trusted_networks_come_only_from_freezes():
    # a network built from unchecked parts is built in two places: a
    # working graph and the SAT gadget builder, each at the one point
    # where its value leaves
    found = set()
    for path in MODULES:
        found |= callers_of(path.read_text(encoding="utf-8"), "_trusted", path.stem)
    assert found == {"nets._WorkGraph.freeze", "sat._Builder.freeze"}


def test_bridge_search_has_two_callers():
    # a network searches once for its cut-edge cache and a working graph
    # once when it keeps no cut-edges; an elimination keeps them with
    # cycle-space labels and searches nothing.  No module imports ``nets``
    # itself, so a call from another module would be a bare call too.
    found = set()
    for path in MODULES:
        found |= callers_of(path.read_text(encoding="utf-8"), "bridges", path.stem, bare=True)
    assert found == {"nets.UndirectedNet.cut_edges", "nets._WorkGraph.bridges"}


def imports_of(source: str) -> set[str]:
    """The bare names of the package modules that ``source`` imports
    anywhere, relatively (``from . import a``, ``from .a import x``) or
    absolutely (``import cutnets.a``, ``from cutnets.a import x``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("cutnets" + (f".{node.module}" if node.module else "")
                    if node.level else node.module)
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("cutnets."))
    return found


def test_checker_finds_package_imports():
    source = ("from . import a, b\nfrom .c import x\nimport cutnets.d\n"
              "from cutnets.e import y\nfrom cutnets import f\nimport os\n"
              "def g():\n    from .h import z\n")
    assert imports_of(source) == {"a", "b", "c", "d", "e", "f", "h"}


def test_reference_is_imported_only_by_cli():
    # the exhaustive oracles are differential tests, not production paths
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if "reference" in imports_of(path.read_text(encoding="utf-8"))}
    assert importers == {"cli", "__init__"}


# every public name the package exported before its oracles moved into
# ``reference``
PUBLIC_NAMES = [
    "Assignment", "Blob", "Chain", "CherryPickingSequence", "CnfInstance", "CuttabilityReport",
    "Embedding", "GadgetMap", "GenConfig", "OrientationSpec", "PendantQuad", "PendantTriple",
    "RootedNet", "RuleOutcome", "Split", "UndirectedNet", "ValidationReport",
    "apply_orientation", "apply_reduction", "assignment_satisfies", "branch_on_cut_edge",
    "brute_force_tree_child_orientation", "build_n_phi", "build_u_phi", "canon_edge",
    "cherry_picking_sequence", "choose_s_prime", "conflicting_split", "display_oracle",
    "eliminate_edge", "entangled_path", "extract_assignment", "find_pendant_structures",
    "is_entangled", "is_q_cuttable", "is_q_cuttable_bruteforce",
    "is_q_cuttable_via_chain_deletion", "is_tree_child", "labeled_isomorphic",
    "make_q_cuttable", "max_cuttability", "random_2balanced_cnf", "random_q_cuttable",
    "random_tree", "reduce_pair", "replay_sequence", "rooted_isomorphic",
    "sample_displayed_tree", "sat_bruteforce", "split_of_cut_edge", "subdivide", "suppress",
    "three_cuttable_tc", "tree_child_orient_2cuttable", "underlying_unrooted",
    "validate_2balanced", "validate_rooted", "validate_unrooted", "verify_embedding",
]


def test_public_names_unchanged():
    import cutnets
    public = sorted(name for name, value in vars(cutnets).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert public == PUBLIC_NAMES


def traced_names() -> list[str]:
    """The ``module.function`` names the bench tracer wraps, read from the
    ``LAYERS`` literal in ``perfbench/tracing.py`` without running it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            layers = ast.literal_eval(node.value)
            return [f"{module}.{name}" for module, names in layers.items() for name in names]
    raise AssertionError("perfbench/tracing.py has no LAYERS")


def test_traced_names_resolve():
    names = traced_names()
    assert "nets.eliminate_edge" in names
    missing = []
    for name in names:
        module, *path = name.split(".")
        target = importlib.import_module(f"cutnets.{module}")
        for part in path:
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(name)
    assert missing == []
