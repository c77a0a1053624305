"""Layout guards: every public name in the package has a caller outside the
tests, every name the package exports resolves, and no module imports a name
it does not use.
"""

import ast
from pathlib import Path

import tvtsyn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tvtsyn"

# public names whose callers are the library's users, not its own code
ALLOWED = {
    "small_config": "public API beside ModelConfig: the reduced config for quick runs",
    "save_config": "public API beside load_config: writes the file load_config reads",
    "probe_influence": "positive control of causality_probe: shows the probe can see influence",
}


def _definitions(tree):
    """Public top-level functions, classes and constants: name -> defining statement."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        defs.update((name, node) for name in names if not name.startswith("_"))
    return defs


def _references(node):
    """Identifiers used under `node`: names, attributes, imported names, and
    strings (perfbench looks functions up by name)."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.alias):
            refs.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.add(sub.value)
    return refs


def _uncalled():
    """Public names of src/tvtsyn/*.py with no reference outside their own
    definition. A re-export from __init__.py is not a reference."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p for p in [*trees, *sorted((ROOT / "perfbench").glob("*.py"))]
               if p.name != "__init__.py"]
    refs_by_module = {p: _references(ast.parse(p.read_text())) for p in callers}
    uncalled = []
    for path, tree in trees.items():
        elsewhere = set().union(*(r for p, r in refs_by_module.items() if p != path))
        for name, node in _definitions(tree).items():
            own = set().union(*(_references(s) for s in tree.body if s is not node))
            if name not in elsewhere and name not in own:
                uncalled.append(f"{path.stem}.{name}")
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = _uncalled()
    unlisted = [q for q in uncalled if q.split(".")[1] not in ALLOWED]
    assert not unlisted, f"public names only the tests (or nothing) call: {unlisted}"
    # an allowlisted name that gains a caller leaves the list
    assert set(ALLOWED) <= {q.split(".")[1] for q in uncalled}


def test_every_exported_name_resolves():
    assert len(set(tvtsyn.__all__)) == len(tvtsyn.__all__)
    for name in tvtsyn.__all__:
        assert hasattr(tvtsyn, name), name


def _unused_imports(path):
    """`path:line name` for each name the file imports and never uses as a Name."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # the package's __init__.py imports to re-export
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    unused = [entry for p in paths for entry in _unused_imports(p)]
    assert not unused, f"imported but never used: {unused}"
