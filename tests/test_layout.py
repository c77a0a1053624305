"""Layout guards: every public name in the package has a caller outside the
tests, so has every public method and property of its classes and every
parameter with a default, every public dataclass field is read, every name
the package exports resolves, no module imports a name it does not use, and
only config.py tests the type of a value from outside the program.
"""

import ast
from collections import Counter
from pathlib import Path

import tvtsyn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tvtsyn"

# public names and class members whose callers are the library's users, not
# its own code
ALLOWED = {
    "small_config": "public API beside ModelConfig: the reduced config for quick runs",
    "save_config": "public API beside load_config: writes the file load_config reads",
    "probe_influence": "positive control of causality_probe: shows the probe can see influence",
}


def _definitions(tree):
    """Public top-level functions, classes and constants, and the public
    methods and properties of top-level classes: qualified name -> defining
    statement."""
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
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defs.update((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    return defs


def _references(node):
    """Identifiers used under `node`, with their counts: names, attributes,
    imported names, and strings (perfbench looks functions up by name)."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def _uncalled(root):
    """Public names and class members of root/src/tvtsyn/*.py that nothing in
    the package or in root/perfbench references outside their own definition.
    A member matches by its bare name; a re-export from __init__.py is not a
    reference."""
    package = sorted((root / "src" / "tvtsyn").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in package}
    trees.update((p, ast.parse(p.read_text())) for p in sorted((root / "perfbench").glob("*.py")))
    refs = sum((_references(tree) for p, tree in trees.items() if p.name != "__init__.py"),
               Counter())
    uncalled = []
    for path in package:
        for name, node in _definitions(trees[path]).items():
            bare = name.rsplit(".", 1)[-1]
            if refs[bare] <= _references(node)[bare]:
                uncalled.append(f"{path.stem}.{name}")
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = _uncalled(ROOT)
    unlisted = [q for q in uncalled if q.split(".", 1)[1] not in ALLOWED]
    assert not unlisted, f"public names only the tests (or nothing) call: {unlisted}"
    # an allowlisted name that gains a caller leaves the list
    assert set(ALLOWED) <= {q.split(".", 1)[1] for q in uncalled}


def test_caller_guard_on_a_small_tree(tmp_path):
    (tmp_path / "src" / "tvtsyn").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "tvtsyn" / "m.py").write_text(
        "LIMIT = 3\n"
        "class Session:\n"
        "    def feed(self, x):\n"
        "        return self.step(x)\n"
        "    def step(self, x):\n"
        "        return self.step(x - 1) if x else LIMIT\n"
        "    def reset(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "    def _hidden(self):\n"
        "        pass\n"
        "def unused():\n"
        "    pass\n"
        "def traced():\n"
        "    pass\n")
    (tmp_path / "src" / "tvtsyn" / "__init__.py").write_text("from .m import unused\n")
    (tmp_path / "perfbench" / "bench.py").write_text(
        "from tvtsyn.m import Session\n"
        "Session().feed(1)\n"
        "WRAPPED = ('traced',)\n")
    assert sorted(_uncalled(tmp_path)) == ["m.Session.reset", "m.Session.size", "m.unused"]


def _is_dataclass(decorator):
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def _unread_fields(root):
    """`module.Class.field` for each public field of a dataclass in
    root/src/tvtsyn/*.py that no code in the package or in root/perfbench
    reads, as an attribute (`obj.field`) or as a string (`getattr(obj,
    "field")`, a name perfbench looks up). A field matches by its bare name,
    as in _uncalled. A keyword does not count: `Class(field=...)` sets the
    field, so a copy that is only ever set still fails."""
    package = sorted((root / "src" / "tvtsyn").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in package}
    read = set()
    for tree in [*trees.values(),
                 *(ast.parse(p.read_text()) for p in sorted((root / "perfbench").glob("*.py")))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{path.stem}.{cls.name}.{stmt.target.id}"
            for path, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_") and stmt.target.id not in read]


def test_every_dataclass_field_is_read():
    unread = _unread_fields(ROOT)
    assert not unread, f"dataclass fields that only the tests (or nothing) read: {unread}"


def test_unread_field_guard_on_a_small_tree(tmp_path):
    (tmp_path / "src" / "tvtsyn").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "tvtsyn" / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class Conv:\n"
        "    weight: object\n"
        "    stride: int = 1\n"
        "    kernel: int = 3\n"
        "    _cache: object = None\n"
        "    def apply(self, x):\n"
        "        return self.weight @ x[::getattr(self, 'stride')]\n"
        "@dataclasses.dataclass\n"
        "class Session:\n"
        "    conv: Conv\n"
        "    frames: int = 0\n"
        "    calls: int = 0\n"
        "    def feed(self, x):\n"
        "        self.frames = x.shape[1]\n"
        "        return self.conv.apply(x)\n"
        "class Plain:\n"
        "    size: int = 0\n"
        "def build(w):\n"
        "    return Session(Conv(w, kernel=3, stride=2), frames=0)\n")
    (tmp_path / "perfbench" / "bench.py").write_text(
        "from tvtsyn.m import build\n"
        "print(build(None).calls)\n")
    assert sorted(_unread_fields(tmp_path)) == ["m.Conv.kernel", "m.Session.frames"]


# parameters with a default that no call in the package or the benchmark passes
UNPASSED = {}


def _defaulted_parameters(tree):
    """(function name, positional parameters, parameters with a default) for
    every function and method; a method drops its self/cls, and __init__ goes
    by its class's name."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                name = cls if cls and child.name == "__init__" else child.name
                found.append((name, positional, defaulted))
                visit(child, None)

    visit(tree, None)
    return found


def _unpassed_parameters(root):
    """`function(parameter)` for each parameter with a default, on a function
    or method of root/src/tvtsyn, that no call in the package or in
    root/perfbench passes: by keyword, by position, or through *args/**kwargs.
    Calls match by the called name alone. A function also used as a value
    (called through an alias) is skipped; a type annotation is no such use."""
    package = sorted((root / "src" / "tvtsyn").glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in package + sorted((root / "perfbench").glob("*.py"))]
    passed, values = {}, set()  # name -> (keywords, most positional args, splatted)
    for tree in trees:
        not_values = set()  # ids of called names and of annotations
        for node in ast.walk(tree):
            ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
            if ann is not None:
                not_values.update(id(sub) for sub in ast.walk(ann))
            if isinstance(node, ast.Call):
                func = node.func
                not_values.add(id(func))
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                kw, n_pos, splat = passed.get(name, (set(), 0, False))
                passed[name] = (
                    kw | {k.arg for k in node.keywords},
                    max(n_pos, len(node.args)),
                    splat or any(isinstance(x, ast.Starred) for x in node.args)
                    or any(k.arg is None for k in node.keywords))
        for node in ast.walk(tree):
            if id(node) not in not_values:
                if isinstance(node, ast.Name):
                    values.add(node.id)
                elif isinstance(node, ast.Attribute):
                    values.add(node.attr)
    unpassed = []
    for tree in trees[:len(package)]:
        for name, positional, defaulted in _defaulted_parameters(tree):
            if name in values:
                continue
            kw, n_pos, splat = passed.get(name, (set(), 0, False))
            unpassed += [f"{name}({p})" for p in defaulted
                         if not (splat or p in kw or p in positional[:n_pos])]
    return unpassed


def test_every_defaulted_parameter_has_a_caller():
    unpassed = _unpassed_parameters(ROOT)
    unlisted = [q for q in unpassed if q not in UNPASSED]
    assert not unlisted, f"parameters only the tests (or nothing) pass: {unlisted}"
    # an allowlisted parameter that gains a caller leaves the list
    assert set(UNPASSED) <= set(unpassed)


def test_unpassed_parameter_guard_on_a_small_tree(tmp_path):
    (tmp_path / "src" / "tvtsyn").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "tvtsyn" / "m.py").write_text(
        "class Store:\n"
        "    def __init__(self, entries=None, *, strict=False):\n"
        "        pass\n"
        "    def get(self, name, shape=None):\n"
        "        pass\n"
        "def by_position(a, b=1, c=2):\n"
        "    Store(strict=True).get('x')\n"
        "def splatted(a, b=1):\n"
        "    pass\n"
        "def aliased(a, b=1):\n"
        "    pass\n"
        "def untyped(store: Store, fn=aliased):\n"
        "    by_position(1, 2)\n")
    (tmp_path / "perfbench" / "bench.py").write_text(
        "from tvtsyn.m import splatted, untyped\n"
        "splatted(*[1, 2])\n"
        "untyped(None)\n")
    assert sorted(_unpassed_parameters(tmp_path)) == [
        "Store(entries)", "by_position(c)", "get(shape)", "untyped(fn)"]


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


def _imported_modules(path):
    """Top-level names of the modules `path` imports, absolute imports only."""
    mods = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            mods.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            mods.add(node.module.split(".")[0])
    return mods


def test_only_config_imports_numbers():
    """`numbers` is the type test behind check_int and check_real: a module
    that imports it is writing its own rule for an outside value."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert [p.name for p in paths if "numbers" in _imported_modules(p)] == ["config.py"]
