"""Static checks: no module imports a name it never uses, every name a
module lists in `__all__` is bound at its top level, every private
top-level `_name` is referenced somewhere in the package, every
exported or private top-level function that takes a `cfg` reads it, and
only the direct route's path to the quadrature loop takes one:
`determinant_direct`, `_ray`, `integrate_polyline` and `_refine`.  The
routes, the quadrature, the kernel, the scans, the suites and the CLI
import nothing from `polydet.config`.

A small stand-in for pyflakes' unused-import and undefined-export rules
and for a dead-code finder, built on `ast` so it needs no extra dependency.
A name counts as used when it is read anywhere in the module (annotations
included) or exported through `__all__`.  `__init__.py` is skipped by the
import check: it imports only to re-export.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polydet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(exported(tree))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def exported(tree: ast.Module) -> list[str]:
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.extend(ast.literal_eval(node.value))
    return names


def definitions(tree: ast.Module) -> set[str]:
    """Names that top-level def, class and assignment statements bind."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return bound


def unbound_exports(source: str) -> list[str]:
    """Names in `__all__` that no top-level statement binds."""
    tree = ast.parse(source)
    bound = definitions(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return [name for name in exported(tree) if name not in bound]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Top-level `_names` (dunders aside) that no module of sources reads:
    neither loaded as a name or attribute nor imported by name."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return [f"{mod}: {name}" for mod, tree in sorted(trees.items())
            for name in sorted(definitions(tree))
            if name.startswith("_") and not name.startswith("__")
            and name not in used]


def test_checker_flags_an_unused_import():
    src = "import io\nimport os\nfrom math import pi, tau\n" \
          "__all__ = ['tau']\nprint(os.sep)\n"
    assert unused_imports(src) == ["line 1: io", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unbound_export():
    src = "from math import pi\nX: int = 1\nY, Z = 2, 3\n" \
          "def f(): pass\nclass C: pass\n" \
          "__all__ = ['pi', 'X', 'Z', 'f', 'C', 'Gone']\n"
    assert unbound_exports(src) == ["Gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    assert unbound_exports(path.read_text()) == []


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in ALL_MODULES}


def test_checker_flags_an_unreferenced_private():
    sources = package_sources()
    sources["determinants.py"] += "\n\ndef _orphan():\n    return _TWO_PI\n"
    sources["config.py"] += "\n_SPARE: int = 3\n"
    assert unreferenced_privates(sources) == ["config.py: _SPARE",
                                              "determinants.py: _orphan"]


def test_every_private_name_is_referenced():
    assert unreferenced_privates(package_sources()) == []


def unread_cfg(source: str) -> list[str]:
    """Top-level functions in `__all__` or named `_private` that take a
    `cfg` parameter but never read it (nested functions count as reads)."""
    tree = ast.parse(source)
    public = set(exported(tree))
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if name not in public and not (name.startswith("_")
                                       and not name.startswith("__")):
            continue
        args = node.args
        if not any(a.arg == "cfg" for a in
                   args.posonlyargs + args.args + args.kwonlyargs):
            continue
        if not any(isinstance(n, ast.Name) and n.id == "cfg"
                   and isinstance(n.ctx, ast.Load) for n in ast.walk(node)):
            out.append(name)
    return out


def test_checker_flags_an_unread_cfg():
    src = "__all__ = ['f', 'g']\n" \
          "def f(x, cfg=None):\n    return x\n" \
          "def g(x, cfg=None):\n    return (lambda: cfg.tol)()\n" \
          "def _h(x, *, cfg):\n    return x\n" \
          "def k(x, cfg=None):\n    return x\n"
    assert unread_cfg(src) == ["f", "_h"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cfg_parameter_is_read(path):
    assert unread_cfg(path.read_text()) == []


def config_imports(source: str) -> list[str]:
    """Imports of `polydet.config` or of names from it, relative or
    absolute, as "line n: module" entries."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
            if node.level and not node.module:   # from . import config
                mods = [a.name for a in node.names]
            mods = [("polydet." if node.level else "") + m for m in mods]
        elif isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        else:
            continue
        out.extend(f"line {node.lineno}: {m}" for m in mods
                   if m == "polydet.config"
                   or m.startswith("polydet.config."))
    return out


def test_checker_flags_a_config_import():
    src = "from .config import DEFAULT_CONFIG\nfrom . import config\n" \
          "import polydet.config\nfrom polydet.config import EvalConfig\n" \
          "from .configure import x\nfrom . import errors\n"
    assert config_imports(src) == [f"line {n}: polydet.config"
                                   for n in (1, 2, 3, 4)]


def cfg_takers(source: str) -> list[str]:
    """Functions, nested ones included, that take a `cfg` parameter."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(a.arg == "cfg" for a in node.args.posonlyargs
                    + node.args.args + node.args.kwonlyargs)]


# the one path that takes a config: a tighter direct route, down to the
# quadrature loop; every other function reads the quadrature's constants
CFG_TAKERS = {"determinants.py": ["_ray", "determinant_direct"],
              "quadrature.py": ["_refine", "integrate_polyline"]}


@pytest.mark.parametrize("name", ["special_functions.py", "zero_data.py",
                                  "verification.py", "cli.py",
                                  "l_functions.py", "poly_l.py",
                                  "determinants.py", "quadrature.py"])
def test_kernel_and_scans_take_no_config(name):
    source = (SRC / name).read_text()
    assert config_imports(source) == []
    assert sorted(cfg_takers(source)) == CFG_TAKERS.get(name, [])
