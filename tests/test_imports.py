"""Every module-level import in the package and in the test modules is
used in its module, the formula sweep builds on the exact engine alone,
the exact engine imports nothing from ``fractions``, and the package
memoizes only the functions on a short list.

The package re-exports its public names from ``__init__``, so that file is
skipped, as are ``from __future__`` imports.  A name listed in a module's
``__all__`` counts as used.  The checks read the sources with ``ast``, so
they import nothing.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "quiverstrata"


def _bound_names(node):
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.partition(".")[0]
        else:
            yield alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):  # names inside quoted annotations
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _bound_names(node):
                imported[name] = node.lineno
    used = _used_names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from typing import Optional, Sequence as Seq\n"
              "__all__ = ['f']\n"
              "def f(x: 'Optional[int]') -> int:\n"
              "    return math.floor(x)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: Seq"]


@pytest.mark.parametrize("path", [
    *(pytest.param(p, id=p.name) for p in sorted(PACKAGE.glob("*.py"))
      if p.name != "__init__.py"),
    *(pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py")))])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from the package itself
            module = ".".join(filter(None, ["quiverstrata" if node.level else "",
                                            node.module]))
            names = ([f"{module}.{alias.name}" for alias in node.names]
                     if module == "quiverstrata" else [module])
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("quiverstrata."))
    return found


def test_package_import_finder():
    source = ("import math\n"
              "from . import quiver\n"
              "from .linsys import rank_exact\n"
              "def f():\n"
              "    from quiverstrata.families import build_family\n"
              "    import quiverstrata.strata\n"
              "    from quiverstrata import cli\n")
    assert package_imports(source) == {"quiver", "linsys", "families", "strata", "cli"}


def test_formulas_imports_only_the_engine():
    """The sweep states its split terms directly: it builds no quiver,
    path, relation or presentation."""
    source = (PACKAGE / "formulas.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"linsys"}


def _imported_modules(source: str) -> set[str]:
    """Every module that ``source`` imports by absolute name, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
    return found


@pytest.mark.parametrize("name", ["linsys.py", "_kernels.py"])
def test_exact_engine_imports_no_fractions(name):
    """The exact engine takes integer terms: rational coefficients become
    integers before they reach it, so it needs no ``Fraction``."""
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert "fractions" not in {m.split(".")[0] for m in _imported_modules(source)}


# the functions the package may memoize: each holds small values, or is
# bounded, and none holds a Jordan-type listing, which a command's
# ``PartPairTable`` keeps for as long as the command runs
CACHED = {"partitions.count_partitions_bounded", "cli.build_parser"}


def cached_functions(source: str) -> set[str]:
    """The functions in ``source`` decorated with ``functools.cache`` or
    ``functools.lru_cache``, called or not, under any import of them."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else \
                    getattr(target, "id", None)
                if name in ("cache", "lru_cache"):
                    found.add(node.name)
    return found


def test_cache_finder():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@functools.cache\n"
              "def a(): pass\n"
              "@functools.lru_cache(maxsize=4)\n"
              "def b(): pass\n"
              "class C:\n"
              "    @cache\n"
              "    def c(self): pass\n"
              "@lru_cache\n"
              "def d(): pass\n"
              "@property\n"
              "def e(): pass\n")
    assert cached_functions(source) == {"a", "b", "c", "d"}


def test_package_memoizes_only_the_listed_functions():
    found = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
             for name in cached_functions(path.read_text(encoding="utf-8"))}
    assert found <= CACHED, sorted(found - CACHED)
