"""Every exact rank in the package is taken of fresh rows.

``_kernels.exact_rank_int`` spends the rows it ranks, so a caller that
kept them would read them after they were spent.  No module in ``src/``
refers to the kernel but ``linsys.rank_exact``, and every call of
``rank_exact`` in ``src/`` ranks a system that ``assemble_system`` builds
in the same expression.  The checks read the sources with ``ast``, so they
import nothing.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quiverstrata"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _name(node) -> str | None:
    """The name a ``Name`` or ``Attribute`` node refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scoped(tree):
    """(name of the innermost enclosing function or None, node) for every
    node under ``tree``."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield inner, child
            yield from walk(child, inner)
    yield from walk(tree, None)


def kernel_uses(source: str) -> list[str]:
    """The functions (None at module level) that refer to ``exact_rank_int``."""
    return [scope for scope, node in _scoped(ast.parse(source))
            if _name(node) == "exact_rank_int"]


def unassembled_ranks(source: str) -> list[int]:
    """The lines of calls to ``rank_exact`` whose argument is not a call
    to ``assemble_system``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _name(node.func) == "rank_exact"
            and not (len(node.args) == 1 and not node.keywords
                     and isinstance(node.args[0], ast.Call)
                     and _name(node.args[0].func) == "assemble_system")]


def test_checkers_find_a_kept_system():
    source = ("from . import _kernels\n"
              "kernel = _kernels.exact_rank_int\n"
              "def codim(cs):\n"
              "    rank = rank_exact(cs)\n"
              "    return rank + rank_exact(assemble_system(1, [], 2, 2))\n"
              "def rank_exact(cs):\n"
              "    return _kernels.exact_rank_int(cs.rows)\n")
    assert kernel_uses(source) == [None, "rank_exact"]
    assert unassembled_ranks(source) == [4]


def test_only_rank_exact_calls_the_kernel():
    uses = {path.name: kernel_uses(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: scopes for name, scopes in uses.items() if scopes} == {
        "linsys.py": ["rank_exact"]}


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in SOURCES])
def test_every_rank_is_of_a_fresh_assembly(path):
    assert unassembled_ranks(path.read_text(encoding="utf-8")) == []
