"""Source layout checks: no relative import hides inside a function body."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spingarch"


class _FunctionImports(ast.NodeVisitor):
    def __init__(self):
        self.stack = []
        self.found = []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ImportFrom(self, node):
        if node.level and self.stack:
            self.found.append((self.stack[-1], node.lineno))


def test_no_function_level_relative_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    offenders = []
    for path in paths:
        finder = _FunctionImports()
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        offenders += [f"{path.name}:{line} in {func}()" for func, line in finder.found]
    assert not offenders, "relative imports inside functions: " + ", ".join(offenders)
