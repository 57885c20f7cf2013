"""The code-line budget of the package: src/frachp may hold at most
CEILING code lines, counted with `ast` as the lines that are not blank, not
comments and not docstrings (run with `pytest tests/test_code_size.py -s`
to see the count, in total and per module)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "frachp"
CEILING = 1094


def docstring_lines(tree):
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def test_code_lines_within_ceiling():
    counts = {path.name: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    count = sum(counts.values())
    print(f"src/frachp: {count} code lines (ceiling {CEILING})")
    for name, lines in counts.items():
        print(f"  {name:<14} {lines:4d}")
    assert count <= CEILING
