"""The core computes in integers and Fractions only: no float literal, no
`float`, and from `math` only its exact integer functions."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pointfree"
EXACT_MATH = {"isqrt", "gcd", "lcm", "prod", "comb"}


def float_uses(tree):
    """(line, what) for every float in a module's syntax tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            out.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append((node.lineno, "float"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            out.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [(node.lineno, f"from math import {a.name}")
                    for a in node.names if a.name not in EXACT_MATH]
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_floats_in_the_core(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert float_uses(tree) == []


def test_the_guard_sees_each_kind_of_float():
    src = ("x = 0.5\ny = float(3)\nimport math\nz = math.sqrt(2)\n"
           "w = math.isqrt(2) + math.lcm(2, 3)\nfrom math import prod, floor\n")
    assert float_uses(ast.parse(src)) == [
        (1, "literal 0.5"), (2, "float"), (4, "math.sqrt"),
        (6, "from math import floor")]
