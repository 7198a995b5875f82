"""The package keeps to Python 3.10, the floor `requires-python` declares:
every module parses with the 3.10 grammar, and no regular expression uses
a possessive quantifier or an atomic group, which `re` accepts only from
3.11 on (on 3.10 the pattern fails to compile when the module loads)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pointfree"
FLOOR = (3, 10)
RE_FUNCTIONS = {"compile", "search", "match", "fullmatch", "split",
                "findall", "finditer", "sub", "subn"}


def new_regex_syntax(pattern):
    """The possessive quantifiers (`*+`, `++`, `?+`) and atomic groups
    (`(?>`) in a pattern, skipping escapes and character classes."""
    found, i, in_class = [], 0, False
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            i += 2
            continue
        if in_class:
            in_class = c != "]"
        elif c == "[":
            in_class = True
            if pattern[i + 1:i + 2] == "]":  # a leading ] is a member
                i += 1
        elif pattern.startswith("(?>", i):
            found.append("(?>")
        elif c in "*+?" and pattern[i + 1:i + 2] == "+":
            found.append(c + "+")
            i += 1
        i += 1
    return found


def regex_literals(tree):
    """(line, pattern) for each string passed as the pattern of a call to
    a function of the `re` module."""
    return [(node.lineno, node.args[0].value) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re" and node.func.attr in RE_FUNCTIONS
            and node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_module_keeps_to_python_3_10(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path), feature_version=FLOOR)
    assert [(line, p, new_regex_syntax(p)) for line, p in regex_literals(tree)
            if new_regex_syntax(p)] == []


def test_the_package_has_regex_literals_to_check():
    assert sum(len(regex_literals(ast.parse(p.read_text(encoding="utf-8"))))
               for p in SRC.glob("*.py")) >= 4


def test_the_guard_sees_each_kind_of_new_syntax():
    assert new_regex_syntax(r"a*+b++c?+(?>d)") == ["*+", "++", "?+", "(?>"]
    assert new_regex_syntax(r"a+?b*?\++[*+]+(?:x)+[]+]+\(?>") == []
    src = 'import re\nX = re.compile(r"[0-9]++")\nre.sub("a", "b", s)\n'
    assert regex_literals(ast.parse(src)) == [(2, "[0-9]++"), (3, "a")]
