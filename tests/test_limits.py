"""Every cap refusal goes through `config.Limits.check`: it is the one place
a CapExceeded is built, and every cap field is named at some call of it."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from pointfree.config import Limits
from pointfree.errors import CapExceeded

SRC = Path(__file__).resolve().parents[1] / "src" / "pointfree"
BUDGETS = {"bnb_node_budget"}  # exhausted with exit 3, not refused as a cap


def constructions(tree):
    """The dotted name of the class and function around each `CapExceeded(`
    call in a module's syntax tree ('' at module level)."""
    out = []

    def visit(node, scope):
        if isinstance(node, ast.Call) and "CapExceeded" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            out.append(".".join(scope))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope += (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return out


def checked_fields(tree):
    """The string literals passed as the field of a `.check(what, size,
    field)` call in a module's syntax tree."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "check"):
            args = node.args[2:] + [k.value for k in node.keywords
                                    if k.arg == "field"]
            out |= {a.value for a in args if isinstance(a, ast.Constant)
                    and isinstance(a.value, str)}
    return out


def trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def test_cap_exceeded_is_built_only_in_limits_check():
    assert [(name, site) for name, tree in trees().items()
            for site in constructions(tree)] == [("config.py", "Limits.check")]


def test_every_cap_field_is_named_at_a_refusal_site():
    named = set().union(*map(checked_fields, trees().values()))
    assert named == {f.name for f in fields(Limits)} - BUDGETS


def test_the_guards_see_each_kind_of_site():
    src = ("raise CapExceeded('a', 1, 0, 'x')\n"
           "class K:\n    def f(self):\n        raise errors.CapExceeded()\n"
           "def g(limits, field):\n"
           "    limits.check('a', 1, 'poset_cap')\n"
           "    limits.check('b', 2, field='degree_cap')\n"
           "    limits.check('c', 3, field)\n"
           "    other.check('d')\n")
    tree = ast.parse(src)
    assert constructions(tree) == ["", "K.f"]
    assert checked_fields(tree) == {"poset_cap", "degree_cap"}


def test_check_refuses_only_past_the_cap_and_names_the_field():
    limits = Limits(poset_cap=3)
    limits.check("poset", 3, "poset_cap")
    with pytest.raises(CapExceeded, match=r"^poset has size 4, exceeding cap "
                       r"3 \(poset_cap\)$") as err:
        limits.check("poset", 4, "poset_cap")
    assert (err.value.what, err.value.size, err.value.cap) == ("poset", 4, 3)
