"""Every definition in `src/pointfree` has a caller on the library's surface:
the CLI (`cli.main`), the acceptance gate (`tests/test_acceptance.py` and
the helpers it imports, `conftest.py` and `test_order.all_posets`) or a
function or method the bench tracer wraps (`bench/tracing.py` LAYERS and
METHODS).  Code that only its own tests reach is deleted, not kept.

Reachability is by name over the ASTs.  A name resolves through its
module's definitions and `from` imports, those inside a function body
included; `module.name` through a module alias; any other `.attr` reaches
every method of that name on a reached class.  `__init__` and
`__post_init__` are reached with their class, and module dunders such as
`__version__` count as reached.  Any other dunder method is run by
Python, not named, so it is reached with its class only when IMPLICIT
names the library caller that invokes it (by an operator, `str`, a call
or a missing key), and that caller must be reached itself.
Top-level defs, classes, methods and assigned names are checked.
"""

import ast

from test_tracing import ROOT, load_tracing

SRC = ROOT / "src" / "pointfree"
TESTS = ROOT / "tests"
CONSTRUCTORS = {"__init__", "__post_init__"}
# dunder method -> the caller in src/pointfree that invokes it implicitly
IMPLICIT = {
    "presentations.CIdeal.__le__": "cli.cmd_frame",
    "presentations.CIdeal.__str__": "cli.cmd_frame",
    "theories.Axiom.__str__": "theories.pretty_print",
    "theories.Atom.__str__": "theories.Axiom.__str__",
    "cli._Once.__call__": "cli.build_parser",
    "order._ElementMap.__missing__": "order.DistLattice.j_below",
}


class Program:
    """The definitions of some modules, {module name: source text}, and
    the references between them."""

    def __init__(self, sources):
        self.defs, self.methods, self.imports, self.aliases = {}, {}, {}, {}
        self.module_code = []  # (module, statement) run on import
        for mod, text in sources.items():
            for node in ast.parse(text).body:
                self._top(mod, node)

    def _top(self, mod, node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self.read_import(mod, node)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            self.defs[mod, node.name] = node
            for inner in ast.walk(node):  # imports run when the body runs
                self.read_import(mod, inner)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        self.methods[mod, node.name, item.name] = item
        elif (isinstance(node, (ast.Assign, ast.AnnAssign))
              and all(isinstance(t, ast.Name) for t in _targets(node))):
            for t in _targets(node):
                self.defs[mod, t.id] = node
        elif not (isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)):
            self.module_code.append((mod, node))

    def read_import(self, mod, node):
        """Record `from .m import x` and `from pointfree.m import x` as
        names, and `from . import m` and `from pointfree import m` as
        module aliases."""
        if not isinstance(node, ast.ImportFrom):
            return
        source = node.module or ""
        if node.level == 0 and not source.startswith("pointfree"):
            return
        source = source.removeprefix("pointfree").lstrip(".")
        for a in node.names:
            if source:
                self.imports.setdefault(mod, {})[a.asname or a.name] = (
                    source, a.name)
            else:
                self.aliases.setdefault(mod, {})[a.asname or a.name] = a.name

    def resolve(self, mod, name):
        """The definition that `name` means in `mod`, or None."""
        while (mod, name) not in self.defs:
            if name not in self.imports.get(mod, {}):
                return None
            mod, name = self.imports[mod][name]
        return mod, name

    def references(self, mod, *nodes):
        """(definitions, attribute names) that some nodes mention."""
        found, attrs = set(), set()
        for n in (n for node in nodes for n in ast.walk(node)):
            if isinstance(n, ast.Name):
                found.add(self.resolve(mod, n.id))
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
                if (isinstance(n.value, ast.Name)
                        and n.value.id in self.aliases.get(mod, {})):
                    found.add(self.resolve(self.aliases[mod][n.value.id],
                                           n.attr))
        found.discard(None)
        return found, attrs

    def unreached(self, roots, attrs=(), methods=(), implicit=()):
        """Definitions and methods not reached from the root definitions,
        root attribute names and root methods, as dotted names; the
        dunder methods in implicit (dotted names) are reached with their
        class."""
        reached, seen_methods, methods = set(), set(), set(methods)
        attrs, todo = set(attrs), [self.resolve(*r) for r in roots]
        todo += [(m, c) for m, c, _ in methods]
        for mod, node in self.module_code:
            self._visit(mod, node, todo, attrs)
        while True:
            while todo:
                key = todo.pop()
                if key is not None and key not in reached:
                    reached.add(key)
                    self._visit(key[0], self.defs[key], todo, attrs)
            fresh = [k for k in self.methods if k not in seen_methods and (
                k in methods or k[:2] in reached
                and (k[2] in CONSTRUCTORS or ".".join(k) in implicit
                     if _dunder(k[2]) else k[2] in attrs))]
            if not fresh:
                break
            for key in fresh:
                seen_methods.add(key)
                self._visit(key[0], self.methods[key], todo, attrs)
        return sorted([".".join(k) for k in self.defs
                       if k not in reached and not _dunder(k[1])]
                      + [".".join(k) for k in self.methods
                         if k not in seen_methods])

    def _visit(self, mod, node, todo, attrs):
        nodes = [node]
        if isinstance(node, ast.ClassDef):
            # the class body without its methods, which are reached by name
            nodes = [s for s in node.body if not isinstance(s, ast.FunctionDef)
                     ] + node.bases + node.keywords + node.decorator_list
        found, names = self.references(mod, *nodes)
        todo.extend(found)
        attrs |= names


def _targets(node):
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def surface():
    """The program of src/pointfree, and its roots: (definitions, attribute
    names, methods)."""
    program = Program({p.stem: p.read_text()
                       for p in sorted(SRC.glob("*.py"))})
    roots, attrs = [("cli", "main")], set()
    for name in ("test_acceptance", "conftest", "test_order"):
        tree = ast.parse((TESTS / f"{name}.py").read_text())
        for node in ast.walk(tree):
            program.read_import(name, node)
        nodes = [tree] if name != "test_order" else [
            node for node in tree.body
            if getattr(node, "name", None) == "all_posets"]
        found, names = program.references(name, *nodes)
        roots += found
        attrs |= names
    tracing = load_tracing()
    roots += [(layer, name) for layer, funcs in tracing.LAYERS.items()
              for name, _ in funcs]
    methods = [(layer, cls, meth)
               for layer, cls, meth, _, _ in tracing.METHODS]
    return program, roots, attrs, methods


def test_every_definition_in_src_is_reached():
    program, roots, attrs, methods = surface()
    assert ("cli", "main") in program.defs and ("order", "DistLattice",
                                                "__init__") in methods
    unreached = program.unreached(roots, attrs, methods, IMPLICIT)
    assert not unreached, (
        "reached neither from cli.main, the acceptance gate nor the bench "
        f"tracer: {', '.join(unreached)}")
    defined = {".".join(k) for k in [*program.defs, *program.methods]}
    for dunder, caller in IMPLICIT.items():  # so both are reached
        assert dunder in defined and caller in defined, (dunder, caller)


def test_the_walk_reports_what_no_root_reaches():
    program = Program({"m": (
        "from .n import helper\n"
        "LIMIT = helper()\n"
        "def used(x=LIMIT):\n    return C().meth()\n"
        "def unused():\n    return helper()\n"
        "class C:\n    def __post_init__(self): pass\n"
        "    def meth(self): pass\n    def other(self): pass\n"
        "    def __str__(self): pass\n    def __eq__(self, o): pass\n"),
        "n": "def helper():\n    return 1\ndef orphan():\n    pass\n"})
    assert program.unreached([("m", "used")], implicit={"m.C.__eq__"}) == [
        "m.C.__str__", "m.C.other", "m.unused", "n.orphan"]


def test_the_walk_follows_imports_inside_a_function():
    program = Program({
        "m": "def f():\n    from . import n\n    return n.g()\n"
             "def h():\n    from .n import k as kk\n    return kk()\n",
        "n": "def g():\n    pass\ndef k():\n    pass\ndef orphan():\n"
             "    pass\n"})
    assert program.unreached([("m", "f"), ("m", "h")]) == ["n.orphan"]
