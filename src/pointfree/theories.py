"""A small language of propositional geometric theories.

Theories are built from basic propositions (optionally indexed over bounded
integer ranges) and sequents whose left side is a finite conjunction and
whose right side is a finite disjunction of finite conjunctions.  Negation
and implication are rejected: only the geometric fragment compiles to a
frame presentation.
"""

import re
from dataclasses import dataclass
from itertools import chain, product
from math import prod

from .config import DEFAULT
from .errors import CapExceeded, ParseError
from .frames import PresentedFrame
from .presentations import TOP_MEET, FramePresentation, stabilize


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class PropFamily:
    name: str
    bounds: tuple  # one bound per index position: an int or a symbolic name


@dataclass(frozen=True)
class Atom:
    name: str
    indices: tuple  # ints or index-variable names

    def __str__(self):
        return self.name + "".join(f"[{i}]" for i in self.indices)


@dataclass(frozen=True)
class Axiom:
    lhs: tuple      # conjunction of Atoms; empty tuple means `true`
    rhs: tuple      # tuple of conjunctions (tuples of Atoms); empty = `false`
    binders: tuple  # universal index binders ((var, bound), ...)
    conds: tuple    # ((left, op, right), ...) with op in != == < <=
    joins: tuple = ()  # disjunction binders: rhs ranges over these too

    def __str__(self):
        lhs = " & ".join(map(str, self.lhs)) if self.lhs else "true"
        rhs = (" | ".join(" & ".join(map(str, c)) for c in self.rhs)
               if self.rhs else "false")
        if self.joins:
            rhs = ("some " + ", ".join(f"{v}<{b}" for v, b in self.joins)
                   + ". " + rhs)
        out = f"axiom {lhs} |- {rhs}"
        if self.binders:
            out += " for " + ", ".join(f"{v}<{b}" for v, b in self.binders)
        if self.conds:
            out += " if " + ", ".join(f"{a}{op}{b}" for a, op, b in self.conds)
        return out + ";"


@dataclass(frozen=True)
class TheoryAST:
    families: tuple
    axioms: tuple


# --- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<sym>\|-|<=|!=|==|[;,.\[\]&|<])
  | (?P<rej>->|=>|[~!])
  | (?P<bad>.)
""", re.VERBOSE)

_REJECTED = {"~": "negation", "->": "implication", "=>": "implication",
             "!": "negation"}


def _line_col(text, off):
    """1-based line and column of an offset, computed only for an error."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _tokenize(text):
    """(kind, text, offset) per token, then ("eof", "", len(text))."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        s = m.group()
        if kind == "rej" or kind == "bad":
            raise ParseError(
                f"{_REJECTED[s]} is outside the geometric fragment"
                if kind == "rej" else f"unexpected character {s!r}",
                *_line_col(text, m.start()))
        toks.append((kind, s, m.start()))
    toks.append(("eof", "", len(text)))
    return toks


_COMPARISONS = ("!=", "==", "<", "<=")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.toks[self.i]
        raise ParseError(msg, *_line_col(self.text, tok[2]))

    def expect(self, text):
        t = self.next()
        if t[1] != text:
            self.fail(f"expected {text!r}, found {t[1] or 'end of input'!r}",
                      t)

    def at(self, text):
        return self.toks[self.i][1] == text

    def skip(self, text):
        """Consume the next token if it is text."""
        if self.toks[self.i][1] != text:
            return False
        self.i += 1
        return True

    def listof(self, item, sep=","):
        """One or more items separated by sep."""
        out = [item()]
        while self.skip(sep):
            out.append(item())
        return tuple(out)

    # grammar ------------------------------------------------------------

    def theory(self):
        """The TheoryAST, checked once all is read, so a family may follow
        the axioms that use it: duplicate families, then each axiom in source
        order.  Each error is raised at its token, looked up only then."""
        families, axioms = [], []
        while self.toks[self.i][0] != "eof":
            if self.at("prop"):
                families.extend(self.propdecl())
            elif self.at("axiom"):
                axioms.append(self.axiom())
            else:
                self.fail("expected 'prop' or 'axiom'")
        fams = {}
        for f, t in families:
            if f.name in fams:
                self.fail(f"duplicate proposition family {f.name!r}", t)
            fams[f.name] = f.bounds
        return TheoryAST(tuple(f for f, _ in families),
                         tuple([self.resolve(fams, *ax) for ax in axioms]))

    def propdecl(self):
        """(PropFamily, name token) per signature."""
        self.expect("prop")
        sigs = self.listof(self.famsig)
        binders = dict(self.listof(self.binder)) if self.skip("for") else {}
        self.expect(";")
        for _, vars_ in sigs:
            for v in vars_:
                if v[1] not in binders:
                    self.fail(f"unbound index {v[1]!r} in prop declaration", v)
        return [(PropFamily(t[1], tuple(binders[v[1]] for v in vars_)), t)
                for t, vars_ in sigs]

    def famsig(self):
        """The name token and the index-variable tokens of a signature."""
        t = self.next()
        if t[0] != "name":
            self.fail("expected proposition name", t)
        vars_ = []
        while self.skip("["):
            v = self.next()
            if v[0] != "name":
                self.fail("prop declaration indices must be variables", v)
            vars_.append(v)
            self.expect("]")
        return t, vars_

    def axiom(self):
        """(first token, lhs, rhs, binders, conds, joins), not checked."""
        start = self.i
        self.expect("axiom")
        lhs = self.conjunction()
        self.expect("|-")
        joins = ()
        if self.skip("some"):
            joins = self.listof(self.binder)
            self.expect(".")
        rhs = self.disjunction()
        binders = self.listof(self.binder) if self.skip("for") else ()
        conds = self.listof(self.cond) if self.skip("if") else ()
        self.expect(";")
        return start, lhs, rhs, binders, conds, joins

    def conjunction(self):
        if self.toks[self.i][1] == "true":
            self.i += 1
            return ()
        atoms = [self.atom()]
        while self.toks[self.i][1] == "&":
            self.i += 1
            atoms.append(self.atom())
        return tuple(atoms)

    def disjunction(self):
        if self.skip("false"):
            return ()
        terms = self.listof(self.conjunction, "|")
        if () in terms:
            self.fail("'true' cannot appear inside a disjunction")
        return terms

    def atom(self):
        t = self.toks[self.i]
        self.i += 1
        if t[0] != "name" or t[1] in ("true", "false"):
            self.fail("expected an atomic proposition", t)
        if self.toks[self.i][1] != "[":
            return Atom(t[1], ())
        idx = []
        while self.skip("["):
            idx.append(self.iexpr())
            self.expect("]")
        return Atom(t[1], tuple(idx))

    def iexpr(self, what="an index variable or integer"):
        kind, text, _ = t = self.next()
        if kind == "int":
            return int(text)
        if kind != "name":
            self.fail(f"expected {what}", t)
        return text

    def binder(self):
        v = self.next()
        if v[0] != "name":
            self.fail("expected an index variable", v)
        self.expect("<")
        return v[1], self.iexpr("a bound (name or integer)")

    def cond(self):
        a = self.iexpr()
        t = self.next()
        if t[1] not in _COMPARISONS:
            self.fail("expected a comparison (!=, ==, <, <=)", t)
        return (a, t[1], self.iexpr())

    # checks -------------------------------------------------------------

    def resolve(self, fams, start, lhs, rhs, binders, conds, joins):
        """Check an axiom's binders, each atom (known family, index count,
        no `some` variable on the left) and its side conditions, inferring
        the universal binders it leaves implicit from the families' bounds."""
        explicit = some = {}
        inferred = {}
        if binders or joins:
            names = [v for v, _ in joins + binders]
            if len(set(names)) != len(names):
                n = next(n for n, v in enumerate(names) if v in names[:n])
                self.fail("duplicate index binder", self._index_tok(start, n))
            explicit, some = dict(binders), dict(joins)
        for atom in chain(lhs, *rhs):
            bounds = fams.get(atom.name)
            if bounds is None or len(bounds) != len(atom.indices):
                self.fail(f"unknown proposition {atom.name!r}" if bounds is None
                          else f"wrong index count on {atom.name!r}",
                          self._atom_tok(start, lhs, rhs, atom))
            if not bounds:
                continue
            for i, b in zip(atom.indices, bounds):
                if isinstance(i, int) or i in explicit:
                    continue
                if i in some:
                    if atom in lhs:
                        self.fail(f"unbound index {i!r}",
                                  self._atom_tok(start, lhs, rhs, atom))
                elif inferred.setdefault(i, b) != b:
                    self.fail(f"index {i!r} used with conflicting bounds "
                              f"{inferred[i]!r} and {b!r}",
                              self._atom_tok(start, lhs, rhs, atom))
        for m, (a, _, b) in enumerate(conds, len(joins) + len(binders)):
            for i in (a, b):
                if not (isinstance(i, int) or i in explicit or i in inferred):
                    self.fail(f"unbound index {i!r} in side condition",
                              self._index_tok(start, m))
        return Axiom(lhs, rhs, (*binders, *inferred.items()), conds, joins)

    def _atom_tok(self, start, lhs, rhs, atom):
        """The name token of atom's first occurrence in the axiom at token
        start.  The atoms are the names after `axiom`, `|-`, `.`, `&` and
        `|`, other than `true`, `false` and the `some` keyword."""
        toks = self.toks[start:]
        return [t for p, t in zip(toks, toks[1:])
                if p[1] in ("axiom", "|-", ".", "&", "|")
                and t[1] not in ("true", "false")
                and (p[1], t[1]) != ("|-", "some")
                ][[*lhs, *chain(*rhs)].index(atom)]

    def _index_tok(self, start, n):
        """The n-th token before a comparison in the axiom at token start:
        `some`, then `for` binder variables, then conditions' first indices."""
        toks = self.toks[start:]
        return [t for t, c in zip(toks, toks[1:]) if c[1] in _COMPARISONS][n]


def parse_theory(text):
    return _Parser(text).theory()


def pretty_print(ast):
    lines = []
    for f in ast.families:
        vars_ = [chr(ord("i") + k) for k in range(len(f.bounds))]
        sig = f.name + "".join(f"[{v}]" for v in vars_)
        if f.bounds:
            sig += " for " + ", ".join(f"{v}<{b}"
                                       for v, b in zip(vars_, f.bounds))
        lines.append(f"prop {sig};")
    for ax in ast.axioms:
        lines.append(str(ax))
    return "\n".join(lines) + "\n"


# --- compilation --------------------------------------------------------------

_CMP = {"!=": lambda a, b: a != b, "==": lambda a, b: a == b,
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b}


def generator_name(family, indices):
    return family + "_".join(str(i) for i in indices)


def _resolve_bound(b, trunc):
    if isinstance(b, int):
        n = b
    else:
        if b not in trunc:
            raise ParseError(f"missing truncation bound for {b!r}")
        n = trunc[b]
    if n < 1:
        raise ParseError(f"truncation bound must be strictly positive, got {n}")
    return n


def instantiate(ast, trunc=None, limits=DEFAULT):
    """The presentation of every schema over its finite index ranges, not
    stabilized.  The generators are counted against generator_cap before
    any is named, and the instances against axiom_instance_cap before any
    is built: each axiom has one per value of its `for` binders, and each
    of those joins one right side per value of its `some` binders.  A
    truncation binding that names no bound of the theory is a ParseError."""
    trunc = trunc or {}
    named = {b for f in ast.families for b in f.bounds}
    named |= {b for ax in ast.axioms for _, b in ax.binders + ax.joins}
    for name in trunc:
        if name not in named:
            raise ParseError(f"truncation binding {name!r} names no bound "
                             "of the theory")
    bounds = [[_resolve_bound(b, trunc) for b in f.bounds]
              for f in ast.families]
    count = sum(prod(bs) for bs in bounds)  # checked before naming any
    if count > limits.generator_cap:
        raise CapExceeded("generators", count, limits.generator_cap)
    gens = [generator_name(f.name, idx) for f, bs in zip(ast.families, bounds)
            for idx in product(*map(range, bs))]
    if len(set(gens)) != len(gens):
        raise ParseError("instantiated generator names collide")
    spans = [([_resolve_bound(b, trunc) for _, b in ax.binders],
              [_resolve_bound(b, trunc) for _, b in ax.joins])
             for ax in ast.axioms]
    instances = sum(prod(ns) * prod(js) for ns, js in spans)
    if instances > limits.axiom_instance_cap:
        raise CapExceeded("axiom instances", instances,
                          limits.axiom_instance_cap, field="axiom_instance_cap")
    covers = set()
    for ax, (ns, js) in zip(ast.axioms, spans):
        if not (ax.binders or ax.joins or ax.conds):  # its one instance
            covers.add((frozenset(_atom_gen(a, {}) for a in ax.lhs)
                        or TOP_MEET,
                        frozenset(frozenset(_atom_gen(a, {}) for a in c)
                                  for c in ax.rhs)))
            continue
        names = [v for v, _ in ax.binders]
        jnames = [v for v, _ in ax.joins]
        for values in product(*map(range, ns)):
            env = dict(zip(names, values))
            if not all(_CMP[op](_subst(a, env), _subst(b, env))
                       for a, op, b in ax.conds):
                continue
            lhs = frozenset(_atom_gen(a, env) for a in ax.lhs) or TOP_MEET
            rhs = set()
            for jvalues in product(*map(range, js)):
                jenv = dict(env, **dict(zip(jnames, jvalues)))
                rhs |= {frozenset(_atom_gen(a, jenv) for a in c)
                        for c in ax.rhs}
            covers.add((lhs, frozenset(rhs)))
    return FramePresentation.make(gens, covers)


def compile_theory(ast, trunc=None, limits=DEFAULT):
    """Instantiate every schema over its finite index ranges and stabilize."""
    return stabilize(instantiate(ast, trunc, limits=limits), limits=limits)


def _subst(i, env):
    return env[i] if isinstance(i, str) else i


def _atom_gen(atom, env):
    if not atom.indices:
        return atom.name
    return generator_name(atom.name, [_subst(i, env) for i in atom.indices])


def models(ast, trunc=None, limits=DEFAULT):
    """Points of the compiled frame, read back as truth assignments: the
    models of the instantiated covers, which need no stabilizing."""
    p = instantiate(ast, trunc=trunc, limits=limits)
    return [{g: g in true for g in p.generators}
            for true in PresentedFrame(p, limits=limits).points()]


# --- builtin theories ---------------------------------------------------------

def builtin(name, **params):
    if name == "sierpinski":
        return TheoryAST((PropFamily("a", ()),), ())
    if name == "cantor":
        z, u = Atom("z", ("i",)), Atom("u", ("i",))
        return TheoryAST(
            (PropFamily("z", ("N",)), PropFamily("u", ("N",))),
            (Axiom((z, u), (), (("i", "N"),), ()),
             Axiom((), ((z,), (u,)), (("i", "N"),), ())))
    if name == "stone":
        return _stone_theory(params["lattice"])
    if name == "surjection":
        return _surjection_theory(params["n"], params["x"])
    raise ParseError(f"unknown builtin theory {name!r}")


def stone_prop_name(element):
    """Basic proposition meaning `element` belongs to the prime filter."""
    return "f_" + re.sub(r"[^A-Za-z0-9_]", "_", str(element))


def _stone_theory(lattice):
    """Prime-filter theory of a bounded distributive lattice: membership of
    top, both directions of meet- and join-compatibility, exclusion of
    bottom."""
    names = {e: stone_prop_name(e) for e in lattice.elements}
    if len(set(names.values())) != len(names):
        raise ParseError("lattice element names collide after sanitizing")
    fams = tuple(PropFamily(names[e], ()) for e in lattice.elements)

    def at(e):
        return Atom(names[e], ())

    axioms = {Axiom((), ((at(lattice.top),),), (), ()),
              Axiom((at(lattice.bottom),), (), (), ())}
    for a in lattice.elements:
        for b in lattice.elements:
            m, j = lattice.meet(a, b), lattice.join(a, b)
            axioms.add(Axiom((at(a), at(b)), ((at(m),),), (), ()))
            axioms.add(Axiom((at(m),), ((at(a), at(b)),), (), ()))
            axioms.add(Axiom((at(j),), ((at(a),), (at(b),)), (), ()))
            axioms.add(Axiom((at(a),), ((at(j),),), (), ()))
    return TheoryAST(fams, tuple(sorted(axioms, key=str)))


def _surjection_theory(n, x):
    """Models are surjections [n] -> [x]: the relation p[i][v] is functional,
    total, and hits every value."""
    fam = PropFamily("p", (n, x))
    axioms = (
        Axiom((Atom("p", ("i", "v")), Atom("p", ("i", "w"))), (),
              (("i", n), ("v", x), ("w", x)), (("v", "!=", "w"),)),
        Axiom((), ((Atom("p", ("i", "v")),),), (("i", n),), (),
              joins=(("v", x),)),
        Axiom((), ((Atom("p", ("i", "v")),),), (("v", x),), (),
              joins=(("i", n),)))
    return TheoryAST((fam,), axioms)
