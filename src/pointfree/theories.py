"""A small language of propositional geometric theories.

Theories are built from basic propositions (optionally indexed over bounded
integer ranges) and sequents whose left side is a finite conjunction and
whose right side is a finite disjunction of finite conjunctions.  Negation
and implication are rejected: only the geometric fragment compiles to a
frame presentation.
"""

import re
from dataclasses import dataclass
from itertools import product
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

    def __post_init__(self):
        fams = {}
        for f in self.families:
            if f.name in fams:
                raise ParseError(f"duplicate proposition family {f.name!r}")
            fams[f.name] = f
        for ax in self.axioms:
            universal = {v for v, _ in ax.binders}
            bound = universal | {v for v, _ in ax.joins}
            if len(bound) != len(ax.binders) + len(ax.joins):
                raise ParseError("duplicate index binder")

            def check_atom(atom, allowed):
                if atom.name not in fams:
                    raise ParseError(f"unknown proposition {atom.name!r}")
                if len(atom.indices) != len(fams[atom.name].bounds):
                    raise ParseError(f"wrong index count on {atom.name!r}")
                for i in atom.indices:
                    if isinstance(i, str) and i not in allowed:
                        raise ParseError(f"unbound index {i!r}")

            for atom in ax.lhs:
                check_atom(atom, universal)
            for conj in ax.rhs:
                for atom in conj:
                    check_atom(atom, bound)
            for a, _, b in ax.conds:
                for i in (a, b):
                    if isinstance(i, str) and i not in universal:
                        raise ParseError(f"unbound index {i!r} in side condition")


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

    # grammar ------------------------------------------------------------

    def theory(self):
        families, axioms = [], []
        while self.toks[self.i][0] != "eof":
            if self.at("prop"):
                families.extend(self.propdecl())
            elif self.at("axiom"):
                axioms.append(self.axiom())
            else:
                self.fail("expected 'prop' or 'axiom'")
        return families, axioms

    def propdecl(self):
        self.expect("prop")
        sigs = [self.famsig()]
        while self.at(","):
            self.next()
            sigs.append(self.famsig())
        binders = dict(self.binders()) if self.at("for") else {}
        self.expect(";")
        out = []
        for name, vars_ in sigs:
            bounds = []
            for v in vars_:
                if v not in binders:
                    self.fail(f"unbound index {v!r} in prop declaration")
                bounds.append(binders[v])
            out.append(PropFamily(name, tuple(bounds)))
        return out

    def famsig(self):
        t = self.next()
        if t[0] != "name":
            self.fail("expected proposition name", t)
        vars_ = []
        while self.at("["):
            self.next()
            v = self.next()
            if v[0] != "name":
                self.fail("prop declaration indices must be variables", v)
            vars_.append(v[1])
            self.expect("]")
        return t[1], vars_

    def axiom(self):
        self.expect("axiom")
        lhs = self.conjunction()
        self.expect("|-")
        joins = []
        if self.at("some"):
            self.next()
            joins = [self.binder()]
            while self.at(","):
                self.next()
                joins.append(self.binder())
            self.expect(".")
        rhs = self.disjunction()
        binders = self.binders() if self.at("for") else []
        conds = self.conds() if self.at("if") else []
        self.expect(";")
        return lhs, rhs, binders, conds, joins

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
        if self.at("false"):
            self.next()
            return ()
        terms = [self.conjunction()]
        while self.at("|"):
            self.next()
            terms.append(self.conjunction())
        for term in terms:
            if not term:
                self.fail("'true' cannot appear inside a disjunction")
        return tuple(terms)

    def atom(self):
        t = self.toks[self.i]
        self.i += 1
        if t[0] != "name" or t[1] in ("true", "false"):
            self.fail("expected an atomic proposition", t)
        if self.toks[self.i][1] != "[":
            return Atom(t[1], ())
        idx = []
        while self.at("["):
            self.next()
            idx.append(self.iexpr())
            self.expect("]")
        return Atom(t[1], tuple(idx))

    def iexpr(self):
        kind, text, _ = t = self.next()
        if kind == "int":
            return int(text)
        if kind == "name":
            return text
        self.fail("expected an index variable or integer", t)

    def binders(self):
        self.expect("for")
        out = [self.binder()]
        while self.at(","):
            self.next()
            out.append(self.binder())
        return out

    def binder(self):
        v = self.next()
        if v[0] != "name":
            self.fail("expected an index variable", v)
        self.expect("<")
        kind, text, _ = b = self.next()
        if kind == "int":
            return (v[1], int(text))
        if kind == "name":
            return (v[1], text)
        self.fail("expected a bound (name or integer)", b)

    def conds(self):
        self.expect("if")
        out = [self.cond()]
        while self.at(","):
            self.next()
            out.append(self.cond())
        return out

    def cond(self):
        a = self.iexpr()
        t = self.next()
        if t[1] not in ("!=", "==", "<", "<="):
            self.fail("expected a comparison (!=, ==, <, <=)", t)
        return (a, t[1], self.iexpr())


def parse_theory(text):
    families, raw_axioms = _Parser(text).theory()
    fam_by_name = {f.name: f for f in families}
    axioms = [_resolve_axiom(fam_by_name, *raw) for raw in raw_axioms]
    return TheoryAST(tuple(families), tuple(axioms))


def _resolve_axiom(fams, lhs, rhs, binders, conds, joins):
    """Infer universal binders for index variables the axiom leaves implicit,
    using the bounds declared for the families they index; variables named by
    a `some` disjunction binder are never universally quantified."""
    atoms = list(lhs) + [a for c in rhs for a in c]
    if not (binders or joins or any(a.indices for a in atoms)):
        return Axiom(lhs, rhs, (), tuple(conds), ())
    explicit = {v for v, _ in binders} | {v for v, _ in joins}
    bound = dict(binders)
    bound.update(joins)
    order = [v for v, _ in binders]
    for atom in atoms:
        fam = fams.get(atom.name)
        if fam is None or len(fam.bounds) != len(atom.indices):
            continue  # TheoryAST.__post_init__ reports this properly
        for pos, i in enumerate(atom.indices):
            if not isinstance(i, str):
                continue
            declared = fam.bounds[pos]
            if i not in bound:
                bound[i] = declared
                order.append(i)
            elif i not in explicit and bound[i] != declared:
                raise ParseError(f"index {i!r} used with conflicting bounds "
                                 f"{bound[i]!r} and {declared!r}")
    return Axiom(lhs, rhs, tuple((v, bound[v]) for v in order), tuple(conds),
                 tuple(joins))


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
