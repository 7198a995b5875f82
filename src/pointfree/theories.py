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
from .errors import MAX_INT_DIGITS, ParseError
from .presentations import FramePresentation, check_generator_cap, stabilize


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

# The whitespace and comments before a token are part of its match, and \Z
# matches an empty token at the end (twice after trailing whitespace), so a
# trailing comment is never rescanned from inside.
_TOKEN_RE = re.compile(r"(?:\s|#[^\n]*)*([A-Za-z_][A-Za-z0-9_]*|[0-9]+"
                       r"|\|-|<=|!=|==|->|=>|.|\Z)")
_REJECTED = {"~": "negation", "->": "implication", "=>": "implication",
             "!": "negation"}
_KINDS = {"": "eof", **dict.fromkeys(_REJECTED, "rej"),
          **dict.fromkeys("|- <= != == ; , . [ ] & | <".split(), "sym")}


def _kind(s):
    """A name or an int by an ASCII first character, else by _KINDS."""
    c = s[:1]
    if c.isascii() and (c.isalnum() or c == "_"):
        return "int" if c.isdigit() else "name"
    return _KINDS.get(s, "bad")


def _line_col(text, off):
    """1-based line and column of an offset, computed only for an error."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _tokenize(text):
    """(kind, text, offset) per token, then ("eof", "", len(text)); a
    rejected connective or a bad character is a ParseError at it."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind, s, off = _kind(m[1]), m[1], m.start(1)
        if kind == "rej" or kind == "bad":
            raise ParseError(
                f"{_REJECTED[s]} is outside the geometric fragment"
                if kind == "rej" else f"unexpected character {s!r}",
                *_line_col(text, off))
        toks.append((kind, s, off))
        if not s:
            return toks


_COMPARISONS = ("!=", "==", "<", "<=")
# the names that _Parser.masks does not read as a proposition: the
# keywords, and `top` and `bot`, which name the top and bottom elements
_WORDS = frozenset("prop axiom true false some for if top bot".split())


class _Parser:
    """Recursive descent over the token texts of one `findall`; `fail` finds
    a token's offset in `_tokenize`'s list, at the same index."""

    def __init__(self, text):
        self.text, self.toks, self.i = text, _TOKEN_RE.findall(text), 0
        if any(_kind(s) in ("rej", "bad") for s in set(self.toks)):
            _tokenize(text)  # raises at the first of them

    def fail(self, msg, i=None):
        """Raise msg at token i, by default the next one."""
        off = _tokenize(self.text)[self.i if i is None else i][2]
        raise ParseError(msg, *_line_col(self.text, off))

    def expect(self, text):
        if not self.skip(text):
            self.fail(f"expected {text!r}, found "
                      f"{self.toks[self.i] or 'end of input'!r}")

    def skip(self, text):
        """Consume the next token if it is text."""
        if self.toks[self.i] != text:
            return False
        self.i += 1
        return True

    def name(self, msg):
        """Consume the next token, which must be a name."""
        if _kind(self.toks[self.i]) != "name":
            self.fail(msg)
        self.i += 1
        return self.toks[self.i - 1]

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
        toks, families, axioms = self.toks, [], []
        while toks[self.i]:
            if toks[self.i] == "prop":
                families.extend(self.propdecl())
            elif toks[self.i] == "axiom":
                axioms.append(self.axiom())
            else:
                self.fail("expected 'prop' or 'axiom'")
        fams = {}
        for f, i in families:
            if f.name in fams:
                self.fail(f"duplicate proposition family {f.name!r}", i)
            fams[f.name] = f.bounds
        return TheoryAST(tuple(f for f, _ in families),
                         tuple([self.resolve(fams, *ax) for ax in axioms]))

    def propdecl(self):
        """(PropFamily, index of its name token) per signature."""
        toks = self.toks
        self.i += 1  # prop
        sigs, start = self.listof(self.famsig), self.i
        binders = self.listof(self.binder) if self.skip("for") else ()
        self.expect(";")
        self.distinct(binders, start, " in prop declaration")
        binders = dict(binders)
        for v in chain(*(vars_ for _, vars_ in sigs)):
            if toks[v] not in binders:
                self.fail(f"unbound index {toks[v]!r} in prop declaration", v)
        return [(PropFamily(toks[i], tuple(binders[toks[v]] for v in vars_)),
                 i) for i, vars_ in sigs]

    def famsig(self):
        """The indices of a signature's name and index-variable tokens."""
        i, vars_ = self.i, []
        self.name("expected proposition name")
        while self.skip("["):
            vars_.append(self.i)
            self.name("prop declaration indices must be variables")
            self.expect("]")
        return i, vars_

    def axiom(self):
        """(first token, lhs, rhs, binders, conds, joins), not checked."""
        start = self.i
        self.i += 1  # axiom
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
        """Atoms joined by `&`, () for `true`."""
        return () if self.skip("true") else self.listof(self.atom, "&")

    def atom(self):
        s = self.toks[self.i]
        if s in ("true", "false") or _kind(s) != "name":
            self.fail("expected an atomic proposition")
        self.i += 1
        idx = []
        while self.skip("["):
            idx.append(self.iexpr())
            self.expect("]")
        return Atom(s, tuple(idx))

    def disjunction(self):
        if self.skip("false"):
            return ()
        terms = self.listof(self.conjunction, "|")
        if () in terms:
            self.fail("'true' cannot appear inside a disjunction")
        return terms

    def iexpr(self, what="an index variable or integer"):
        s = self.toks[self.i]
        kind = _kind(s)
        if kind == "int" and len(s) > MAX_INT_DIGITS:
            self.fail(f"expected an integer of at most {MAX_INT_DIGITS} "
                      f"digits, got {len(s)} digits")
        if kind != "int" and kind != "name":
            self.fail(f"expected {what}")
        self.i += 1
        return int(s) if kind == "int" else s

    def binder(self):
        v = self.name("expected an index variable")
        self.expect("<")
        return v, self.iexpr("a bound (name or integer)")

    def cond(self):
        a, op = self.iexpr(), self.toks[self.i]
        if op not in _COMPARISONS:
            self.fail("expected a comparison (!=, ==, <, <=)")
        self.i += 1
        return (a, op, self.iexpr())

    # index-free theories ----------------------------------------------------

    def masks(self, limits=DEFAULT):
        """The presentation of an index-free theory, read off the tokens
        straight into masks: `prop` lists of names, then axioms whose left
        side is `true` or a meet (`&`) of declared names, and whose right
        side is `false` or a join (`|`) of such meets.  None at the first
        token outside that shape (an index, a binder, a keyword out of
        place, a name declared twice or after an axiom, `top` or `bot`) or
        at a count over a cap: parse_theory and instantiate then read the
        text, and raise what there is to raise."""
        toks, k, names = self.toks, 0, []
        while toks[k] == "prop":
            while _kind(toks[k + 1]) == "name" and toks[k + 1] not in _WORDS:
                names.append(toks[k + 1])
                k += 2
                if toks[k] != ",":
                    break
            if toks[k] != ";":
                return None
            k += 1
        gens = tuple(sorted(names))
        bit = {g: 1 << n for n, g in enumerate(gens)}
        if len(bit) < len(gens) or len(gens) > limits.generator_cap:
            return None

        def meet(k):
            """(the mask of the meet of names from token k, the token after
            it), or (None, k)."""
            m = 0
            while (b := bit.get(toks[k])) is not None:
                m |= b
                if toks[k + 1] != "&":
                    return m, k + 1
                k += 2
            return None, k

        rules, axioms = set(), 0
        while toks[k] == "axiom":
            lhs, k = (0, k + 2) if toks[k + 1] == "true" else meet(k + 1)
            if lhs is None or toks[k] != "|-":
                return None
            rhs = set()
            if toks[k + 1] == "false":
                k += 2
            else:
                while True:
                    t, k = meet(k + 1)
                    if t is None:
                        return None
                    rhs.add(t)
                    if toks[k] != "|":
                        break
            if toks[k] != ";":
                return None
            rules.add((lhs, frozenset(rhs)))
            k, axioms = k + 1, axioms + 1
        if toks[k] or axioms > limits.axiom_instance_cap:
            return None
        return FramePresentation(gens, frozenset(rules))

    # checks -------------------------------------------------------------

    def resolve(self, fams, start, lhs, rhs, binders, conds, joins):
        """Check an axiom's binders, each atom (known family, index count,
        no `some` variable on the left) and its side conditions, inferring
        the universal binders it leaves implicit from the families' bounds."""
        explicit = some = {}
        inferred = {}
        if binders or joins:
            self.distinct(joins + binders, start)
            explicit, some = dict(binders), dict(joins)
        for atom in chain(lhs, *rhs):
            bounds = fams.get(atom.name)
            if bounds is None or len(bounds) != len(atom.indices):
                self.fail(f"unknown proposition {atom.name!r}" if bounds is None
                          else f"wrong index count on {atom.name!r}",
                          self._atom_tok(start, lhs, rhs, atom))
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

    def distinct(self, binders, start, where=""):
        """Refuse a variable bound twice, at its second binder; the binders
        are the first tokens before a comparison from token start."""
        names = [v for v, _ in binders]
        if len(set(names)) != len(names):
            n = next(n for n, v in enumerate(names) if v in names[:n])
            self.fail("duplicate index binder" + where,
                      self._index_tok(start, n))

    def _atom_tok(self, start, lhs, rhs, atom):
        """The index of atom's first name token in the axiom at token start:
        the names after `axiom`, `|-`, `.`, `&` and `|`, other than `true`,
        `false` and the `some` keyword."""
        t = self.toks
        return [k for k in range(start + 1, len(t))
                if t[k - 1] in ("axiom", "|-", ".", "&", "|")
                and t[k] not in ("true", "false")
                and (t[k - 1], t[k]) != ("|-", "some")
                ][[*lhs, *chain(*rhs)].index(atom)]

    def _index_tok(self, start, n):
        """The index of the n-th token before a comparison in the axiom at
        start: `some` and `for` variables, then each condition's left side."""
        toks = self.toks
        return [k for k in range(start, len(toks) - 1)
                if toks[k + 1] in _COMPARISONS][n]


def parse_theory(text):
    return _Parser(text).theory()


def flat_presentation(text, limits=DEFAULT):
    """The presentation of an index-free theory read straight to masks, or
    None (_Parser.masks)."""
    return _Parser(text).masks(limits)


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
    check_generator_cap(count, limits)
    gens = [generator_name(f.name, idx) for f, bs in zip(ast.families, bounds)
            for idx in product(*map(range, bs))]
    if len(set(gens)) != len(gens):
        raise ParseError("instantiated generator names collide")
    spans = [([_resolve_bound(b, trunc) for _, b in ax.binders],
              [_resolve_bound(b, trunc) for _, b in ax.joins])
             for ax in ast.axioms]
    instances = sum(prod(ns) * prod(js) for ns, js in spans)
    limits.check("axiom instances", instances, "axiom_instance_cap")
    covers = set()
    for ax, (ns, js) in zip(ast.axioms, spans):
        names = [v for v, _ in ax.binders]
        jnames = [v for v, _ in ax.joins]
        for values in product(*map(range, ns)):
            env = dict(zip(names, values))
            if not all(_CMP[op](_subst(a, env), _subst(b, env))
                       for a, op, b in ax.conds):
                continue
            lhs = frozenset(_atom_gen(a, env) for a in ax.lhs)
            rhs = set()
            for jvalues in product(*map(range, js)):
                jenv = dict(env, **dict(zip(jnames, jvalues)))
                rhs |= {frozenset(_atom_gen(a, jenv) for a in c)
                        for c in ax.rhs}
            covers.add((lhs, frozenset(rhs)))
    return FramePresentation.make(gens, covers)


def compile_theory(ast, trunc=None, limits=DEFAULT):
    """Instantiate every schema and stabilize: the frame that instantiate
    presents, by more rules.  No CLI path calls it."""
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
            for true in p.frame.points()]


# --- builtin theories ---------------------------------------------------------

# the builtin theories other than stone, as source text; surjection's sizes
# n and x are filled in
_BUILTINS = {
    "sierpinski": "prop a;",
    "cantor": "prop z[i], u[i] for i<N;\naxiom z[i] & u[i] |- false;\n"
              "axiom true |- z[i] | u[i];",
    "surjection": "prop p[i][v] for i<{n}, v<{x};\n"
                  "axiom p[i][v] & p[i][w] |- false for i<{n}, v<{x}, w<{x} "
                  "if v != w;\naxiom true |- some v<{x}. p[i][v] for i<{n};\n"
                  "axiom true |- some i<{n}. p[i][v] for v<{x};"}


def builtin(name, **params):
    if name == "stone":
        return _stone_theory(params["lattice"])
    if name not in _BUILTINS:
        raise ParseError(f"unknown builtin theory {name!r}")
    return parse_theory(_BUILTINS[name].format(**params))


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
