"""The theory front end as it was before `theories._Parser` ran on token
texts, kept as an independent oracle: a tokenizer with its own copy of the
old token expression that tracks a line and column for every token, and the
grammar and checking pass on (kind, text, (line, col)) tuples.

`theories` keeps only token texts and looks a position up when an error is
raised; this module shares no code with it beyond the AST classes and
`ParseError`, so `oracle_parse_theory` reports every position, semantic
errors included, from its own lines and columns."""

import re
from dataclasses import dataclass
from itertools import chain

from pointfree.errors import ParseError
from pointfree.theories import Atom, Axiom, PropFamily, TheoryAST

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

_COMPARISONS = ("!=", "==", "<", "<=")
MAX_DIGITS = 4300  # Python turns an int of at most 4300 digits into text


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text):
    toks = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        s = m.group()
        if kind == "rej":
            raise ParseError(
                f"{_REJECTED[s]} is outside the geometric fragment",
                line=line, col=col)
        if kind == "bad":
            raise ParseError(f"unexpected character {s!r}", line=line, col=col)
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _OracleParser:
    """Tokens are (kind, text, (line, col)) from the oracle tokenizer."""

    def __init__(self, text):
        self.toks = [(t.kind, t.text, (t.line, t.col))
                     for t in tokenize(text)]
        self.i = 0

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.toks[self.i]
        raise ParseError(msg, *tok[2])

    def expect(self, text):
        t = self.next()
        if t[1] != text:
            self.fail(f"expected {text!r}, found {t[1] or 'end of input'!r}",
                      t)

    def at(self, text):
        return self.toks[self.i][1] == text

    def skip(self, text):
        if not self.at(text):
            return False
        self.i += 1
        return True

    def listof(self, item, sep=","):
        out = [item()]
        while self.skip(sep):
            out.append(item())
        return tuple(out)

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
        fams = {}
        for f, t in families:
            if f.name in fams:
                self.fail(f"duplicate proposition family {f.name!r}", t)
            fams[f.name] = f.bounds
        return TheoryAST(tuple(f for f, _ in families),
                         tuple([self.resolve(fams, *ax) for ax in axioms]))

    def propdecl(self):
        self.expect("prop")
        sigs, start = self.listof(self.famsig), self.i
        binders = self.listof(self.binder) if self.skip("for") else ()
        self.expect(";")
        names = [v for v, _ in binders]
        if len(set(names)) != len(names):
            n = next(n for n, v in enumerate(names) if v in names[:n])
            self.fail("duplicate index binder in prop declaration",
                      self._index_tok(start, n))
        binders = dict(binders)
        for _, vars_ in sigs:
            for v in vars_:
                if v[1] not in binders:
                    self.fail(f"unbound index {v[1]!r} in prop declaration", v)
        return [(PropFamily(t[1], tuple(binders[v[1]] for v in vars_)), t)
                for t, vars_ in sigs]

    def famsig(self):
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
        if self.skip("true"):
            return ()
        return self.listof(self.atom, "&")

    def disjunction(self):
        if self.skip("false"):
            return ()
        terms = self.listof(self.conjunction, "|")
        if () in terms:
            self.fail("'true' cannot appear inside a disjunction")
        return terms

    def atom(self):
        t = self.next()
        if t[0] != "name" or t[1] in ("true", "false"):
            self.fail("expected an atomic proposition", t)
        idx = []
        while self.skip("["):
            idx.append(self.iexpr())
            self.expect("]")
        return Atom(t[1], tuple(idx))

    def iexpr(self, what="an index variable or integer"):
        kind, text, _ = t = self.next()
        if kind == "int":
            if len(text) > MAX_DIGITS:
                self.fail(f"expected an integer of at most {MAX_DIGITS} "
                          f"digits, got {len(text)} digits", t)
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
        """The name token of atom's first occurrence in the axiom."""
        toks = self.toks[start:]
        return [t for p, t in zip(toks, toks[1:])
                if p[1] in ("axiom", "|-", ".", "&", "|")
                and t[1] not in ("true", "false")
                and (p[1], t[1]) != ("|-", "some")
                ][[*lhs, *chain(*rhs)].index(atom)]

    def _index_tok(self, start, n):
        """The n-th token before a comparison from token start."""
        toks = self.toks[start:]
        return [t for t, c in zip(toks, toks[1:]) if c[1] in _COMPARISONS][n]


def oracle_parse_theory(text):
    return _OracleParser(text).theory()
