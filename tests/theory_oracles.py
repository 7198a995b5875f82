"""The theory tokenizer that tracked a line and column for every token,
kept as an independent oracle for `theories._tokenize`, which keeps only
offsets and computes a position when an error is raised.

`oracle_parse_theory` runs the grammar and the checking pass of
`theories._Parser` on the oracle's tokens, with the generic `conjunction`
and `atom` that the parser had before it indexed its token list directly,
and reports every position, semantic errors included, from the oracle's
own line and column."""

from dataclasses import dataclass

from pointfree.errors import ParseError
from pointfree.theories import _REJECTED, _TOKEN_RE, Atom, _Parser


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


class _OracleParser(_Parser):
    """Tokens are (kind, text, (line, col)) from the oracle tokenizer."""

    def __init__(self, text):
        self.text = text
        self.toks = [(t.kind, t.text, (t.line, t.col))
                     for t in tokenize(text)]
        self.i = 0

    def fail(self, msg, tok=None):
        tok = tok or self.toks[self.i]
        raise ParseError(msg, *tok[2])

    def conjunction(self):
        if self.at("true"):
            self.next()
            return ()
        atoms = [self.atom()]
        while self.at("&"):
            self.next()
            atoms.append(self.atom())
        return tuple(atoms)

    def atom(self):
        t = self.next()
        if t[0] != "name" or t[1] in ("true", "false"):
            self.fail("expected an atomic proposition", t)
        idx = []
        while self.at("["):
            self.next()
            idx.append(self.iexpr())
            self.expect("]")
        return Atom(t[1], tuple(idx))


def oracle_parse_theory(text):
    return _OracleParser(text).theory()
