"""Modal formula ASTs, parser and printer.

The base language has propositional variables, algebra constants and the
connectives | & -> [] <>.  The extended working language adds nominals,
co-nominals, the co-implication - and the inverse modalities.  ASCII
grammar (see README for the full EBNF):

    ~p \\/ <>p          negation, disjunction, diamond
    [](@a /\\ p -> q)   box, algebra constant @a
    #i1, $m1            nominal, co-nominal
    p <= q              inequality
    p <= q & r <= s => p <= s    quasi-inequality

Unary operators bind tightest, then /\\, then \\/, then -> (right
associative) and - (non-associative) at the lowest level.  `~f` is sugar
for `f -> @0`.  ASTs are immutable and hashable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


from .errors import FormulaSyntaxError, UnknownConstant
from .heyting import HeytingAlgebra


class Formula:
    """Base class for modal formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Nom(Formula):
    name: str


@dataclass(frozen=True)
class CoNom(Formula):
    name: str


@dataclass(frozen=True)
class Const(Formula):
    name: str
    index: int


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Minus(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Box(Formula):
    sub: Formula


@dataclass(frozen=True)
class Dia(Formula):
    sub: Formula


@dataclass(frozen=True)
class BoxInv(Formula):
    sub: Formula


@dataclass(frozen=True)
class DiaInv(Formula):
    sub: Formula


def cache_hash(base: type) -> None:
    """Make each node class under `base` keep its hash after the first call:
    the hash of a frozen dataclass walks the whole tree on every call, and
    formulas key the evaluators' caches."""
    for cls in base.__subclasses__():
        def cached(self, field_hash=cls.__hash__):
            try:
                return self._hash
            except AttributeError:
                object.__setattr__(self, "_hash", field_hash(self))
                return self._hash

        cls.__hash__ = cached


cache_hash(Formula)


@dataclass(frozen=True)
class Inequality:
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"{print_formula(self.lhs)} <= {print_formula(self.rhs)}"


@dataclass(frozen=True)
class QuasiInequality:
    premises: tuple[Inequality, ...]
    conclusion: Inequality

    def __str__(self) -> str:
        if not self.premises:
            return f"=> {self.conclusion}"
        return " & ".join(str(p) for p in self.premises) + f" => {self.conclusion}"


BINARY = {Or: "\\/", And: "/\\", Implies: "->", Minus: "-"}
UNARY = {Box: "[]", Dia: "<>", BoxInv: "[i]", DiaInv: "<i>"}


def bottom(alg: HeytingAlgebra) -> Const:
    return Const(alg.element_name(alg.bot), alg.bot)


def top(alg: HeytingAlgebra) -> Const:
    return Const(alg.element_name(alg.top), alg.top)


# -- structural helpers -------------------------------------------------------


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Or, And, Implies, Minus)):
        return (f.lhs, f.rhs)
    if isinstance(f, (Box, Dia, BoxInv, DiaInv)):
        return (f.sub,)
    return ()


def rebuild(f: Formula, subs: tuple[Formula, ...]) -> Formula:
    if isinstance(f, (Or, And, Implies, Minus)):
        return type(f)(subs[0], subs[1])
    if isinstance(f, (Box, Dia, BoxInv, DiaInv)):
        return type(f)(subs[0])
    return f


def atoms(f: Formula) -> set[Formula]:
    """All Var/Nom/CoNom leaves of f."""
    if isinstance(f, (Var, Nom, CoNom)):
        return {f}
    out: set[Formula] = set()
    for c in children(f):
        out |= atoms(c)
    return out


def prop_vars(f: Formula) -> set[str]:
    return {a.name for a in atoms(f) if isinstance(a, Var)}


def is_pure(f: Formula) -> bool:
    """True when f contains no propositional variables."""
    return not prop_vars(f)


def in_base_language(f: Formula) -> bool:
    """True when f avoids the extended-language constructs."""
    if isinstance(f, (Nom, CoNom, Minus, BoxInv, DiaInv)):
        return False
    return all(in_base_language(c) for c in children(f))


def substitute(f: Formula, var: str, g: Formula) -> Formula:
    """Replace every occurrence of the propositional variable in f by g."""
    if isinstance(f, Var) and f.name == var:
        return g
    subs = children(f)
    if not subs:
        return f
    return rebuild(f, tuple(substitute(c, var, g) for c in subs))


POSITIVE = "positive"
NEGATIVE = "negative"
MIXED = "mixed"
ABSENT = "absent"


def polarity(f: Formula, var: str) -> str:
    """Sign of all occurrences of var in f; -> flips its left child."""
    signs: set[int] = set()

    def walk(node: Formula, sign: int) -> None:
        if isinstance(node, Var) and node.name == var:
            signs.add(sign)
        elif isinstance(node, (Implies, Minus)):
            # co-implication is antitone in its right argument instead
            if isinstance(node, Implies):
                walk(node.lhs, -sign)
                walk(node.rhs, sign)
            else:
                walk(node.lhs, sign)
                walk(node.rhs, -sign)
        else:
            for c in children(node):
                walk(c, sign)

    walk(f, 1)
    if not signs:
        return ABSENT
    if signs == {1}:
        return POSITIVE
    if signs == {-1}:
        return NEGATIVE
    return MIXED


# -- tokenizer ---------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<boxinv>\[i\])
  | (?P<diainv><i>)
  | (?P<box>\[\])
  | (?P<leq><=)
  | (?P<dia><>)
  | (?P<fatarrow>=>)
  | (?P<arrow>->)
  | (?P<or>\\/)
  | (?P<and>/\\)
  | (?P<amp>&)
  | (?P<minus>-)
  | (?P<tilde>~)
  | (?P<const>@[A-Za-z0-9_]+)
  | (?P<nom>\#[A-Za-z0-9_]+)
  | (?P<conom>\$[A-Za-z0-9_]+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            out.append(Token(kind, m.group(), pos))
        pos = m.end()
    out.append(Token("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[Token], alg: HeytingAlgebra):
        self.tokens = tokens
        self.alg = alg
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"found {tok.text or 'end of input'!r}", tok.pos, expected=kind
            )
        return self.next()

    def formula(self) -> Formula:
        lhs = self.disjunction()
        tok = self.peek()
        if tok.kind == "arrow":
            self.next()
            return Implies(lhs, self.formula())
        if tok.kind == "minus":
            self.next()
            return Minus(lhs, self.disjunction())
        return lhs

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek().kind == "or":
            self.next()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "and":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "box":
            self.next()
            return Box(self.unary())
        if tok.kind == "dia":
            self.next()
            return Dia(self.unary())
        if tok.kind == "boxinv":
            self.next()
            return BoxInv(self.unary())
        if tok.kind == "diainv":
            self.next()
            return DiaInv(self.unary())
        if tok.kind == "tilde":
            self.next()
            return Implies(self.unary(), bottom(self.alg))
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        if tok.kind == "lparen":
            inner = self.formula()
            closing = self.peek()
            if closing.kind != "rparen":
                raise FormulaSyntaxError(
                    f"found {closing.text or 'end of input'!r}",
                    closing.pos,
                    expected=")",
                )
            self.next()
            return inner
        if tok.kind == "ident":
            return Var(tok.text)
        if tok.kind == "nom":
            return Nom(tok.text[1:])
        if tok.kind == "conom":
            return CoNom(tok.text[1:])
        if tok.kind == "const":
            name = tok.text[1:]
            idx = self.alg.element(name)  # raises UnknownConstant
            return Const(self.alg.element_name(idx), idx)
        raise FormulaSyntaxError(
            f"found {tok.text or 'end of input'!r}", tok.pos, expected="a formula"
        )

    def inequality(self) -> Inequality:
        lhs = self.formula()
        self.expect("leq")
        return Inequality(lhs, self.formula())

    def quasi(self) -> QuasiInequality:
        first = self.inequality()
        ineqs = [first]
        while self.peek().kind == "amp":
            self.next()
            ineqs.append(self.inequality())
        if self.peek().kind == "fatarrow":
            self.next()
            conclusion = self.inequality()
            return QuasiInequality(tuple(ineqs), conclusion)
        if len(ineqs) == 1:
            return QuasiInequality((), ineqs[0])
        raise FormulaSyntaxError("found '&' chain without '=>'", self.peek().pos)

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)


def parse_formula(text: str, alg: HeytingAlgebra) -> Formula:
    """Parse a formula; `~f` expands to `f -> @0`, constants resolve in alg."""
    p = _Parser(tokenize(text), alg)
    out = p.formula()
    p.done()
    return out


def parse_inequality(text: str, alg: HeytingAlgebra) -> Inequality:
    p = _Parser(tokenize(text), alg)
    out = p.inequality()
    p.done()
    return out


def parse_quasi_inequality(text: str, alg: HeytingAlgebra) -> QuasiInequality:
    p = _Parser(tokenize(text), alg)
    out = p.quasi()
    p.done()
    return out


def parse_input(text: str, alg: HeytingAlgebra):
    """Parse either a formula or an inequality, whichever the text is."""
    if "<=" in text:
        return parse_inequality(text, alg)
    return parse_formula(text, alg)


# -- printer ------------------------------------------------------------------

_LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 0, 1, 2, 3


def _level(f: Formula) -> int:
    if isinstance(f, (Implies, Minus)):
        return _LEVEL_IMP
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, And):
        return _LEVEL_AND
    return _LEVEL_UNARY


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print(f)) == f."""

    def wrap(sub: Formula, minimum: int) -> str:
        text = print_formula(sub)
        if _level(sub) < minimum:
            return f"({text})"
        return text

    if isinstance(f, Var):
        return f.name
    if isinstance(f, Nom):
        return f"#{f.name}"
    if isinstance(f, CoNom):
        return f"${f.name}"
    if isinstance(f, Const):
        return f"@{f.name}"
    if isinstance(f, Or):
        return f"{wrap(f.lhs, _LEVEL_OR)} \\/ {wrap(f.rhs, _LEVEL_AND)}"
    if isinstance(f, And):
        return f"{wrap(f.lhs, _LEVEL_AND)} /\\ {wrap(f.rhs, _LEVEL_UNARY)}"
    if isinstance(f, Implies):
        return f"{wrap(f.lhs, _LEVEL_OR)} -> {wrap(f.rhs, _LEVEL_IMP)}"
    if isinstance(f, Minus):
        return f"{wrap(f.lhs, _LEVEL_OR)} - {wrap(f.rhs, _LEVEL_OR)}"
    if isinstance(f, (Box, Dia, BoxInv, DiaInv)):
        return f"{UNARY[type(f)]}{wrap(f.sub, _LEVEL_UNARY)}"
    raise TypeError(f"not a formula: {f!r}")
