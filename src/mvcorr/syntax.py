"""Modal formula ASTs, parser and printer.

The base language has propositional variables, algebra constants and the
connectives | & -> [] <>.  The extended working language adds nominals,
co-nominals, the co-implication - and the inverse modalities.  ASCII
grammar (see README for the full EBNF):

    ~p \\/ <>p          negation, disjunction, diamond
    [](@a /\\ p -> q)   box, algebra constant @a
    #i1, $m1            nominal, co-nominal (only a co-nominal's name
                        starts with m or n)
    p <= q              inequality

Unary operators bind tightest, then /\\, then \\/, then -> (right
associative) and - (non-associative) at the lowest level.  `~f` is sugar
for `f -> @0`.  ASTs are immutable and hashable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


from .errors import FormulaSyntaxError
from .heyting import HeytingAlgebra


class Formula:
    """Base class for modal formula nodes."""

    __slots__ = ("_hash",)  # set by `cache_hash`

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Nom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class CoNom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Const(Formula):
    name: str
    index: int


@dataclass(frozen=True, slots=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Minus(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Box(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class Dia(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class BoxInv(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class DiaInv(Formula):
    sub: Formula


def cache_hash(base: type) -> None:
    """Make each node class under `base` keep its hash after the first call:
    the hash of a frozen dataclass walks the whole tree on every call, and
    formulas key the evaluators' caches.  A first call fills in the hashes
    missing below its node bottom-up, from an explicit stack, so a deep tree
    hashes without deep recursion."""
    field_hashes = {cls: cls.__hash__ for cls in base.__subclasses__()}

    def cached(self):
        try:
            return self._hash
        except AttributeError:
            stack = [self]
        while not hasattr(self, "_hash"):
            node = stack[-1]
            below = [c for c in map(node.__getattribute__, node.__dataclass_fields__)
                     if isinstance(c, base) and not hasattr(c, "_hash")]
            stack += below
            if not below:
                stack.pop()
                object.__setattr__(node, "_hash", field_hashes[type(node)](node))
        return self._hash

    for cls in field_hashes:
        cls.__hash__ = cached


cache_hash(Formula)


@dataclass(frozen=True, slots=True)
class Inequality:
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"{print_formula(self.lhs)} <= {print_formula(self.rhs)}"


@dataclass(frozen=True, slots=True)
class QuasiInequality:
    premises: tuple[Inequality, ...]
    conclusion: Inequality

    def __str__(self) -> str:
        if not self.premises:
            return f"=> {self.conclusion}"
        return " & ".join(str(p) for p in self.premises) + f" => {self.conclusion}"


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


def signed_children(f: Formula, sign: int) -> tuple[tuple[Formula, int], ...]:
    """Each child of f with its sign when f has `sign`: -> flips its
    antecedent, the co-implication - its right operand."""
    if isinstance(f, Implies):
        return ((f.lhs, -sign), (f.rhs, sign))
    if isinstance(f, Minus):
        return ((f.lhs, sign), (f.rhs, -sign))
    return tuple([(c, sign) for c in children(f)])


def polarity(f: Formula, var: str) -> str:
    """Sign of all occurrences of var in f, by `signed_children`."""
    signs: set[int] = set()
    stack = [(f, 1)]
    while stack:
        node, sign = stack.pop()
        if not isinstance(node, Var):
            stack += signed_children(node, sign)
        elif node.name == var:
            signs.add(sign)
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
  | (?P<arrow>->)
  | (?P<or>\\/)
  | (?P<and>/\\)
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


def tokenize(text: str, pattern: re.Pattern = TOKEN_RE) -> list[Token]:
    """The tokens of `pattern`'s named groups, whitespace dropped, then eof."""
    out = []
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            out.append(Token(kind, m.group(), pos))
        pos = m.end()
    out.append(Token("eof", "", len(text)))
    return out


def names_conominal(name: str) -> bool:
    """The rule that tells c_<name> and C_<name> apart: only a co-nominal's
    name starts with m or n."""
    return name[:1] in ("m", "n")


def naming_clash(text: str) -> str | None:
    """Why the nominal `#name` or co-nominal `$name` breaks `names_conominal`."""
    if text[:1] in ("#", "$") and names_conominal(text[1:]) != (text[:1] == "$"):
        return f"found {text!r}: names starting with m or n are co-nominals', all others nominals'"


MAX_NESTING = 16  # levels of operators every command handles under the default recursion limit


class Cursor:
    """A parser's place in a token list; reading never moves past eof."""

    # the height accepted, the parser's own recursion allowed, a node's children
    limit, reach, subs = MAX_NESTING, 2 * MAX_NESTING, staticmethod(children)

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # the parser's own recursion, parentheses included

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += tok.kind != "eof"
        return tok

    def nested(self, parse):
        """`parse()` one level deeper, refused well before Python's own limit."""
        self.depth += 1
        if self.depth > self.reach:
            raise FormulaSyntaxError(f"nested deeper than {self.limit} levels", self.peek().pos)
        out = parse()
        self.depth -= 1
        return out

    def done(self, *roots: Formula) -> None:
        """Refuse trailing input, and formulas nested past `limit` levels."""
        tok = self.peek()
        if tok.kind != "eof":
            raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        for _ in range(self.limit + 1):
            roots = [sub for node in roots for sub in self.subs(node)]
        if roots:
            raise FormulaSyntaxError(f"nested deeper than {self.limit} levels", 0)


class _Parser(Cursor):
    prefix = {"box": Box, "dia": Dia, "boxinv": BoxInv, "diainv": DiaInv}

    def __init__(self, tokens: list[Token], alg: HeytingAlgebra):
        super().__init__(tokens)
        self.alg = alg

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
            return Implies(lhs, self.nested(self.formula))
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
        if tok.kind in self.prefix:
            self.next()
            return self.prefix[tok.kind](self.nested(self.unary))
        if tok.kind == "tilde":
            self.next()
            return Implies(self.nested(self.unary), bottom(self.alg))
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        if tok.kind == "lparen":
            inner = self.nested(self.formula)
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
        if tok.kind in ("nom", "conom"):
            if clash := naming_clash(tok.text):
                raise FormulaSyntaxError(clash, tok.pos)
            return (Nom if tok.kind == "nom" else CoNom)(tok.text[1:])
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


def parse_formula(text: str, alg: HeytingAlgebra) -> Formula:
    """Parse a formula; `~f` expands to `f -> @0`, constants resolve in alg."""
    p = _Parser(tokenize(text), alg)
    out = p.formula()
    p.done(out)
    return out


def parse_inequality(text: str, alg: HeytingAlgebra) -> Inequality:
    p = _Parser(tokenize(text), alg)
    out = p.inequality()
    p.done(out.lhs, out.rhs)
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
