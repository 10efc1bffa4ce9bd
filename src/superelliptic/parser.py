"""Expression parsing for the CLI, catalog files and tests.

Grammar (left-associative, ``^`` binds tightest, nonnegative integer
exponents only)::

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  ('+' | '-')* power
    power  :=  atom ('^' INT)?
    atom   :=  INT | IDENT | 'sqrt' '(' INT ')' | '(' expr ')'

Identifiers resolve to the polynomial variable, a declared parameter, or a
tower generator.  ``I`` and ``sqrt(n)`` are sugar that auto-declare the
quadratic extension steps t^2 + 1 and t^2 - n while scanning the input,
before the domain is frozen.  Division is exact and requires a constant,
invertible divisor (the grammar's p/q rationals are the intended use).

Syntax errors carry the 0-based offset of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .rings import Domain, El, FunctionField, PrimeField, QQ, QuotientRing, adjoin, embed, tower_chain
from .unipoly import UniPoly


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # int | ident | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", where)
        if m.group("int"):
            out.append(_Tok("int", m.group("int"), m.start("int")))
        elif m.group("ident"):
            out.append(_Tok("ident", m.group("ident"), m.start("ident")))
        else:
            out.append(_Tok("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(_Tok("end", "", len(text)))
    return out


def scan_sugar(text: str) -> tuple[bool, list[int]]:
    """Occurrences of the I and sqrt(n) sugar in an expression."""
    toks = _tokenize(text)
    need_i = any(t.kind == "ident" and t.text == "I" for t in toks)
    sqrts = []
    for j, t in enumerate(toks):
        if t.kind == "ident" and t.text == "sqrt":
            if (
                j + 3 < len(toks)
                and toks[j + 1].text == "("
                and toks[j + 2].kind == "int"
                and toks[j + 3].text == ")"
            ):
                n = int(toks[j + 2].text)
                if n not in sqrts:
                    sqrts.append(n)
            else:
                raise ParseError("sqrt() takes a single integer literal", t.pos)
    return need_i, sqrts


def build_domain(
    char: int,
    extensions: list[tuple[str, str]],
    params: tuple[str, ...] | list[str],
    *,
    sugar_i: bool = False,
    sugar_sqrts: list[int] | None = None,
) -> Domain:
    """Assemble prime field -> extension tower -> parameters.

    Declared extensions are treated as field steps; a reducible modulus
    surfaces later as a zero-divisor error carrying a factor.  Sugar steps
    are appended after the explicit ones and only in characteristic zero.
    """
    dom: Domain = QQ if char == 0 else PrimeField(char)
    names = set()
    for name, minpoly_text in extensions:
        if name in names:
            raise ValueError(f"duplicate extension generator {name!r}")
        names.add(name)
        mp = parse_expression(minpoly_text, dom, var="t")
        if mp.is_constant() or not mp.is_monic():
            raise ValueError(f"extension modulus for {name!r} must be monic of degree >= 2")
        dom = adjoin(dom, name, tuple(mp.to_list()), field=True)
    wanted = []
    if sugar_i and "I" not in names:
        wanted.append(("I", (1, 0, 1)))
    for n in sugar_sqrts or ():
        nm = f"sqrt{n}"
        if nm in names:
            continue
        if char == 0 and QQ.nth_root(QQ.from_int(n), 2) is not None:
            continue  # perfect square: the parser resolves it as a constant
        wanted.append((nm, (-n, 0, 1)))
    if wanted and char:
        raise ValueError("I and sqrt() sugar require characteristic zero")
    for nm, coeffs in wanted:
        dom = adjoin(dom, nm, tuple(dom.from_int(c) for c in coeffs), field=True)
    if params:
        if len(set(params)) != len(params):
            raise ValueError("duplicate parameter names")
        dom = FunctionField(dom, tuple(params))
    return dom


def domain_with_sugar(char: int, extensions, params, texts: list[str]) -> Domain:
    """build_domain after scanning the given expressions for sugar."""
    need_i = False
    sqrts: list[int] = []
    for text in texts:
        i, s = scan_sugar(text)
        need_i = need_i or i
        for n in s:
            if n not in sqrts:
                sqrts.append(n)
    return build_domain(char, extensions, params, sugar_i=need_i, sugar_sqrts=sqrts)


def identifier_values(dom: Domain, var: str = "x") -> dict[str, El]:
    """Raw values of every named generator and parameter, embedded to the
    top domain; the polynomial variable is handled separately."""
    out: dict[str, El] = {}
    for link in tower_chain(dom):
        if isinstance(link, QuotientRing):
            out[link.name] = embed(link, dom, link.gen())
        elif isinstance(link, FunctionField):
            for name in link.names:
                out[name] = embed(link, dom, link.param(name))
    out.pop(var, None)
    return out


class _Parser:
    def __init__(self, toks: list[_Tok], dom: Domain, var: str):
        self.toks = toks
        self.k = 0
        self.dom = dom
        self.var = var
        self.names = identifier_values(dom, var)

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def next(self) -> _Tok:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, op: str) -> None:
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}", t.pos)

    def parse(self) -> UniPoly:
        out = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.pos)
        return out

    def expr(self) -> UniPoly:
        out = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                rhs = self.term()
                out = out + rhs if t.text == "+" else out - rhs
            else:
                return out

    def term(self) -> UniPoly:
        out = self.unary()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.next()
                rhs = self.unary()
                if t.text == "*":
                    out = out * rhs
                else:
                    if not rhs.is_constant():
                        raise ParseError("division by a non-constant expression", t.pos)
                    c = rhs.coeff(0)
                    if self.dom.is_zero(c):
                        raise ParseError("division by zero", t.pos)
                    out = out.scale(self.dom.inv(c))
            else:
                return out

    def unary(self) -> UniPoly:
        sign = 1
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                if t.text == "-":
                    sign = -sign
            else:
                break
        out = self.power()
        return -out if sign < 0 else out

    def power(self) -> UniPoly:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            e = self.next()
            if e.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", e.pos)
            return base ** int(e.text)
        return base

    def atom(self) -> UniPoly:
        t = self.next()
        if t.kind == "int":
            return UniPoly.constant(self.dom, self.dom.from_int(int(t.text)))
        if t.kind == "ident":
            if t.text == self.var:
                return UniPoly.gen(self.dom)
            if t.text == "sqrt":
                self.expect_op("(")
                arg = self.next()
                if arg.kind != "int":
                    raise ParseError("sqrt() takes a single integer literal", arg.pos)
                self.expect_op(")")
                name = f"sqrt{arg.text}"
                if name in self.names:
                    return UniPoly.constant(self.dom, self.names[name])
                root = self.dom.nth_root(self.dom.from_int(int(arg.text)), 2)
                if root is not None:
                    return UniPoly.constant(self.dom, root)
                raise ParseError(f"sqrt({arg.text}) was not declared in this domain", t.pos)
            if t.text in self.names:
                return UniPoly.constant(self.dom, self.names[t.text])
            raise ParseError(f"undeclared identifier {t.text!r}", t.pos)
        if t.kind == "op" and t.text == "(":
            out = self.expr()
            self.expect_op(")")
            return out
        raise ParseError(f"unexpected {t.text!r}" if t.text else "unexpected end of input", t.pos)


def parse_expression(text: str, dom: Domain, var: str = "x") -> UniPoly:
    """Parse an expression to a polynomial in ``var`` over ``dom``."""
    return _Parser(_tokenize(text), dom, var).parse()


def parse_constant(text: str, dom: Domain) -> El:
    """Parse an expression that must evaluate to a constant."""
    p = parse_expression(text, dom)
    if not p.is_constant():
        raise ParseError("expected a constant expression", 0)
    return p.coeff(0)
