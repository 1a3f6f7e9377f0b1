"""Small expression language for immersion components and weight functions.

Grammar (byte offsets reported on errors):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' signed_literal)?
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Left-associative at equal precedence, '^' binds tighter than unary minus,
and its exponent must be a (possibly signed) numeric literal.  Function
application requires parentheses; the catalogue matches the jet operations
exactly (sin, cos, tan, exp, log, sqrt, atan).  Identifiers resolve to the
declared parameter names or the constants pi, e; resolution runs after the
structural parse, so syntax errors win over unknown-identifier errors.
Angles are radians; no implicit multiplication.  Offsets are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jets import Jet

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")
CONSTANTS = {"pi": math.pi, "e": math.e}

__all__ = ["Expression", "ParseError", "parse", "eval_on_jets", "to_source",
           "Lit", "Var", "Const", "Neg", "Bin", "Pow", "Call", "FUNCTIONS"]


class ParseError(ValueError):
    def __init__(self, message, offset):
        # offsets are 1-based byte positions into the source text
        super().__init__(f"{message} (offset {offset + 1})")
        self.offset = offset + 1


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Lit | Var | Const | Neg | Bin | Pow | Call


# -- tokenizer --------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or source[j] == "."):
                if source[j] == ".":
                    if seen_dot:
                        raise ParseError("malformed number", i)
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k >= n or not source[k].isdigit():
                    raise ParseError("malformed exponent", j)
                while k < n and source[k].isdigit():
                    k += 1
                j = k
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError("malformed number", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, source, params):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.params = list(params)
        self.pending_names = []  # (name, offset), resolved post-parse

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[2])
        for name, off in self.pending_names:
            if name not in self.params and name not in CONSTANTS:
                raise ParseError(f"unknown identifier {name!r}", off)
        return _resolve(node, self.params)

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1.0
            if self.peek()[0] == "-":
                self.advance()
                sign = -1.0
            tok = self.advance()
            if tok[0] != "num":
                raise ParseError("exponent must be a numeric literal", tok[2])
            return Pow(base, sign * tok[1])
        return base

    def atom(self):
        tok = self.advance()
        kind, val, off = tok
        if kind == "num":
            return Lit(val)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.advance()
                arg = self.expr()
                nxt = self.peek()
                if nxt[0] == ",":
                    raise ParseError(f"function {val!r} takes one argument", nxt[2])
                self.expect(")")
                return Call(val, arg)
            self.pending_names.append((val, off))
            return Var(val)
        raise ParseError(f"unexpected token {kind!r}", off)


def _resolve(node, params):
    """Rewrite bare names into Var/Const nodes after the structural parse."""
    if isinstance(node, Var):
        return node if node.name in params else Const(node.name)
    if isinstance(node, Neg):
        return Neg(_resolve(node.arg, params))
    if isinstance(node, Bin):
        return Bin(node.op, _resolve(node.left, params), _resolve(node.right, params))
    if isinstance(node, Pow):
        return Pow(_resolve(node.base, params), node.exponent)
    if isinstance(node, Call):
        return Call(node.fn, _resolve(node.arg, params))
    return node


def parse(source, params):
    """Parse `source` over the declared parameter names."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source, params).parse()


# -- evaluation ---------------------------------------------------------------


def eval_on_jets(expression, env, memo=None):
    """Evaluate an expression tree in an environment of name -> Jet.

    Equal sub-trees evaluate once, and so does the reciprocal of each '/'
    denominator: `memo` (keyed by the frozen nodes) holds them, per call
    unless the caller passes one dict to every evaluation in one `env`.
    """
    memo = {} if memo is None else memo

    def ev(node):
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Lit):
            some = next(iter(env.values()))
            out = Jet.constant(some.space, node.value)
        elif isinstance(node, Var):
            try:
                out = env[node.name]
            except KeyError:
                raise KeyError(f"unbound variable {node.name!r}") from None
        elif isinstance(node, Const):
            some = next(iter(env.values()))
            out = Jet.constant(some.space, CONSTANTS[node.name])
        elif isinstance(node, Neg):
            out = -ev(node.arg)
        elif isinstance(node, Bin):
            a, b = ev(node.left), ev(node.right)
            if node.op == "+":
                out = a + b
            elif node.op == "-":
                out = a - b
            elif node.op == "*":
                out = a * b
            else:
                # a / b is a * (1 / b), as `Jet.__truediv__` computes it
                key = ("reciprocal", node.right)
                if key not in memo:
                    memo[key] = b._reciprocal()
                out = a * memo[key]
        elif isinstance(node, Pow):
            out = ev(node.base) ** node.exponent
        elif isinstance(node, Call):
            out = getattr(ev(node.arg), node.fn)()
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[node] = out
        return out

    return ev(expression)


def variables_of(expression):
    """Set of parameter names referenced by the expression."""
    out = set()

    def walk(node):
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Neg):
            walk(node.arg)
        elif isinstance(node, Bin):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Pow):
            walk(node.base)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(expression)
    return out


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_number(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def to_source(node):
    """Render a tree back to parseable source; reparsing gives an equal tree."""

    def render(n):
        # returns (text, precedence)
        if isinstance(n, Lit):
            return _fmt_number(n.value), _PREC["atom"]
        if isinstance(n, Var):
            return n.name, _PREC["atom"]
        if isinstance(n, Const):
            return n.name, _PREC["atom"]
        if isinstance(n, Call):
            inner, _ = render(n.arg)
            return f"{n.fn}({inner})", _PREC["atom"]
        if isinstance(n, Neg):
            text, prec = render(n.arg)
            if prec < _PREC["neg"]:
                text = f"({text})"
            return f"-{text}", _PREC["neg"]
        if isinstance(n, Pow):
            text, prec = render(n.base)
            if prec < _PREC["atom"]:
                text = f"({text})"
            return f"{text}^{_fmt_number(n.exponent)}", _PREC["^"]
        if isinstance(n, Bin):
            lt, lp = render(n.left)
            rt, rp = render(n.right)
            prec = _PREC[n.op]
            if lp < prec:
                lt = f"({lt})"
            # left-associative: parenthesize right operand at equal precedence
            if rp <= prec:
                rt = f"({rt})"
            return f"{lt} {n.op} {rt}", prec
        raise TypeError(f"not an expression node: {n!r}")

    return render(node)[0]
