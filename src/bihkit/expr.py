"""Small expression language for immersion components and weight functions.

Grammar (character offsets reported on errors):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' signed_literal)?
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Left-associative at equal precedence, '^' binds tighter than unary minus, and
its exponent must be a (possibly signed) numeric literal of magnitude at most
MAX_EXPONENT (1024).  An expression nests at most MAX_DEPTH (64) levels, as
parsing and evaluation recurse per level: a number or name is one, and each
operator, call or parenthesis pair one more (a 65-term sum is too deep).
Function application requires parentheses; the catalogue matches the jet
operations exactly (sin, cos, tan, exp, log, sqrt, atan).  Identifiers resolve
to the declared parameter names or the constants pi, e as they are parsed;
unknown ones are reported after the structural parse, so syntax errors win
over them.  Angles are radians; no implicit multiplication.  Offsets count
characters, 1-based.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .jets import Jet

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")
CONSTANTS = {"pi": math.pi, "e": math.e}
MAX_EXPONENT = 1024  # an integer power n multiplies |n| - 1 times
MAX_DEPTH = 64
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}

__all__ = ["Expression", "ParseError", "parse", "eval_on_jets",
           "Lit", "Var", "Const", "Neg", "Bin", "Pow", "Call", "FUNCTIONS"]


class ParseError(ValueError):
    def __init__(self, message, offset):
        # offsets are 1-based character positions in the expression
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
        self.tokens = _tokenize(source)
        self.pos = 0
        self.params = list(params)
        self.unknown = []  # (name, offset), reported post-parse

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

    def nest(self, height, offset):
        """Note the node or parenthesis at `offset` one level above `height`."""
        if height >= MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", offset)
        self.height = height + 1

    def parse(self):
        depth = 0
        for kind, _, offset in self.tokens:  # first, as the parse recurses per '('
            depth += (kind == "(") - (kind == ")")
            self.nest(depth, offset)
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[2])
        if self.unknown:
            name, off = self.unknown[0]
            raise ParseError(f"unknown identifier {name!r}", off)
        return node

    def expr(self, ops=("+", "-")):
        operand = (lambda: self.expr(("*", "/"))) if ops[0] == "+" else self.unary
        node = operand()
        while self.peek()[0] in ops:
            op, _, offset = self.advance()
            height = self.height
            node = Bin(op, node, operand())
            self.nest(max(height, self.height), offset)
        return node

    def unary(self):
        signs = []
        while self.peek()[0] == "-":
            signs.append(self.advance()[2])
        node = self.power()
        for offset in reversed(signs):
            node = Neg(node)
            self.nest(self.height, offset)
        return node

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            caret = self.advance()[2]
            sign = 1.0
            if self.peek()[0] == "-":
                self.advance()
                sign = -1.0
            tok = self.advance()
            if tok[0] != "num":
                raise ParseError("exponent must be a numeric literal", tok[2])
            if not tok[1] <= MAX_EXPONENT:
                raise ParseError(f"exponent beyond {MAX_EXPONENT} in magnitude", tok[2])
            self.nest(self.height, caret)
            return Pow(base, sign * tok[1])
        return base

    def atom(self):
        kind, val, off = self.advance()
        self.height = 1
        if kind == "num":
            return Lit(val)
        if kind == "(":
            return self.enclosed(off)
        if kind == "ident":
            if self.peek()[0] == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.advance()
                return self.enclosed(off, val)
            if val in self.params:
                return Var(val)
            if val not in CONSTANTS:
                self.unknown.append((val, off))
            return Const(val)
        raise ParseError(f"unexpected token {kind!r}", off)

    def enclosed(self, offset, fn=None):
        node = self.expr()
        self.nest(self.height, offset)
        if fn is not None and self.peek()[0] == ",":
            raise ParseError(f"function {fn!r} takes one argument", self.peek()[2])
        self.expect(")")
        return node if fn is None else Call(fn, node)


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
        if isinstance(node, (Lit, Const)):
            value = node.value if isinstance(node, Lit) else CONSTANTS[node.name]
            out = Jet.constant(next(iter(env.values())).space, value)
        elif isinstance(node, Var):
            try:
                out = env[node.name]
            except KeyError:
                raise KeyError(f"unbound variable {node.name!r}") from None
        elif isinstance(node, Neg):
            out = -ev(node.arg)
        elif isinstance(node, Bin):
            a, b = ev(node.left), ev(node.right)
            if node.op != "/":
                out = _BINARY[node.op](a, b)
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

