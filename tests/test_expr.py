import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihkit.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    MAX_EXPONENT,
    Bin,
    Call,
    Const,
    Lit,
    Neg,
    ParseError,
    Pow,
    Var,
    eval_on_jets,
    parse,
)
from bihkit.jets import Jet, jet_space
from conftest import coeff, partial


# -- the printer: the parser's round-trip oracle ---------------------------

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


def test_parse_structure():
    e = parse("cos(u)*sin(v)", ["u", "v"])
    assert e == Bin("*", Call("cos", Var("u")), Call("sin", Var("v")))
    e2 = parse("1/sqrt(2)", [])
    assert isinstance(e2, Bin) and e2.op == "/"
    assert isinstance(e2.left, Lit) and e2.left.value == 1.0


def test_unbalanced_paren_offset():
    with pytest.raises(ParseError) as err:
        parse("exp(a*u", ["u"])
    assert err.value.offset == 8  # 1-based, end of input


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("exp(a*u)", ["u"])
    assert "unknown identifier" in str(err.value)
    assert err.value.offset == 5


def test_power_exponent_must_be_literal():
    with pytest.raises(ParseError):
        parse("u^v", ["u", "v"])
    e = parse("u^-2", ["u"])
    assert to_source(e) == "u^-2"
    with pytest.raises(ParseError):
        parse("u^2^3", ["u"])  # non-associative


def test_power_exponent_is_bounded():
    """An exponent beyond MAX_EXPONENT in magnitude is a located parse error:
    an integer power n multiplies |n| - 1 times, so u^1e308 would not end."""
    assert MAX_EXPONENT == 1024
    for source in ("u^1024", "u^-1024", "u^1024.0", "u^0.5"):
        parse(source, ["u"])
    for source, offset in (("u^1025", 3), ("u^1e308", 3), ("u^-1e308", 4), ("u^1e999", 3),
                           ("1 + 0.3*cos(u)^1e308", 16)):
        with pytest.raises(ParseError, match="exponent beyond 1024") as err:
            parse(source, ["u"])
        assert err.value.offset == offset, source
    x = Jet.variable(jet_space(1, 2), 0, 1.0 + 2.0**-20)
    value = coeff(eval_on_jets(parse("u^1024", ["u"]), {"u": x}), [0])
    assert math.isclose(value, (1.0 + 2.0**-20)**1024, rel_tol=1e-12)


# expressions at MAX_DEPTH levels
AT_THE_BOUND = {
    "parentheses": "(" * 63 + "u" + ")" * 63,
    "calls": "cos(" * 63 + "u" + ")" * 63,
    "sum": "+".join(["u"] * 64),
    "signs": "-" * 63 + "u",
    "powers": "(" * 31 + "u^1" + ")^1" * 31,
    "products": "u*(" * 31 + "u*u" + ")" * 31,
}


@pytest.mark.parametrize("name", sorted(AT_THE_BOUND))
def test_nesting_is_bounded(name):
    """An expression nests at most MAX_DEPTH levels, each operator, call
    and pair of parentheses one above its operands: one at the bound
    parses and evaluates, and each way of nesting it one level deeper is a
    parse error."""
    assert MAX_DEPTH == 64
    source = AT_THE_BOUND[name]
    x = Jet.variable(jet_space(1, 4), 0, 0.25)
    assert math.isfinite(coeff(eval_on_jets(parse(source, ["u"]), {"u": x}), [2]))
    for deeper in ("(" + source + ")", source + "+u", "sin(" + source + ")"):
        with pytest.raises(ParseError, match="nested deeper than 64 levels"):
            parse(deeper, ["u"])


def test_deep_nesting_is_named_where_it_exceeds_the_bound():
    """The error's offset is the operator, sign or parenthesis that would
    make the 65th level, and no depth overflows the parser: 3000 signs and a
    500-term sum are refused as they are parsed."""
    cases = {"(" * 64 + "u" + ")" * 64: 64, "-" * 3000 + "u": 2937,
             "+".join(["u"] * 500): 128, "sin(" * 70 + "u" + ")" * 70: 256}
    for source, offset in cases.items():
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse(source, ["u"])
        assert err.value.offset == offset, source


def test_function_arity_and_calls():
    with pytest.raises(ParseError):
        parse("sin(u, v)", ["u", "v"])
    with pytest.raises(ParseError):
        parse("foo(u)", ["u"])
    with pytest.raises(ParseError):
        parse("sin u", ["u"])
    with pytest.raises(ParseError):
        parse("", ["u"])
    with pytest.raises(ParseError):
        parse("u v", ["u", "v"])  # no implicit multiplication


def test_roundtrip_catalog():
    sources = [
        "cos(u)*sin(v)",
        "1/sqrt(2)",
        "-u^-2",
        "2*pi - u/(1+v)",
        "u - v - 1",
        "u - (v - 1)",
        "u + (v - u)",
        "u * (v / u)",
        "u/(v*u)/2",
        "-(u + v)",
        "exp(0.2*u)*atan(v) + tan(u)^3",
        "(u + v)^2 - e",
    ]
    for s in sources:
        tree = parse(s, ["u", "v"])
        assert parse(to_source(tree), ["u", "v"]) == tree


_LEAVES = st.one_of(
    st.sampled_from([Var("u"), Var("v"), Const("pi"), Const("e")]),
    st.floats(min_value=0.0, max_value=1e6).map(Lit),
)


def _compound(children):
    return st.one_of(
        st.builds(Bin, st.sampled_from("+-*/"), children, children),
        st.builds(Neg, children),
        st.builds(Pow, children, st.floats(min_value=-4.0, max_value=4.0)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _compound, max_leaves=12))
def test_roundtrip_random_trees(tree):
    assert parse(to_source(tree), ["u", "v"]) == tree


def test_eval_examples():
    env = {"u": Jet.variable(jet_space(2, 2), 0, 1.0), "v": Jet.variable(jet_space(2, 2), 1, 2.0)}
    j = eval_on_jets(parse("u+v", ["u", "v"]), env)
    assert j.value == 3.0
    assert coeff(j, (1, 0)) == 1.0 and coeff(j, (0, 1)) == 1.0

    j2 = eval_on_jets(parse("u^2", ["u"]), {"u": Jet.variable(jet_space(1, 2), 0, 3.0)})
    assert np.allclose(j2.c, [9.0, 6.0, 1.0])


def test_eval_partials_vs_finite_differences():
    tree = parse("sin(u)*exp(v)", ["u", "v"])

    def f(u, v):
        return math.sin(u) * math.exp(v)

    u0, v0 = 0.4, 0.1
    env = {"u": Jet.variable(jet_space(2, 2), 0, u0), "v": Jet.variable(jet_space(2, 2), 1, v0)}
    j = eval_on_jets(tree, env)
    h = 1e-5
    fd_u = (f(u0 + h, v0) - f(u0 - h, v0)) / (2 * h)
    fd_v = (f(u0, v0 + h) - f(u0, v0 - h)) / (2 * h)
    fd_uv = (
        f(u0 + h, v0 + h) - f(u0 + h, v0 - h) - f(u0 - h, v0 + h) + f(u0 - h, v0 - h)
    ) / (4 * h * h)
    assert abs(partial(j, (1, 0)) - fd_u) <= 1e-6
    assert abs(partial(j, (0, 1)) - fd_v) <= 1e-6
    assert abs(partial(j, (1, 1)) - fd_uv) <= 1e-6


def test_unbound_variable_at_eval():
    tree = parse("u + v", ["u", "v"])
    with pytest.raises(KeyError):
        eval_on_jets(tree, {"u": Jet.variable(jet_space(1, 2), 0, 1.0)})


def test_referential_transparency():
    tree = parse("sin(u)*exp(v)/(1+u^2)", ["u", "v"])
    env = {"u": Jet.variable(jet_space(2, 3), 0, 0.7), "v": Jet.variable(jet_space(2, 3), 1, -0.2)}
    a = eval_on_jets(tree, env)
    b = eval_on_jets(tree, env)
    assert np.array_equal(a.c, b.c)


FUZZ_TOKENS = [
    "u", "v", "w", "sin", "cos", "exp", "log", "sqrt", "atan", "tan",
    "pi", "e", "1", "2.5", "0", "1e3", "(", ")", "+", "-", "*", "/", "^",
    ",", " ", ".", "..", "$", "abc", "_x",
]


def fuzz_parser(count, seed=0):
    rng = random.Random(seed)
    trees = errors = 0
    for _ in range(count):
        source = "".join(
            rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(1, 14))
        )
        try:
            parse(source, ["u", "v"])
            trees += 1
        except ParseError:
            errors += 1
    return trees, errors


def test_parser_fuzz_never_crashes():
    trees, errors = fuzz_parser(2000, seed=1)
    assert trees + errors == 2000
    assert trees > 0 and errors > 0
