"""No `np.einsum` in `src/bihkit` contracts more than two operands, except
the listed ones: a contraction two operands at a time has one float order,
shared by every reader of a quantity (see the `calculus` docstring)."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "bihkit")

# (module, enclosing function): why its einsum keeps more than two operands.
# A two-operand order moves a finite difference of `variation c08` beyond
# the benchmark's 1e-12 equality rule.
ALLOWED = {
    ("variational.py", "_deformed_tension_data"):
        "tr nabla dpsi at the frozen metric: E2 at h = 1e-4 moves by 4.1e-11 relative",
    ("variational.py", "_densities"):
        "|dpsi|^2, as `form_norm2`: E at h = 1e-3 moves by 1.1e-11 relative",
}


def multi_operand_einsums(source):
    """(enclosing function, operand count) of each einsum call in `source`
    with more than two operands; a starred argument counts as many."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "einsum":
                    operands = len(child.args) - 1
                    if any(isinstance(a, ast.Starred) for a in child.args):
                        operands = float("inf")
                    if operands > 2:
                        found.append((function, operands))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_scan_finds_multi_operand_einsums():
    source = '''
import numpy as np
def f(a, b, c):
    x = np.einsum("ij,jk->ik", a, b)
    def inner(ops):
        return np.einsum("i,i,i->", a, b, c) + np.einsum("i->", *ops)
    return x
'''
    assert multi_operand_einsums(source) == [("inner", 3), ("inner", float("inf"))]


def test_only_the_listed_einsums_have_more_than_two_operands():
    """A new call fails, and so does a listed call that is gone."""
    seen = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as handle:
            for function, operands in multi_operand_einsums(handle.read()):
                assert (name, function) in ALLOWED, (name, function, operands)
                assert (name, function) not in seen, ("two calls in", name, function)
                seen.add((name, function))
    assert seen == set(ALLOWED)
