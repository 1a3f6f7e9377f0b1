"""No test monkeypatches a target of the recorder's table (`RECORDED` in
conftest.py) to count its calls, nor an entry of `calculus.TRACE_TERMS`,
whose producers run under the recorded `calculus._produce_term`: the
patches that inject a fault into a recorded target or a trace term are
listed in `INJECTED`, each with its reason."""

import ast
import glob
import os

from bihkit.calculus import TRACE_TERMS
from conftest import RECORDED

# (test file, test function, patched attribute or key): why the patch stays
INJECTED = {
    ("test_cli.py", "test_nan_residual_fails_audit_and_props", "b_norm2"):
        "a NaN |B|^2 at the last point of the second block",
    ("test_cli.py", "test_internal_error_in_a_hypothesis_check_exits_4", "flag_deviation"):
        "a flag check that raises an error other than FlagError",
    ("test_cli.py", "test_internal_error_during_validation_exits_4", "verify_flags"):
        "a flag pre-check that raises an error other than FlagError",
}


def _patches():
    """(file, module-level function, attribute or key) of each `setattr`
    or `setitem` call of a test file, None where it is not a string
    literal."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        if os.path.basename(path) == "conftest.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for func in tree.body:
            for node in ast.walk(func) if isinstance(func, ast.FunctionDef) else ():
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("setattr", "setitem")):
                    continue
                # setattr(owner, "name", value), setattr("module.name", value)
                # or setitem(mapping, "key", value)
                arg = node.args[1 if len(node.args) > 2 else 0]
                attr = arg.value.rsplit(".", 1)[-1] if isinstance(arg, ast.Constant) else None
                yield os.path.basename(path), func.name, attr


def test_no_count_pin_patches_a_recorded_target():
    """Every monkeypatch of a recorded target's name or a trace term, or of
    a name that is not a literal, is a listed injection, and every listed
    one is there."""
    recorded = {target.rsplit(".", 1)[1] for target in RECORDED} | set(TRACE_TERMS)
    found = [patch for patch in _patches() if patch[2] is None or patch[2] in recorded]
    assert sorted(found) == sorted(INJECTED)
