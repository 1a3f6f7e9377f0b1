"""Compare the CLI's catalog runs of this checkout with those of a git revision
or of another tree.

    python tools/catalog_diff.py REV
    python tools/catalog_diff.py DIR

Exports REV with `git archive` into a temporary directory, or copies the
`src/` of DIR, a directory (a tree with no commit, such as an unpacked copy),
there, and copies this checkout's `src/` beside it at the start, so that an
edit made during the run (a minute or more) does not mix two states into
"this checkout".  Then runs the same 192 CLI runs in both trees, each a
fresh `python -m bihkit.cli` process on that tree's own scenario files, on
`os.cpu_count()` worker threads (a run's two trees one after the other on
one worker); the output keeps the runs' order.  The runs share one bytecode cache in the temporary
directory (`PYTHONPYCACHEPREFIX`), so each module is compiled once and no
`__pycache__` is written into either tree:

  * check, audit, props, energy and variation on c01-c18 and m1-m6;
  * check with --mode direct, --mode theorem, --errata off and --tol 1e-30
    on c01-c18.

A run matches when its exit code, stderr and stdout are equal after the
wall-time line is dropped (`bihkit.report.strip_volatile`) and each tree's
path is replaced by `<tree>`.  Prints every run that differs, with a short
diff, and exits 1 if any does.  Each differing run is labelled "numbers
within the 1e-12 rule" when its exit code and stderr are equal and its
stdout differs only in numbers that agree to the benchmark's equality rule
(`reports_match` of perfbench/jobs.py: 1e-12 relative, or 1e-12 absolute),
"beyond the rule" otherwise, with the worst relative change among the
changed numbers above the 1e-12 absolute floor.  Also prints one line
with the line count of `src/bihkit/*.py` in both trees.  Uses the standard
library and this checkout's `bihkit.report` only.
"""

from __future__ import annotations

import difflib
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from bihkit.report import strip_volatile  # noqa: E402
from jobs import _NUMBER, ATOL, reports_match  # noqa: E402

SCENARIOS = Path("src", "bihkit", "scenarios")
COMMANDS = ("check", "audit", "props", "energy", "variation")
CHECK_OPTIONS = (("--mode", "direct"), ("--mode", "theorem"), ("--errata", "off"),
                 ("--tol", "1e-30"))


def runs(tree):
    """(label, argv after `python -m bihkit.cli`) of every run, in order."""
    names = sorted(p.stem for p in (tree / SCENARIOS).glob("*.scn"))
    catalog = [n for n in names if n.startswith("c")]
    out = [(f"{cmd} {name}", [cmd, name]) for name in names for cmd in COMMANDS]
    out += [(f"check {name} {' '.join(opt)}", ["check", name, *opt])
            for name in catalog for opt in CHECK_OPTIONS]
    return out


def run(tree, argv):
    """(exit code, stderr, stdout) of one run in `tree`, normalized."""
    cmd, name, *opts = argv
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONPYCACHEPREFIX=str(tree.parent / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "bihkit.cli", cmd, str(tree / SCENARIOS / f"{name}.scn"), *opts],
        cwd=tree, env=env, capture_output=True, text=True)
    return (proc.returncode, proc.stderr.replace(str(tree), "<tree>"),
            strip_volatile(proc.stdout).replace(str(tree), "<tree>"))


def worst_relative_change(a, b):
    """The largest |x - y| / max(|x|, |y|) over the numbers of the lines of
    `a` and `b` that differ only in numbers, where max(|x|, |y|) > ATOL; 0.0
    if there is none."""
    worst = 0.0
    for line_a, line_b in zip(a.splitlines(), b.splitlines()):
        if line_a == line_b or _NUMBER.split(line_a) != _NUMBER.split(line_b):
            continue
        for x, y in zip(map(float, _NUMBER.findall(line_a)), map(float, _NUMBER.findall(line_b))):
            size = max(abs(x), abs(y))
            if x != y and size > ATOL:
                worst = max(worst, abs(x - y) / size)
    return worst


def within_rule(theirs, mine):
    """Whether a run (exit code, stderr, stdout) keeps its exit code and
    stderr and moves only numbers within the 1e-12 rule."""
    return theirs[:2] == mine[:2] and reports_match(theirs[2], mine[2])


def src_lines(tree):
    """The number of lines of the modules `src/bihkit/*.py` of `tree`."""
    return sum(path.read_bytes().count(b"\n") for path in Path(tree, "src", "bihkit").glob("*.py"))


def export(rev, dest):
    """Extract the files of `rev` into `dest` with `git archive`."""
    archive = Path(dest, "rev.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=fh, check=True)
    tree = Path(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    return tree


def copy_src(tree, dest):
    """Copy the `src/` of `tree` into `dest`, without bytecode, and return `dest`."""
    shutil.copytree(Path(tree, "src"), Path(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return Path(dest)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("\n".join(line.strip() for line in __doc__.strip().splitlines()[3:5]),
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        other = (copy_src(args[0], Path(tmp, "tree")) if Path(args[0]).is_dir()
                 else export(args[0], tmp))
        ours = copy_src(ROOT, Path(tmp, "ours"))
        print(f"src/ lines: {src_lines(other)} in {args[0]}, {src_lines(ours)} in this checkout")
        jobs = runs(ours)
        if jobs != runs(other):
            print(f"the scenario catalogs of {args[0]} and this checkout differ")
            return 1
        differ = within = 0
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            pairs = list(pool.map(lambda argv: (run(other, argv), run(ours, argv)),
                                  [argv for _, argv in jobs]))
        for (label, _), (theirs, mine) in zip(jobs, pairs):
            if theirs == mine:
                continue
            differ += 1
            ok = within_rule(theirs, mine)
            within += ok
            rule = "numbers within the 1e-12 rule" if ok else "beyond the rule"
            worst = worst_relative_change(theirs[2], mine[2])
            print(f"DIFFERS: {label} ({rule}; worst relative change {worst:.2g} among numbers "
                  f"above the {ATOL:g} floor)")
            for what, a, b in zip(("exit code", "stderr", "stdout"), theirs, mine):
                if a == b:
                    continue
                if what == "exit code":
                    print(f"  exit code {a} -> {b}")
                    continue
                diff = difflib.unified_diff(str(a).splitlines(), str(b).splitlines(),
                                            f"{args[0]} {what}", f"checkout {what}",
                                            lineterm="", n=1)
                print("\n".join("  " + line for line in list(diff)[:40]))
    print(f"{differ} of {len(jobs)} runs differ from {args[0]}, {within} of them only in "
          "numbers within the 1e-12 rule")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
