"""Run tier-1 against each mutant of `mutants/mutants.py`.

    python mutants/run.py [--jobs N]

Exports HEAD with `git archive` into a temporary directory and lays this
checkout's changes over it (files changed since HEAD, staged or not, and
untracked ones copied, deleted ones removed), so that the copy is the tree
as it stands.  Runs
tier-1 there once unmutated, which must pass.  Then, for each mutant, on a
fresh copy of that tree with the mutant's `old` text (which must occur
exactly once in its file) replaced by its `new` text, runs

    python -m pytest -q -x -p no:cacheprovider --ignore=tests/test_mutants.py

with `PYTHONPATH=src` and no bytecode written (tier-1 but the test of the
mutant list, which no mutated tree passes), and records whether tier-1
failed ("killed") or passed ("survived"), the first failing test and the
time, on N worker threads (default 1).  After a kill it runs the mutant's
`by` test alone on the same tree and records whether it failed
(`by_failed`; null when tier-1 passed), since tier-1 stops at the first
failure, which may be another test.  Writes every record, in list order,
to `mutants/MUTANTS.json`, and exits 1 if a mutant expected "killed"
survived or was killed but not by its `by` test, or one expected
"equivalent" was killed.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
# tier-1 but the check of the mutant list itself, which every mutant fails
TIER1 = ["-x", "--ignore=tests/test_mutants.py"]
# a test id may hold spaces (in a parameter id); pytest's message follows " - "
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "mutants" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def export(dest):
    """HEAD's files with this checkout's changes to them, staged or not, and
    its untracked files, into `dest`."""
    archive = dest.parent / "head.tar"
    archive.write_bytes(subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True,
                                       capture_output=True).stdout)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    git = lambda *args: subprocess.run(["git", *args, "-z"], cwd=ROOT, check=True,
                                       capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, git("diff", "--name-only", "HEAD")
                       + git("ls-files", "--others", "--exclude-standard")):
        if (ROOT / name).exists():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
        else:
            (dest / name).unlink(missing_ok=True)


def pytest(tree, args=TIER1):
    """(pytest's exit code, first failing test or None, seconds) of a run
    in `tree`, of tier-1 by default."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    proc = subprocess.run(PYTEST + args, cwd=tree, env=env, capture_output=True, text=True)
    seconds = round(time.monotonic() - started, 1)
    failed = _FAILED.search(proc.stdout)
    return proc.returncode, failed.group(1) if failed else None, seconds


def run_mutant(pristine, work, mutant):
    tree = work / mutant["name"]
    shutil.copytree(pristine, tree)
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        raise SystemExit(f"{mutant['name']}: old text occurs {count} times in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    code, first, seconds = pytest(tree)
    by_failed = None
    if code and mutant["expect"] == "killed":
        # exit code 1: the test ran and failed (one that is not found is 4)
        by_failed = pytest(tree, [mutant["by"]])[0] == 1
    shutil.rmtree(tree)
    return {"name": mutant["name"], "file": mutant["file"], "expect": mutant["expect"],
            "result": "killed" if code else "survived", "first_failure": first,
            "by": mutant["by"], "by_failed": by_failed, "seconds": seconds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        pristine = work / "tree"
        export(pristine)
        code, first, seconds = pytest(pristine)
        print(f"unmutated: {'FAIL ' + str(first) if code else 'pass'} ({seconds} s)", flush=True)
        if code:
            return 2
        with ThreadPoolExecutor(max(1, args.jobs)) as pool:
            records = []
            for record in pool.map(lambda m: run_mutant(pristine, work, m), load_mutants()):
                by = " (its `by` test passed)" if record["by_failed"] is False else ""
                print(f"{record['name']}: {record['result']}{by} ({record['seconds']} s) "
                      f"{record['first_failure'] or ''}", flush=True)
                records.append(record)
    (ROOT / "mutants" / "MUTANTS.json").write_text(
        json.dumps({"unmutated_seconds": seconds, "mutants": records}, indent=1) + "\n",
        encoding="utf-8")
    wrong = [r["name"] for r in records
             if (r["expect"] == "killed") != (r["result"] == "killed") or r["by_failed"] is False]
    if wrong:
        print(f"not as expected: {', '.join(wrong)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
