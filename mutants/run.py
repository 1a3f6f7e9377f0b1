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
time, on N worker threads (default 1).  Writes every record, in list
order, to `mutants/MUTANTS.json`, and exits 1 if a mutant expected
"killed" survived or one expected "equivalent" was killed.  Uses the
standard library only.
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
# tier-1 but the check of the mutant list itself, which every mutant fails
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py"]
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


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


def tier1(tree):
    """(passed, first failing test or None, seconds) of tier-1 in `tree`."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    seconds = round(time.monotonic() - started, 1)
    failed = _FAILED.search(proc.stdout)
    return proc.returncode == 0, failed.group(1) if failed else None, seconds


def run_mutant(pristine, work, mutant):
    tree = work / mutant["name"]
    shutil.copytree(pristine, tree)
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        raise SystemExit(f"{mutant['name']}: old text occurs {count} times in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    passed, first, seconds = tier1(tree)
    shutil.rmtree(tree)
    return {"name": mutant["name"], "file": mutant["file"], "expect": mutant["expect"],
            "result": "survived" if passed else "killed", "first_failure": first,
            "seconds": seconds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        pristine = work / "tree"
        export(pristine)
        passed, first, seconds = tier1(pristine)
        print(f"unmutated: {'pass' if passed else 'FAIL ' + str(first)} ({seconds} s)", flush=True)
        if not passed:
            return 2
        with ThreadPoolExecutor(max(1, args.jobs)) as pool:
            records = []
            for record in pool.map(lambda m: run_mutant(pristine, work, m), load_mutants()):
                print(f"{record['name']}: {record['result']} ({record['seconds']} s) "
                      f"{record['first_failure'] or ''}", flush=True)
                records.append(record)
    (ROOT / "mutants" / "MUTANTS.json").write_text(
        json.dumps({"unmutated_seconds": seconds, "mutants": records}, indent=1) + "\n",
        encoding="utf-8")
    wrong = [r["name"] for r in records
             if (r["expect"] == "killed") != (r["result"] == "killed")]
    if wrong:
        print(f"not as expected: {', '.join(wrong)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
