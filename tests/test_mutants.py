"""The mutant list of `mutants/` stays applicable: `mutants/run.py` runs
tier-1 against each mutant and records the outcomes in
`mutants/MUTANTS.json`; this test, which the runner leaves out, checks
only that every mutant still names its text in `src/`."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "mutants" / "mutants.py")
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
MUTANTS = _module.MUTANTS


def test_mutant_names_and_outcomes_are_well_formed():
    names = [mutant["name"] for mutant in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert mutant["expect"] in ("killed", "equivalent") and mutant["by"], mutant["name"]
        assert mutant["old"] != mutant["new"], mutant["name"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant["name"] for mutant in MUTANTS])
def test_mutant_old_text_occurs_once_in_src(mutant):
    path = ROOT / mutant["file"]
    assert path.relative_to(ROOT).parts[0] == "src"
    assert path.read_text(encoding="utf-8").count(mutant["old"]) == 1
