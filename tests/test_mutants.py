"""The mutation catalogue stays applicable: a refactor that moves the code a
mutant targets must update the entry, not turn it into a no-op. The
catalogue is read by path, unchanged; running it is ``tools/mutants.py``'s job."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
sys.modules["mutants"] = mutants  # dataclasses look their module up there
spec.loader.exec_module(mutants)


def test_every_live_mutant_applies_once_and_changes_its_file():
    for m in mutants.MUTANTS:
        assert all(old != new for old, new in m.pairs), m.id
        assert mutants.mutated((ROOT / m.path).read_text(), m) is not None, m.id


def test_every_entry_names_its_killers_or_why_it_has_none():
    ids = [m.id for m in mutants.MUTANTS] + [r.id for r in mutants.RETIRED]
    assert len(set(ids)) == len(ids)
    assert all(r.reason for r in mutants.RETIRED)
    for m in mutants.MUTANTS:
        assert len(m.killers) >= 2 or (len(m.killers) == 1 and m.pinned), m.id
        for killer in m.killers:
            path, *_, name = killer.split("::")
            assert re.search(rf"def {name}\(", (ROOT / "tests" / path).read_text()), (m.id, killer)
