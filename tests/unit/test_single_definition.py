"""One definition of "who hears whom": a source-level guard.

``repro.kernel.delivery`` is the only module allowed to interpret a
``RoundFaultPlan`` or to mint the omission / forgery fault events; the
four consumers read its ledger.  This reads the sources (no imports),
so it is cheap enough for the lint job and fails before a fifth copy of
the semantics can land.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The ledger's consumers: none of them may read the plan itself.
CONSUMERS = (
    "sync/engine.py",
    "net/interposer.py",
    "net/host.py",
    "array/engine.py",
    "verify/smt.py",
)
PLAN_READS = (".send_omissions", ".receive_omissions", ".forgeries", "plan.crashes")

#: Only the ledger narrates these; ``kernel/recorders.py`` compares against
#: them (``kind ==``) and never builds one.
LEDGER = "kernel/delivery.py"
LEDGER_KINDS = re.compile(
    r"(?<!== )FaultKind\.(SEND_OMISSION|RECEIVE_OMISSION|FORGERY)\b"
)

#: Private copies the ledger replaced; none may come back.
RETIRED = {
    "array/engine.py": ("_RoundFaults", "_effective_faults", "_filter_receive_omissions"),
    "verify/smt.py": ("_last_row", "_crash_row"),
    "sync/engine.py": ("FaultEvent",),
    "net/interposer.py": ("FaultEvent",),
}


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_consumers_never_interpret_the_round_plan(consumer):
    source = (SRC / consumer).read_text(encoding="utf-8")
    found = [needle for needle in PLAN_READS if needle in source]
    assert not found, f"{consumer} reads the fault plan itself: {found}"


def test_only_the_ledger_builds_omission_and_forgery_events():
    builders = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if LEDGER_KINDS.search(path.read_text(encoding="utf-8"))
    )
    assert builders == [LEDGER]


@pytest.mark.parametrize("module,names", sorted(RETIRED.items()))
def test_retired_copies_stay_retired(module, names):
    source = (SRC / module).read_text(encoding="utf-8")
    assert not [name for name in names if name in source]
