"""One definition of "who hears whom": a source-level guard.

``repro.kernel.delivery`` is the only module allowed to interpret a
``RoundFaultPlan`` or to mint the omission / forgery fault events; the
four consumers read its ledger.  This reads the sources (no imports),
so it is cheap enough for the lint job and fails before a fifth copy of
the semantics can land.  The same goes for the receive side's one
statement (``RoundLedger.accepts``) and for what a protocol may ask of
an inbox item: ``sender``, ``sent_round``, ``payload`` — on the
synchronous wire the item is a whole broadcast, which has no one
``receiver``, and the inbox may be shared, so nobody mutates it.

The clock family is declared once too: Figure 1's round agreement, its
ablations and the unison protocols state a ``rule`` (``repro.sync.clock``)
and neither spell out the methods derived from it nor get a hand-written
batched twin or a matcher branch of their own.
"""

import ast
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
#: (Newcomers go last: a test's id is its index here.)
RETIRED = {
    "array/engine.py": ("_RoundFaults", "_effective_faults", "_filter_receive_omissions"),
    "net/interposer.py": ("FaultEvent",),
    "sync/engine.py": ("FaultEvent",),
    "verify/smt.py": ("_last_row", "_crash_row"),
    "array/protocols.py": ("ArrayClockMerge", "ArrayBoundedUnison", "_ClockColumnProtocol"),
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


@pytest.mark.parametrize("module,names", list(RETIRED.items()))
def test_retired_copies_stay_retired(module, names):
    source = (SRC / module).read_text(encoding="utf-8")
    assert not [name for name in names if name in source]


def test_receive_side_rule_is_stated_once():
    """Whoever records a receive omission decides who hears whom."""
    writers = {
        str(path.relative_to(SRC)): len(
            re.findall(
                # the ledger's map, not the recorder's ``_omitted_receives`` of fault events
                r"(?<!_)omitted_receives(\.setdefault|\[[^]]*\]\s*=[^=])",
                path.read_text("utf-8"),
            )
        )
        for path in SRC.rglob("*.py")
    }
    assert {name: count for name, count in writers.items() if count} == {LEDGER: 1}
    ledger = ast.parse((SRC / LEDGER).read_text("utf-8"))
    (accepts,) = [
        node
        for node in ast.walk(ledger)
        if isinstance(node, ast.FunctionDef) and node.name == "accepts"
    ]
    assert "omitted_receives" in ast.unparse(accepts) and " in self.dead" in ast.unparse(accepts)
    # ... and no other method of the ledger looks at the dead: they ask ``accepts``
    others = [
        node.name
        for node in ast.walk(ledger)
        if isinstance(node, ast.FunctionDef)
        and node.name not in ("accepts", "__init__")
        and re.search(r"\.dead\b", ast.unparse(node))
    ]
    assert others == []


#: What ``update`` may do to the inbox it is handed would show as one of these.
MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}


def _protocol_updates():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "update"
                and [arg.arg for arg in node.args.args[:3]] == ["self", "pid", "state"]
            ):
                yield str(path.relative_to(SRC)), node


def test_no_update_reads_a_receiver_or_mutates_its_inbox():
    updates = list(_protocol_updates())
    assert len(updates) >= 7  # the walk found the protocols
    for module, update in updates:
        inbox = update.args.args[3].arg
        for node in ast.walk(update):
            if isinstance(node, ast.Attribute):
                assert node.attr != "receiver", f"{module}: update() reads .receiver"
                owner = node.value
                if isinstance(owner, ast.Name) and owner.id == inbox:
                    assert node.attr not in MUTATORS, f"{module}: update() mutates its inbox"
            if isinstance(node, (ast.Subscript, ast.Delete)) and isinstance(
                getattr(node, "ctx", None), (ast.Store, ast.Del)
            ):
                target = node.value if isinstance(node, ast.Subscript) else None
                assert not (
                    isinstance(target, ast.Name) and target.id == inbox
                ), f"{module}: update() writes into its inbox"


#: The clock declarations, by module, and what ``repro.sync.clock`` derives for them.
CLOCKS = {
    "core/rounds.py": (
        "RoundAgreementProtocol",
        "MinMergeRoundProtocol",
        "FreeRunningRoundProtocol",
    ),
    "protocols/unison.py": ("MinUnison", "BoundedUnison"),
}
DERIVED = {"initial_state", "send", "update", "arbitrary_state", "arbitrary_columns"}


def _classes(module):
    tree = ast.parse((SRC / module).read_text("utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}


@pytest.mark.parametrize("module,names", sorted(CLOCKS.items()))
def test_clock_protocols_only_declare_their_rule(module, names):
    classes = _classes(module)
    for name in names:
        body = classes[name].body
        spelled = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        assert not spelled & DERIVED, f"{name} spells out {sorted(spelled & DERIVED)}"
        assigned = {
            target.id
            for node in body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        # its own: a subclass that declares nothing falls back off the array plane
        assert "reductions" in assigned, f"{name} does not declare its reductions"


def test_the_builtin_matcher_has_no_clock_branch():
    tree = ast.parse((SRC / "array/protocols.py").read_text("utf-8"))
    (matcher,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_builtin_matcher"
    ]
    named = {node.id for node in ast.walk(matcher) if isinstance(node, ast.Name)}
    clocks = {name for names in CLOCKS.values() for name in names}
    assert not named & clocks
