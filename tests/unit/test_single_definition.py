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

A canonical Π's round is batched once too, whichever figure wraps it:
FloodMin's flood-merge and phase-queen's ballot tally each appear once in
the array plane, in their Π twins, which Figure 2's and Figure 3's
wrappers share.  The state bridge of a dense twin is written once as
well, in ``_DenseTwin``: each twin writes only its row codec.

The clock family is declared once too: Figure 1's round agreement, its
ablations and the unison protocols state a ``rule`` (``repro.sync.clock``)
and neither spell out the methods derived from it nor get a hand-written
batched twin or a matcher branch of their own.

Symmetry reduction has one path too: ``canonical_key`` relabels the
touched pids at every n, and no size gate switches it off.

A static topology is two integer columns, built once: no
``_StaticTopology`` subclass (nor a helper of the module) grows one
adjacency set per process, and the array plane's ``_CsrGraph`` wraps the
columns instead of re-packing per-pid receiver tuples with ``fromiter``.
A crash is stated once on the array wire as well: a silenced sender is
one mask on the sender (``send_ok``), never a copy per out-edge, so a
crash on a ring builds no per-pid tuples and no edge-grouped tables (the
one guard here that runs the engine).

A package surface is lazy, and made one way: a package ``__init__`` binds
no ``repro`` name by an import of its own, only through
``repro._lazy.lazy_surface``, so importing one module of a plane never
imports the rest of the system again.
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
    "array/engine.py": (
        "_RoundFaults",
        "_effective_faults",
        "_filter_receive_omissions",
        "dead_keep",
        "dropped_edges",
    ),
    "net/interposer.py": ("FaultEvent",),
    "sync/engine.py": ("FaultEvent",),
    "verify/smt.py": ("_last_row", "_crash_row"),
    "array/protocols.py": (
        "ArrayClockMerge",
        "ArrayBoundedUnison",
        "_ClockColumnProtocol",
        "ArrayCompiledFloodMin",
        "ArrayFtFloodMin",
        "ArrayPhaseQueen",
        "_FloodMinCodec",
        "register_array_protocol",
        "_MATCHERS",
    ),
    "explore/space.py": ("MAX_CANONICAL_N",),
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


#: A Π round's one vectorised statement in ``array/protocols.py``: FloodMin's
#: flood-merge and phase-queen's ballot tally (both values in one expression).
PI_ROUNDS = {"floodmin-merge": "bitwise_or.reduce(", "phase-queen-tally": ".sum(axis=2)"}


@pytest.mark.parametrize("what", sorted(PI_ROUNDS))
def test_each_pi_round_is_spelled_once(what):
    source = (SRC / "array/protocols.py").read_text("utf-8")
    assert source.count(PI_ROUNDS[what]) == 1, f"{what} is spelled more than once (or not at all)"


#: What ``_DenseTwin`` writes once; a dense twin writes only its row codec.
DENSE_BRIDGE = {"initial_states", "load_states", "read_states"}


def test_dense_twins_share_one_bridge():
    classes = _classes("array/protocols.py")
    dense = {"_DenseTwin"}
    while True:  # its subclasses, however deep
        found = {
            name
            for name, node in classes.items()
            if {base.id for base in node.bases if isinstance(base, ast.Name)} & dense
        }
        if found <= dense:
            break
        dense |= found
    assert {"_ArrayRunner", "_ArrayCompiled", "ArrayDetectorStack"} <= dense
    for name in sorted(dense - {"_DenseTwin"}):
        spelled = {node.name for node in classes[name].body if isinstance(node, ast.FunctionDef)}
        assert not spelled & DENSE_BRIDGE, f"{name} spells out {sorted(spelled & DENSE_BRIDGE)}"


#: The one import a package ``__init__`` may make from ``repro``.
LAZY_HELPER = ("repro._lazy", "lazy_surface")
#: ``repro.cache``'s own functions (``get_cache``, ``cached_call``) are the
#: cache's hot path and need ``RunCache`` bound; its imports are cheap.
EAGER_INITS = {"cache/__init__.py"}


def _runtime_imports(body):
    """Import statements a module body runs (``if TYPE_CHECKING:`` never does)."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                yield from _runtime_imports(node.body)
            yield from _runtime_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _runtime_imports(block)
            for handler in node.handlers:
                yield from _runtime_imports(handler.body)


def _package_inits():
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("__init__.py")
        if str(path.relative_to(SRC)) not in EAGER_INITS
    )


@pytest.mark.parametrize("init", _package_inits())
def test_package_surfaces_bind_repro_names_only_lazily(init):
    tree = ast.parse((SRC / init).read_text("utf-8"))
    eager = []
    for node in _runtime_imports(tree.body):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = tuple(alias.name for alias in node.names)
            if (module == "repro" or module.startswith(("repro.", "."))) and (
                (module, names) != (LAZY_HELPER[0], (LAZY_HELPER[1],))
            ):
                eager.append(f"from {module} import {', '.join(names)}")
        else:
            eager += [
                f"import {alias.name}"
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            ]
    assert eager == [], f"{init} imports eagerly: {eager}"
    hand_written = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("__getattr__", "__dir__")
    ]
    assert hand_written == [], f"{init} writes its own {hand_written}"


def _per_process_sets(node):
    """Sets built once per element of a comprehension, and ``.add`` /
    ``.update`` calls on a subscripted set (``adjacency[u].add(v)``)."""
    for inner in ast.walk(node):
        if isinstance(inner, (ast.ListComp, ast.GeneratorExp)):
            elt = inner.elt
            if isinstance(elt, (ast.Set, ast.SetComp)) or (
                isinstance(elt, ast.Call) and getattr(elt.func, "id", None) == "set"
            ):
                yield ast.unparse(inner)
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr in ("add", "update")
            and isinstance(inner.func.value, ast.Subscript)
        ):
            yield ast.unparse(inner)


def test_static_topologies_build_no_per_process_sets():
    tree = ast.parse((SRC / "kernel/topology.py").read_text("utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    static = {"_StaticTopology"} | {
        name
        for name, node in classes.items()
        if "_StaticTopology" in {base.id for base in node.bases if isinstance(base, ast.Name)}
    }
    assert {"RingTopology", "GridTopology", "TreeTopology", "ExplicitTopology"} <= static
    helpers = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in [classes[name] for name in sorted(static)] + helpers:
        assert not list(_per_process_sets(node)), node.name


def test_the_csr_graph_wraps_columns_and_packs_no_receivers():
    csr = _classes("array/engine.py")["_CsrGraph"]
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(csr)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not names & {"fromiter", "chain", "from_iterable", "_edges"}


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_a_clean_crash_is_one_sender_mask(monkeypatch, backend):
    from repro.array import has_numpy, run_array
    from repro.array.engine import RoundWire
    from repro.kernel.faults import FaultPlan
    from repro.kernel.topology import RingTopology
    from repro.protocols.unison import MinUnison

    if backend == "numpy" and not has_numpy():
        pytest.skip("NumPy is not installed")
    wires = []
    reduce = RoundWire.reduce

    def spying(wire, column, op):
        wires.append((wire.graph, wire.keep, wire.send_ok))
        return reduce(wire, column, op)

    monkeypatch.setattr(RoundWire, "reduce", spying)
    ring = RingTopology(2048)
    result = run_array(
        MinUnison(), ring.n, 5, fault_plans=[FaultPlan(crashes={7: 2.0}), None],
        topology=ring, backend=backend, chunk=512,
    )
    assert result.crashed == [frozenset({7}), frozenset()]
    assert "_receivers" not in vars(ring)
    (graph,) = {id(graph): graph for graph, _keep, _send_ok in wires}.values()
    assert not vars(graph).keys() & {"by_src", "edge_columns", "sender_columns"}
    assert [keep for _graph, keep, _send_ok in wires] == [None] * 5
    assert sum(send_ok is not None for _graph, _keep, send_ok in wires) == 4
