"""The layered benchmark: six workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N] [--seconds S]
                                    [--trace 0|1|both] [--smoke] [--out PATH]
    python3 benchmarks/suite/run.py agree A.json B.json

Every workload runs in its own fresh subprocess with a scrubbed
environment; outputs are checked on every pass; every metric is printed
by name with unit, direction and bound.  With ``--workload`` the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics for ``--trace 0``, the
per-layer metrics for ``--trace 1``.  The exit code is 0 only if every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

import agree
import harness

#: A workload subprocess that has not finished by then is killed.
CHILD_TIMEOUT_S = 170


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0, help="the only source of input variation")
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument(
        "--trace", nargs="?", const="1", default="0", choices=("0", "1", "both"),
        help="0: end-to-end metrics; 1: traced run, per-layer metrics; both",
    )
    parser.add_argument("--smoke", action="store_true", help="one short pass, shrunk sizes")
    parser.add_argument("--out", metavar="PATH", help="write the full result set here")
    parser.add_argument(
        "--break-expectation", action="store_true",
        help="self-test: invert every correctness check (the run must then fail)",
    )
    # The workload subprocess's own entry (not for interactive use).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    return parser


# ---------------------------------------------------------------------------
# The workload subprocess
# ---------------------------------------------------------------------------


def _child_main(args) -> int:
    import child

    harness.BROKEN = args.break_expectation
    try:
        result = child.run(
            args.workload, args.seed, args.seconds, args.trace == "1", args.smoke,
            args.spawned_at, Path(args.workdir),
        )
    except harness.SuiteError as error:
        print(f"suite: {error}", file=sys.stderr)
        return 2
    with open(args.result_file, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _spawn(name: str, trace: bool, args, seconds: float, workdir: Path) -> Dict[str, Any]:
    """Run one workload in a fresh process; its result, or an error record."""
    mode = "traced" if trace else "untraced"
    result_file = workdir / f"{name}-{mode}.json"
    own = workdir / f"{name}-{mode}"
    own.mkdir()
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--workdir", str(own),
        "--result-file", str(result_file), "--spawned-at", repr(time.time()),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.break_expectation:
        command.append("--break-expectation")
    # Its own session, so that a timeout takes the servers it started with it.
    proc = subprocess.Popen(
        command, env=harness.scrubbed_env(own), cwd=own, stdin=subprocess.DEVNULL,
        stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return {"error": f"{name} ({mode}) did not finish within {CHILD_TIMEOUT_S}s", "correct": False}
    if code != 0 or not result_file.is_file():
        return {"error": f"{name} ({mode}) exited with code {code}", "correct": False}
    with open(result_file, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


def _report_untraced(result: Dict[str, Any], spec: Dict[str, Any]) -> str:
    passes, latency = result["passes"], result["latency"]
    lines = [
        f"{result['workload']}: seed {result['seed']}, {passes['count']} passes of "
        f"{passes['ops'][0]} ops (op = one {result['op']}), "
        f"failed {result['failed']}/{result['attempted']}, "
        f"outcome_digest {result['outcome_digest'][:16]}"
        + ("" if result["digest_stable"] else " (UNSTABLE across passes)")
    ]
    rows = []
    for metric in spec["end_to_end"]:
        value = result["setup_s"] if metric["name"] == "setup_s" else result["end_to_end"][metric["name"]]
        rows.append([metric["name"], value, metric["unit"], metric["better"], f"{metric['bound']:.0%}"])
    rows.append(["failed_share", result["failed"] / result["attempted"], "ratio", "lower", "0 (absolute)"])
    lines.append(harness.table(["end-to-end metric", "value", "unit", "better", "bound"], rows))
    lines.append(
        f"latency: percentiles over the {latency['requests_per_pass']} requests of a pass "
        f"({latency['distinct_requests']} distinct), each at its floor over "
        f"{latency['executions_per_request']} executions"
    )
    return "\n".join(lines)


def _report_traced(result: Dict[str, Any], spec: Dict[str, Any]) -> str:
    trace = result["trace"]
    lines = [
        f"{result['workload']} (traced): seed {result['seed']}, traced wall "
        f"{trace['wall_s']:.3f} s, {len(trace['spans'])} spans, "
        f"failed {result['failed']}/{result['attempted']}"
    ]
    rows = [
        [m["name"], result["per_layer"].get(m["name"]), m["unit"], m["better"]]
        for m in spec["per_layer"]
    ]
    lines.append(harness.table(["per-layer metric", "value", "unit", "better"], rows))
    lines.append("")
    lines.append(
        harness.table(["span (rows sum to the traced wall)", "calls", "total_s", "self_s", "share"],
                      trace["rows"])
    )
    lines.extend(f"note: {note}" for note in result["notes"])
    return "\n".join(lines)


def _contract_metrics(result: Dict[str, Any], trace: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    if trace:
        values, metrics = result["per_layer"], spec["per_layer"]
    else:
        values, metrics = dict(result["end_to_end"], setup_s=result["setup_s"]), spec["end_to_end"]
    return {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "agree":
        return agree.main(argv[1:])
    args = _parser().parse_args(argv)
    if args.child:
        return _child_main(args)
    try:
        harness.require_sources()
    except harness.SuiteError as error:
        print(f"suite: {error}", file=sys.stderr)
        return 2
    spec = harness.load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"suite: unknown workload {args.workload!r}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else known
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds

    workdir = harness.make_workdir("run")
    results: Dict[str, Dict[str, Any]] = {name: {} for name in names}
    try:
        for name in names:
            for trace in modes:
                result = _spawn(name, trace, args, seconds, workdir)
                results[name]["traced" if trace else "untraced"] = result
                if "error" in result:
                    print(f"suite: {result['error']}", file=sys.stderr)
                else:
                    report = _report_traced if trace else _report_untraced
                    print(report(result, spec) + "\n", flush=True)
    finally:
        harness.remove_workdir(workdir)

    runs = [run for modes_of in results.values() for run in modes_of.values()]
    correct = all(run.get("correct") for run in runs)
    if args.out:
        document = {
            "suite": {
                "seed": args.seed, "run_seconds": seconds, "smoke": args.smoke,
                "environment": harness.environment(),
                "end_to_end": spec["end_to_end"],
            },
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    if any("error" in run for run in runs):
        return 1
    if len(runs) == 1:
        (run,) = runs
        print(harness.contract_line(
            correct, run["attempted"], run["failed"], _contract_metrics(run, modes[0], spec)
        ))
    else:
        print(harness.contract_line(
            correct, sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs), {}
        ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
