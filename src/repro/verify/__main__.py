"""CLI front-end for the verification plane.

Usage::

    python -m repro.verify prove  TARGET [--at R] [--engine E] [--space S]
                                         [--n N] [--k K] [--jobs J]
                                         [--out DIR] [--no-cache]
    python -m repro.verify refute TARGET [same flags]
    python -m repro.verify certify [ARTIFACT ...] [--jobs J] [--out DIR]
                                   [--no-cache]
    python -m repro.verify recheck CERTIFICATE [--jobs J] [--no-cache]
    python -m repro.verify list

``prove`` exits 0 iff the claim holds on the *entire* space; ``refute``
exits 0 iff a counterexample exists — and replays it through the
definition-grade confirm path, requiring byte-identical violations,
before believing it.  Both write a certificate when ``--out`` is given.
``--engine both`` runs the explicit and SMT engines and demands verdict
agreement (the conformance gate CI runs where z3 is installed).

``certify`` proves EXPLORE-shrunk counterexamples *provably minimal*:
with no arguments it regenerates the thm1/thm2 findings exactly as the
explore smoke does and certifies both; with artifact paths it certifies
those.

``recheck`` re-verifies a saved certificate *from its own description*:
a proof certificate has its space re-enumerated and must reproduce the
certified verdict, cardinality, and frontier digest bit-for-bit; a
counterexample certificate must replay its embedded artifact
byte-identically (and re-refute its space); a minimality certificate
has the shrink neighborhood re-exhausted.  Any divergence — including
a tampered certificate — exits 1.

Exit codes: 0 success, 1 wrong verdict / not minimal / mismatch,
2 usage, 3 capability (SMT requested but z3 unavailable).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Optional

import repro.cache
from repro.explore.artifacts import load_artifact, replay
from repro.verify import (
    SmtUnavailableError,
    SmtUnsupportedError,
    VERIFY_TARGETS,
    cross_check,
    get_verify_target,
    verify,
)
from repro.verify.certificates import (
    certificate_from_result,
    load_certificate,
    save_certificate,
)
from repro.verify.explicit import SpaceTooLargeError, explicit_verify
from repro.verify.minimal import certify_minimal
from repro.verify.result import VerifyResult

#: Exit code for "the requested capability is absent" (z3 not installed).
EXIT_CAPABILITY = 3

#: Budgets that exhaustively enumerate the thm1/thm2 spaces (matching
#: the explore smoke, so ``certify`` regenerates the same artifacts).
CERTIFY_THM1_BUDGET = 96
CERTIFY_THM2_BUDGET = 64


def _summarize(result: VerifyResult) -> str:
    lines = [
        f"[{result.target}@{result.at}] {result.engine}: {result.verdict} — "
        f"{result.raw_plans} plans, {result.symmetry_dropped} symmetric, "
        f"{result.examined} examined, {result.violating} violating, "
        f"{len(result.mismatches)} checker mismatch(es)"
    ]
    if result.frontier is not None:
        f = result.frontier
        lines.append(
            f"  frontier: {f.states_visited} states visited, "
            f"{f.states_distinct} distinct (dedup {f.dedup_hit_ratio:.0%}), "
            f"digest {f.digest[:16]}"
        )
    if result.counterexample is not None:
        lines.append(f"  counterexample: {result.counterexample.to_jsonable()}")
        if result.counterexample_clocks:
            lines.append(
                f"  solver-exhibited initial clocks: {result.counterexample_clocks}"
            )
        if result.counterexample_verdict is not None:
            for violation in result.counterexample_verdict.violations[:3]:
                lines.append(f"      {violation}")
    for spec, streaming, confirm in result.mismatches:
        lines.append(
            f"  ! streaming/confirm disagree on {spec.to_jsonable()}: "
            f"streaming holds={streaming.holds}, confirm holds={confirm.holds}"
        )
    return "\n".join(lines)


def _resolve_space(target_name: str, which: str):
    target = get_verify_target(target_name)
    if which == "default":
        return target.space
    if target.smoke_space is None:
        raise SystemExit(
            f"target {target_name!r} has no smoke space; use --space default"
        )
    return target.smoke_space


def _run_engines(args):
    """Run the requested engine(s); returns (results, space)."""
    space = _resolve_space(args.target, args.space)
    engines = ("explicit", "smt") if args.engine == "both" else (args.engine,)
    results = []
    for engine in engines:
        results.append(
            verify(
                args.target,
                n=args.n,
                k=args.k,
                space=space,
                at=args.at,
                engine=engine,
                jobs=args.jobs,
                max_plans=args.max_plans,
            )
        )
    return results, space


def _prove_or_refute(args, want: str) -> int:
    try:
        results, space = _run_engines(args)
    except SmtUnavailableError as exc:
        print(f"SKIPPED (capability): {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except SmtUnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except SpaceTooLargeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    target = get_verify_target(args.target)
    failures: List[str] = []
    for result in results:
        print(_summarize(result))
        if result.mismatches:
            failures.append(
                f"{result.engine}: streaming/confirm mismatch on "
                f"{len(result.mismatches)} plan(s)"
            )
        if result.verdict != want:
            failures.append(
                f"{result.engine}: expected {want!r}, got {result.verdict!r}"
            )
    if len(results) == 2 and results[0].verdict != results[1].verdict:
        failures.append(
            f"engine disagreement: explicit={results[0].verdict!r} "
            f"smt={results[1].verdict!r}"
        )
    # A refutation is only believed once the counterexample replays
    # byte-identically through the definition-grade oracle (at the same
    # stabilization time the refutation was instantiated at).
    if want == "refuted":
        from repro.verify.targets import confirm_verdict

        for result in results:
            if result.counterexample is None:
                continue
            if result.counterexample_clocks:
                continue  # solver-exhibited start: no seeded spec replays it
            stored = result.counterexample_verdict
            rerun = confirm_verdict(target, result.at, result.counterexample)
            if (
                stored is None
                or rerun.holds != stored.holds
                or tuple(rerun.violations) != tuple(stored.violations)
            ):
                failures.append(
                    f"{result.engine}: counterexample did not replay to the "
                    "same confirm verdict"
                )
            else:
                print(
                    f"  counterexample replayed byte-identically "
                    f"({rerun.checker})"
                )
    if args.out:
        out_dir = pathlib.Path(args.out)
        for result in results:
            path = save_certificate(
                out_dir, certificate_from_result(target, result, space)
            )
            print(f"  wrote {path}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_prove(args) -> int:
    return _prove_or_refute(args, "proved")


def _cmd_refute(args) -> int:
    return _prove_or_refute(args, "refuted")


def _certify_one(artifact, jobs, out_dir) -> List[str]:
    failures: List[str] = []
    outcome = replay(artifact)
    if not outcome.reproduced:
        failures.append(f"{artifact.target}: artifact replay did not reproduce")
    check = cross_check(artifact)
    if not check.consistent:
        failures.append(
            f"{artifact.target}: verify-model cross-check inconsistent "
            f"(reproduced={check.reproduced}, streaming holds="
            f"{check.streaming.holds}, confirm holds={check.confirm.holds})"
        )
    result = certify_minimal(artifact, jobs=jobs)
    print(
        f"[{artifact.target}] neighborhood of {result.neighborhood_size} "
        f"strictly-smaller spec(s) exhausted: "
        f"{len(result.violating)} violating — "
        + ("PROVABLY MINIMAL" if result.minimal else "NOT MINIMAL")
    )
    if not result.minimal:
        for spec in result.violating[:3]:
            print(f"    smaller violating spec: {spec.to_jsonable()}")
        failures.append(f"{artifact.target}: artifact is not provably minimal")
    elif out_dir is not None:
        path = save_certificate(out_dir, result.certificate())
        print(f"  wrote {path}")
    return failures


def _cmd_certify(args) -> int:
    out_dir = pathlib.Path(args.out) if args.out else None
    failures: List[str] = []
    if args.artifacts:
        artifacts = [load_artifact(path) for path in args.artifacts]
    else:
        # Regenerate the impossibility findings the explore smoke ships.
        from repro.explore.__main__ import _finding_artifact
        from repro.explore.engine import explore

        artifacts = []
        for name, budget in (
            ("thm1", CERTIFY_THM1_BUDGET),
            ("thm2", CERTIFY_THM2_BUDGET),
        ):
            result = explore(
                name, budget=budget, seed=args.seed, jobs=args.jobs, mode="enumerate"
            )
            if not result.findings:
                failures.append(f"{name}: exploration found no counterexample")
                continue
            artifacts.append(_finding_artifact(result, 0))
    for artifact in artifacts:
        failures.extend(_certify_one(artifact, args.jobs, out_dir))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _recheck_artifact(artifact) -> List[str]:
    """Replay an embedded artifact through both oracles; all failures."""
    failures: List[str] = []
    outcome = replay(artifact)
    if not outcome.reproduced:
        failures.append(
            f"{artifact.target}: embedded artifact did not replay "
            "byte-identically"
        )
    check = cross_check(artifact)
    if not check.consistent:
        failures.append(
            f"{artifact.target}: verify-model cross-check inconsistent "
            f"(reproduced={check.reproduced}, streaming holds="
            f"{check.streaming.holds}, confirm holds={check.confirm.holds})"
        )
    return failures


def _recheck_space(certificate, jobs) -> List[str]:
    """Re-enumerate a proof/counterexample certificate's own space."""
    from repro.explore.space import PlanSpace

    if certificate.space is None:
        return [f"{certificate.kind} certificate carries no space to re-enumerate"]
    space = PlanSpace.from_jsonable(certificate.space)
    if certificate.engine == "explicit":
        # Re-derived, never read back from the proof cache.
        target = get_verify_target(certificate.target)
        result = explicit_verify(target, certificate.at, space, jobs=jobs)
    else:
        result = verify(
            certificate.target,
            space=space,
            at=certificate.at,
            engine=certificate.engine,
            jobs=jobs,
        )
    print(_summarize(result))
    failures: List[str] = []
    want = "proved" if certificate.kind == "proof" else "refuted"
    if result.verdict != want:
        failures.append(f"verdict {result.verdict!r} != certified {want!r}")
    for name, certified in sorted(certificate.cardinality.items()):
        fresh = getattr(result, name, None)
        if fresh != certified:
            failures.append(f"cardinality {name}: fresh {fresh} != certified {certified}")
    if certificate.frontier is not None:
        if result.frontier is None:
            failures.append("certificate carries a frontier but the fresh run has none")
        else:
            fresh_frontier = result.frontier.to_jsonable()
            for field_name in ("states_visited", "states_distinct", "digest"):
                certified = certificate.frontier.get(field_name)
                fresh = fresh_frontier.get(field_name)
                if certified != fresh:
                    failures.append(
                        f"frontier {field_name}: fresh {fresh!r} != "
                        f"certified {certified!r}"
                    )
    return failures


def _cmd_recheck(args) -> int:
    try:
        certificate = load_certificate(args.certificate)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"recheck: cannot load certificate: {exc}", file=sys.stderr)
        return 1
    print(
        f"[{certificate.target}@{certificate.at}] rechecking "
        f"{certificate.kind} certificate ({certificate.engine} engine)"
    )
    failures: List[str] = []
    try:
        if certificate.kind == "minimality":
            artifact = certificate.embedded_artifact
            if artifact is None:
                failures.append("minimality certificate has no embedded artifact")
            else:
                failures.extend(_recheck_artifact(artifact))
                result = certify_minimal(artifact, jobs=args.jobs)
                if not result.minimal:
                    failures.append("artifact is no longer provably minimal")
                certified_size = certificate.neighborhood.get("size")
                if (
                    certified_size is not None
                    and result.neighborhood_size != certified_size
                ):
                    failures.append(
                        f"shrink neighborhood size {result.neighborhood_size} "
                        f"!= certified {certified_size}"
                    )
        else:
            failures.extend(_recheck_space(certificate, args.jobs))
            if certificate.kind == "counterexample":
                artifact = certificate.embedded_artifact
                if artifact is not None:
                    failures.extend(_recheck_artifact(artifact))
                elif not certificate.counterexample_clocks:
                    failures.append(
                        "counterexample certificate has neither an embedded "
                        "artifact nor solver-exhibited clocks"
                    )
    except SmtUnavailableError as exc:
        print(f"SKIPPED (capability): {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (ValueError, KeyError) as exc:
        failures.append(f"certificate does not describe a checkable claim: {exc}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("recheck: certificate reproduces")
    return 0


def _cmd_list(_args) -> int:
    from repro.verify.smt import SMT_TARGETS, smt_available

    print(f"engines: explicit (always), smt ({'z3 ' if smt_available() else 'z3 NOT '}importable)")
    for name in sorted(VERIFY_TARGETS):
        target = VERIFY_TARGETS[name]
        smt = "explicit+smt" if name in SMT_TARGETS else "explicit   "
        print(
            f"{name:6s} [expect {target.expect:7s}] [{smt}] "
            f"at={target.default_at} {target.title}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Bounded verification over entire fault-plan spaces.",
    )
    sub = parser.add_subparsers(dest="command")

    def _verify_flags(p):
        p.add_argument("target", choices=sorted(VERIFY_TARGETS))
        p.add_argument("--at", type=int, default=None, help="stabilization time")
        p.add_argument(
            "--engine", choices=("explicit", "smt", "both"), default="explicit"
        )
        p.add_argument(
            "--space", choices=("default", "smoke"), default="default"
        )
        p.add_argument("--n", type=int, default=None, help="resize: system size")
        p.add_argument("--k", type=int, default=None, help="resize: bounded horizon")
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--max-plans", type=int, default=None)
        p.add_argument("--out", default=None, help="write certificates here")
        p.add_argument("--no-cache", action="store_true")

    prove_p = sub.add_parser("prove", help="prove absence of violations")
    _verify_flags(prove_p)
    prove_p.set_defaults(func=_cmd_prove)

    refute_p = sub.add_parser("refute", help="prove a counterexample exists")
    _verify_flags(refute_p)
    refute_p.set_defaults(func=_cmd_refute)

    certify_p = sub.add_parser(
        "certify", help="prove shrunk counterexample artifacts minimal"
    )
    certify_p.add_argument(
        "artifacts", nargs="*", help="artifact paths (default: regenerate thm1+thm2)"
    )
    certify_p.add_argument("--seed", type=int, default=0)
    certify_p.add_argument("--jobs", type=int, default=None)
    certify_p.add_argument("--out", default=None, help="write certificates here")
    certify_p.add_argument("--no-cache", action="store_true")
    certify_p.set_defaults(func=_cmd_certify)

    recheck_p = sub.add_parser(
        "recheck", help="re-verify a saved certificate from its own description"
    )
    recheck_p.add_argument("certificate", help="path to a certificate JSON")
    recheck_p.add_argument("--jobs", type=int, default=None)
    recheck_p.add_argument("--no-cache", action="store_true")
    recheck_p.set_defaults(func=_cmd_recheck)

    list_p = sub.add_parser("list", help="list verify targets and engines")
    list_p.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if getattr(args, "no_cache", False):
        repro.cache.disable()
    started = time.monotonic()
    code = args.func(args)
    print(f"({time.monotonic() - started:.1f}s)")
    return code


if __name__ == "__main__":
    sys.exit(main())
