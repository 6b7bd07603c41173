"""Unit tests for the verification plane (explicit engine + certificates)."""

import json
import pathlib

import pytest

import repro.cache
from repro.explore.artifacts import load_artifact
from repro.explore.shrink import neighborhood, spec_size
from repro.explore.space import OmissionSpec, PlanSpace, PlanSpec
from repro.verify import (
    ENGINES,
    VERIFY_TARGETS,
    cross_check,
    get_verify_target,
    verify,
)
from repro.verify.certificates import (
    Certificate,
    certificate_from_result,
    load_certificate,
    render_certificate,
    save_certificate,
)
from repro.verify.explicit import (
    SpaceTooLargeError,
    enumerate_space,
    state_digest,
)
from repro.verify.minimal import certify_minimal
from repro.verify.result import FrontierStats, frontier_from_digests
from repro.verify.targets import confirm_verdict, streaming_verdict


@pytest.fixture(scope="session")
def thm1_artifact(tmp_path_factory) -> pathlib.Path:
    """The shrunk thm1 counterexample, built once per session.

    EXPLORE is byte-deterministic at seed 0, so this is the same file
    ``python -m repro.explore --smoke`` leaves in its (git-ignored)
    ``explore-artifacts/`` — without depending on anyone having run it.
    """
    from repro.explore.__main__ import main

    out = tmp_path_factory.mktemp("explore-artifacts")
    assert main(["--smoke", "--seed", "0", "--jobs", "1", "--out", str(out)]) == 0
    return out / "thm1-counterexample.json"


# -- target registry ---------------------------------------------------------


class TestTargets:
    def test_registry_covers_the_paper(self):
        assert set(VERIFY_TARGETS) == {"fig1", "fig3", "unison", "thm1", "thm2"}
        assert ENGINES == ("explicit", "smt")

    def test_expectations_match_the_theorems(self):
        for name in ("fig1", "fig3", "unison"):
            assert VERIFY_TARGETS[name].expect == "proved"
        for name in ("thm1", "thm2"):
            assert VERIFY_TARGETS[name].expect == "refuted"

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            get_verify_target("nope")

    def test_at_rejected_on_non_parametric_targets(self):
        with pytest.raises(ValueError):
            verify("fig3", at=5)

    def test_streaming_and_confirm_agree_on_a_plan(self):
        target = get_verify_target("fig1")
        spec = PlanSpec(n=2, rounds=6)
        streaming = streaming_verdict(target, 1, spec)
        confirm = confirm_verdict(target, 1, spec)
        assert streaming.holds == confirm.holds


# -- canonical state dedup ---------------------------------------------------


class TestFrontier:
    def test_state_digest_is_order_insensitive(self):
        a = {0: {"x": 1}, 1: {"x": 2}}
        b = {1: {"x": 2}, 0: {"x": 1}}
        assert state_digest(a) == state_digest(b)

    def test_state_digest_canonicalises_every_mapping(self):
        # A FrozenDict (the kernel's freeze() image of a dict) used to fall
        # through to repr, which follows insertion order — equal states
        # digested differently unless the snapshot layer happened to have
        # interned them (not across pool workers or after clear_caches()).
        from repro.kernel.snapshot import FrozenDict, freeze

        def state(m):
            return {0: {"clock": 1, "m": m}}

        plain = state_digest(state({"x": 1, "y": 2}))
        assert state_digest(state(FrozenDict({"x": 1, "y": 2}))) == plain
        assert state_digest(state(FrozenDict({"y": 2, "x": 1}))) == plain
        assert state_digest(state(freeze({"y": 2, "x": 1}))) == plain
        assert state_digest(state(FrozenDict({"x": 1, "y": 3}))) != plain

    def test_state_digest_distinguishes_states(self):
        assert state_digest({0: {"x": 1}}) != state_digest({0: {"x": 2}})
        assert state_digest({0: {"x": 1}}) != state_digest({0: None})

    def test_frontier_from_digests_dedups(self):
        stats = frontier_from_digests(["a", "b", "a", "a"])
        assert stats.states_visited == 4
        assert stats.states_distinct == 2
        assert stats.dedup_hits == 2
        assert 0 < stats.dedup_hit_ratio < 1

    def test_frontier_digest_is_order_independent(self):
        assert (
            frontier_from_digests(["a", "b"]).digest
            == frontier_from_digests(["b", "a", "b"]).digest
        )

    def test_frontier_jsonable_round_trip(self):
        stats = frontier_from_digests(["a", "b", "a"])
        data = json.loads(json.dumps(stats.to_jsonable()))
        data.pop("dedup_hits")  # derived, ignored on load
        assert FrontierStats.from_jsonable(data) == stats


# -- explicit engine ---------------------------------------------------------


def tiny_space(**overrides):
    kwargs = dict(n=2, rounds=5, skew_values=(3,), max_skews=1)
    kwargs.update(overrides)
    return PlanSpace(**kwargs)


class TestExplicitEngine:
    def test_unison_space_is_proved(self):
        result = verify("unison")
        assert result.proved and not result.refuted
        assert result.violating == 0
        assert result.counterexample is None
        assert result.frontier is not None
        assert result.frontier.states_distinct > 0
        assert not result.mismatches

    def test_thm2_space_is_refuted_with_replayable_counterexample(self):
        result = verify("thm2")
        assert result.refuted
        assert result.violating > 0
        assert result.counterexample is not None
        target = get_verify_target("thm2")
        rerun = confirm_verdict(target, result.at, result.counterexample)
        assert rerun.holds == result.counterexample_verdict.holds
        assert tuple(rerun.violations) == tuple(
            result.counterexample_verdict.violations
        )

    def test_symmetric_target_drops_permuted_plans(self):
        result = verify("thm1")
        assert result.symmetry_dropped > 0
        assert result.examined + result.symmetry_dropped == result.raw_plans

    def test_results_are_jobs_independent(self):
        sequential = verify("unison", jobs=1)
        parallel = verify("unison", jobs=2)
        assert sequential.verdict == parallel.verdict
        assert sequential.frontier.digest == parallel.frontier.digest
        assert sequential.examined == parallel.examined

    def test_max_plans_guard(self):
        with pytest.raises(SpaceTooLargeError):
            verify("unison", max_plans=3)

    def test_enumerate_space_counts(self):
        space = tiny_space()
        kept, raw, dropped = enumerate_space(space, symmetric=False)
        assert raw == len(kept) + dropped
        assert dropped == 0  # asymmetric: nothing canonicalized away

    def test_verify_runs_are_cached_under_the_verify_namespace(self):
        verify("unison")
        cache = repro.cache.get_cache()
        cache.flush()
        by_ns = cache.persisted_namespace_counters()
        assert "verify:unison@verify" in by_ns
        cold = by_ns["verify:unison@verify"]
        assert cold["misses"] == cold["executed"] > 0
        # The warm re-verification is all lookups.
        verify("unison")
        cache.flush()
        warm = cache.persisted_namespace_counters()["verify:unison@verify"]
        assert warm["hits"] >= cold["misses"]
        assert warm["misses"] == cold["misses"]


# -- certificates ------------------------------------------------------------


class TestCertificates:
    def test_proof_certificate_round_trip(self, tmp_path):
        target = get_verify_target("unison")
        result = verify("unison")
        cert = certificate_from_result(target, result, target.space)
        assert cert.kind == "proof"
        assert cert.cardinality["violating"] == 0
        path = save_certificate(tmp_path, cert)
        assert path.name == "unison-proof-at0.json"
        assert load_certificate(path) == cert
        # Canonical rendering: byte-stable across round trips.
        assert render_certificate(load_certificate(path)) == path.read_text()

    def test_counterexample_certificate_embeds_an_explore_artifact(self, tmp_path):
        target = get_verify_target("thm2")
        result = verify("thm2")
        cert = certificate_from_result(target, result, target.space)
        assert cert.kind == "counterexample"
        artifact = cert.embedded_artifact
        assert artifact.target == "thm2"
        assert artifact.spec == result.counterexample
        assert not artifact.verdict_holds
        # The embedded space re-enumerates to the certified cardinality.
        space = PlanSpace.from_jsonable(cert.space)
        assert len(list(space.enumerate_plans())) == cert.cardinality["raw_plans"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Certificate(kind="vibes", target="fig1", claim="", at=1, engine="explicit")

    def test_schema_version_checked(self):
        with pytest.raises(ValueError):
            Certificate.from_jsonable({"schema_version": 999})


# -- recheck: certificates re-verify from their own description --------------


class TestRecheck:
    def _saved_cert(self, name, tmp_path):
        from repro.verify.certificates import certificate_from_result

        target = get_verify_target(name)
        result = verify(name)
        return save_certificate(
            tmp_path, certificate_from_result(target, result, target.space)
        )

    def test_proof_certificate_rechecks_clean(self, tmp_path, capsys):
        from repro.verify.__main__ import main as verify_main

        path = self._saved_cert("unison", tmp_path)
        assert verify_main(["recheck", str(path)]) == 0
        assert "certificate reproduces" in capsys.readouterr().out

    def test_counterexample_certificate_rechecks_clean(self, tmp_path):
        from repro.verify.__main__ import main as verify_main

        path = self._saved_cert("thm2", tmp_path)
        assert verify_main(["recheck", str(path)]) == 0

    def test_tampered_frontier_digest_is_caught(self, tmp_path, capsys):
        from repro.verify.__main__ import main as verify_main

        path = self._saved_cert("unison", tmp_path)
        data = json.loads(path.read_text())
        data["frontier"]["digest"] = "f" * 64
        path.write_text(json.dumps(data))
        assert verify_main(["recheck", str(path)]) == 1
        assert "frontier digest" in capsys.readouterr().err

    def test_tampered_cardinality_is_caught(self, tmp_path, capsys):
        from repro.verify.__main__ import main as verify_main

        path = self._saved_cert("unison", tmp_path)
        data = json.loads(path.read_text())
        data["cardinality"]["examined"] += 1
        path.write_text(json.dumps(data))
        assert verify_main(["recheck", str(path)]) == 1
        assert "cardinality examined" in capsys.readouterr().err

    def test_tampered_embedded_artifact_is_caught(self, tmp_path, capsys):
        from repro.verify.__main__ import main as verify_main

        path = self._saved_cert("thm2", tmp_path)
        data = json.loads(path.read_text())
        # Lie about the violation record: the replay must disagree.
        data["artifact"]["violations"] = ["fabricated violation"]
        path.write_text(json.dumps(data))
        assert verify_main(["recheck", str(path)]) == 1
        assert "replay" in capsys.readouterr().err

    def test_unreadable_certificate_is_an_error(self, tmp_path):
        from repro.verify.__main__ import main as verify_main

        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert verify_main(["recheck", str(path)]) == 1


# -- minimality --------------------------------------------------------------


class TestMinimality:
    def test_neighborhood_is_strictly_smaller_and_closed(self):
        spec = PlanSpec(
            n=2,
            rounds=7,
            omissions=(
                OmissionSpec(pid=0, kind="general", first_round=1, last_round=3),
            ),
            clock_skews=((0, 2),),
        )
        closure = neighborhood(spec)
        assert closure  # a shrinkable spec has neighbors
        assert all(spec_size(s) < spec_size(spec) for s in closure)
        assert spec not in closure

    def test_committed_thm1_artifact_certifies_minimal(self, thm1_artifact):
        artifact = load_artifact(thm1_artifact)
        result = certify_minimal(artifact)
        assert result.reproduced
        assert result.minimal
        assert result.neighborhood_size > 0
        cert = result.certificate()
        assert cert.kind == "minimality"
        assert cert.neighborhood["violating"] == 0
        assert cert.embedded_artifact.spec == artifact.spec

    def test_non_minimal_artifact_is_caught(self, thm1_artifact):
        # Grow the committed counterexample by one redundant crash late
        # in the run: the original (smaller) spec still violates, so
        # the grown artifact must NOT certify.
        artifact = load_artifact(thm1_artifact)
        grown_spec = PlanSpec(
            n=artifact.spec.n,
            rounds=artifact.spec.rounds,
            crashes=((1, artifact.spec.rounds),),
            omissions=artifact.spec.omissions,
            clock_skews=artifact.spec.clock_skews,
        )
        from repro.explore.targets import get_target

        verdict = get_target("thm1").confirm(grown_spec)
        grown = load_artifact(thm1_artifact)
        object.__setattr__(grown, "spec", grown_spec)
        object.__setattr__(grown, "verdict_holds", verdict.holds)
        object.__setattr__(grown, "violations", tuple(verdict.violations))
        result = certify_minimal(grown)
        assert not result.minimal
        assert result.violating
        with pytest.raises(ValueError):
            result.certificate()


# -- the EXPLORE bridge ------------------------------------------------------


class TestBridge:
    def test_committed_artifact_replays_through_both_planes(self, thm1_artifact):
        """Regression: the shrunk thm1 artifact means the same thing to
        the streaming checker and the verify model."""
        artifact = load_artifact(thm1_artifact)
        name, at, spec = artifact.to_verify_instance()
        assert name == "thm1"
        assert at == VERIFY_TARGETS["thm1"].default_at
        assert spec == artifact.spec
        check = cross_check(artifact)
        assert check.reproduced
        assert check.consistent
        assert not check.streaming.holds
        assert not check.confirm.holds

    def test_uncovered_target_raises(self, thm1_artifact):
        artifact = load_artifact(thm1_artifact)
        object.__setattr__(artifact, "target", "fig4")
        with pytest.raises(ValueError):
            artifact.to_verify_instance()


# -- plan-space serialization (added for certificate embedding) --------------


class TestSpaceJsonable:
    def test_round_trip_preserves_enumeration(self):
        for space in (tiny_space(), get_verify_target("thm1").space):
            clone = PlanSpace.from_jsonable(
                json.loads(json.dumps(space.to_jsonable()))
            )
            assert clone == space
            assert list(clone.enumerate_plans()) == list(space.enumerate_plans())
