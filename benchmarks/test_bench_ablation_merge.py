"""ABL-MERGE bench: wraps :mod:`repro.experiments.abl_merge`."""

from repro.core.rounds import RoundAgreementProtocol
from repro.experiments import abl_merge


def test_ablation_merge_rules(benchmark, emit_report):
    benchmark(abl_merge.random_run, RoundAgreementProtocol(), 0)
    result = abl_merge.run()
    emit_report(result)
    assert result.passed, result.failures
