"""ABL-SUSPECT bench: wraps :mod:`repro.experiments.abl_suspect`."""

from repro.experiments import abl_suspect


def test_ablation_suspect_sets(benchmark, emit_report):
    benchmark(abl_suspect.one_run, True, 0)
    result = abl_suspect.run()
    emit_report(result)
    assert result.passed, result.failures
