"""EXT-BYZ bench: wraps :mod:`repro.experiments.ext_byz`."""

from repro.experiments import ext_byz


def test_ext_byzantine_contrast(benchmark, emit_report):
    benchmark(ext_byz.phasequeen_under_lies, 0)
    result = ext_byz.run()
    emit_report(result)
    assert result.passed, result.failures
