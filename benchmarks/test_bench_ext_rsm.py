"""EXT-RSM bench: wraps :mod:`repro.experiments.ext_rsm`."""

from repro.experiments import ext_rsm


def test_ext_rsm(benchmark, emit_report):
    benchmark(ext_rsm.one_run, "fig4", True, 0, 200.0)
    result = ext_rsm.run()
    emit_report(result)
    assert result.passed, result.failures
