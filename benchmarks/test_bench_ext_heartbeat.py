"""EXT-HEARTBEAT bench: wraps :mod:`repro.experiments.ext_heartbeat`."""

from repro.experiments import ext_heartbeat


def test_ext_heartbeat(benchmark, emit_report):
    benchmark(ext_heartbeat.consensus_run, 0, True, 150.0)
    result = ext_heartbeat.run()
    emit_report(result)
    assert result.passed, result.failures
