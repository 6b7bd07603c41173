"""ASYNC-CONS bench: wraps :mod:`repro.experiments.async_cons`."""

from repro.experiments import async_cons


def test_async_consensus(benchmark, emit_report):
    benchmark(async_cons.one_run, "ss", 0, True)
    result = async_cons.run()
    emit_report(result)
    assert result.passed, result.failures
