"""FIG4 bench: wraps :mod:`repro.experiments.fig4` with wall-clock timing."""

from repro.experiments import fig4


def test_fig4_strong_detector(benchmark, emit_report):
    benchmark(fig4.one_run, 6, 0, True)
    result = fig4.run()
    emit_report(result)
    assert result.passed, result.failures
