"""FIG1 bench: wraps :mod:`repro.experiments.fig1` with wall-clock timing."""

from repro.experiments import fig1


def test_fig1_round_agreement(benchmark, emit_report):
    benchmark(fig1.one_run, 6, 2, 0)
    result = fig1.run()
    emit_report(result)
    assert result.passed, result.failures
