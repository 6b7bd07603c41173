"""THM1 bench: wraps :mod:`repro.experiments.thm1` with wall-clock timing."""

from repro.core.impossibility import theorem1_scenario
from repro.experiments import thm1


def test_thm1_tentative_definition_defeated(benchmark, emit_report):
    benchmark(theorem1_scenario, 8)
    result = thm1.run()
    emit_report(result)
    assert result.passed, result.failures
