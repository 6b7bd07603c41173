"""THM3 bench: wraps :mod:`repro.experiments.thm3` with wall-clock timing."""

from repro.experiments import thm3
from repro.sync.adversary import FaultMode


def test_thm3_stabilization_distribution(benchmark, emit_report):
    benchmark(thm3.one_run, 1 << 20, FaultMode.GENERAL_OMISSION, 0)
    result = thm3.run()
    emit_report(result)
    assert result.passed, result.failures
