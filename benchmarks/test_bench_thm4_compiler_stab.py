"""THM4 bench: wraps :mod:`repro.experiments.thm4` with wall-clock timing."""

from repro.core.compiler import compile_protocol
from repro.experiments import thm4
from repro.protocols.floodmin import FloodMinConsensus


def test_thm4_compiled_stabilization(benchmark, emit_report):
    pi = FloodMinConsensus(f=2, proposals=[3, 1, 4, 1, 5, 9])
    plus = compile_protocol(pi)
    benchmark(thm4.compiled_history, pi, plus, 0)
    result = thm4.run()
    emit_report(result)
    assert result.passed, result.failures
