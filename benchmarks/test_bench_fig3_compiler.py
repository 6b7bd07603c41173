"""FIG3 bench: wraps :mod:`repro.experiments.fig3` with wall-clock timing."""

from repro.core.compiler import compile_protocol
from repro.experiments import fig3
from repro.sync.corruption import RandomCorruption
from repro.sync.engine import run_sync


def test_fig3_compiled(benchmark, emit_report):
    pi, n, _mode = fig3.cases()[0]
    plus = compile_protocol(pi)
    benchmark(
        lambda: run_sync(
            plus,
            n=n,
            rounds=12 * pi.final_round,
            corruption=RandomCorruption(seed=500),
        )
    )
    result = fig3.run()
    emit_report(result)
    assert result.passed, result.failures
