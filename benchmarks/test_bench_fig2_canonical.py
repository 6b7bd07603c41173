"""FIG2 bench: wraps :mod:`repro.experiments.fig2` with wall-clock timing."""

from repro.core.canonical import run_ft
from repro.experiments import fig2
from repro.sync.adversary import RandomAdversary


def test_fig2_ft_baselines(benchmark, emit_report):
    pi, n, mode = fig2.cases()[0]
    benchmark(
        lambda: run_ft(
            pi, n=n, adversary=RandomAdversary(n=n, f=pi.f, mode=mode, rate=0.5, seed=0)
        )
    )
    result = fig2.run()
    emit_report(result)
    assert result.passed, result.failures
