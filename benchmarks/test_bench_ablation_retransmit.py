"""ABL-RETX bench: wraps :mod:`repro.experiments.abl_retx`."""

from repro.experiments import abl_retx


def test_ablation_retransmission_and_jump(benchmark, emit_report):
    benchmark(abl_retx.one_run, "ss", False, 1, 100.0)
    result = abl_retx.run()
    emit_report(result)
    assert result.passed, result.failures
