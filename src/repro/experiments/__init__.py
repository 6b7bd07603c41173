"""The experiment registry: every figure, theorem, and extension.

Each module reproduces one entry of DESIGN.md's experiment index and
checks the paper's claim itself (see :mod:`repro.experiments.base`).
Run them:

- programmatically::

      from repro.experiments import REGISTRY
      result = REGISTRY.run("FIG1")
      print(result.render())

- from the command line::

      python -m repro.experiments             # everything
      python -m repro.experiments FIG1 THM4   # a selection
      python -m repro.experiments --fast      # smoke settings
      python -m repro.experiments --list

- or through the pytest-benchmark harness (``pytest benchmarks/
  --benchmark-only``), which adds wall-clock timing on top.
"""

from repro._lazy import lazy_surface

__all__ = ["REGISTRY", "ExperimentResult", "Expectations", "Registry"]

__getattr__, __dir__ = lazy_surface(
    __name__, {".base": ("REGISTRY", "ExperimentResult", "Expectations", "Registry")}
)
