"""Hypothesis settings shared by the property tests.

In an empty checkout the first ``st.text()`` draw of the session builds
Hypothesis's unicode table (cached under ``.hypothesis/`` afterwards),
which takes over a second on a small box and trips
``HealthCheck.too_slow`` for whichever test happens to draw first — a
failure that depends on what an earlier run left in the working
directory, not on the code under test.
"""

from hypothesis import HealthCheck, settings

settings.register_profile("repro", suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("repro")
