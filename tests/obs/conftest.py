"""Fixtures isolating the process-global observability state.

The metrics registry and the tracer are deliberately module-global (so
library code can instrument unconditionally), which means tests must
swap them out rather than mutate the shared instances: the service layer
enables the global registry as a side effect, and a leaked enablement
would silently change what other tests measure.  ``fresh_registry``,
the enabled twin of ``disabled_registry``, lives in the suite's root
``conftest.py`` because the portfolio and service tests use it too.
"""

from __future__ import annotations

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def disabled_registry():
    """A clean disabled registry installed as the global, restored after."""

    registry = MetricsRegistry(enabled=False)
    previous = obs_metrics.set_registry(registry)
    try:
        yield registry
    finally:
        obs_metrics.set_registry(previous)
