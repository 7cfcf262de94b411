import dataclasses

import pytest

from workloads import WORKLOADS, TraceSpec, make_trace

#: 120 intervals of a 1/20-scale ``large`` router: enough for every diff
#: length of ``archive_query`` to have a non-overlapping baseline.
TINY_TRACE = TraceSpec(scale=0.05, hours=2.0, per_interval=200)


def tiny(name):
    """A workload shrunk to a few thousand records on narrow sketches."""
    return dataclasses.replace(WORKLOADS[name], trace=TINY_TRACE, width=1024)


@pytest.fixture(scope="session")
def tiny_stream():
    return make_trace(TINY_TRACE, seed=11)
