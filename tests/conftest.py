import os

import pytest

from fueterlab import fields


@pytest.fixture
def workers(monkeypatch):
    """workers(cpus): from then on the affinity mask holds `cpus` CPUs and the
    windows of every grid fan out, also the small and the function-backed
    ones that the frozen rule in `fields._flat_windows` keeps on one worker."""

    def use(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(fields, "_FANOUT_SIZE", 0)
        monkeypatch.setattr(fields.GridField, "is_dense", lambda self: True)

    return use
