import os
import warnings

import pytest

from fueterlab import fields

# hypothesis reports a falsifying example through libcst, whose import warns
# (mypy_extensions.TypedDict is deprecated); under filterwarnings = ["error"]
# that import turned each failing property test into an INTERNALERROR that
# ended the session, so it is imported here, before any test runs
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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
