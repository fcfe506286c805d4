"""Property tests of the FLD1 field file: bit-exact round trips over box
grids, dense and function-backed, and rejection of corrupted files."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueterlab.fields import GridField, load_fld1, save_fld1


@st.composite
def grids(draw):
    n = draw(st.sampled_from([1, 2]))
    nodes = draw(st.integers(5, 7))
    L = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.normal(size=(nodes,) * 4 + (4 * n,))
        return GridField(1, n, "box", L, (nodes,) * 4, values=values)
    A = rng.normal(size=(4, 4 * n))
    return GridField.from_function(lambda p: np.sin(p @ A), 1, n, nodes, L=L)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fld1") / "field.fld1"


def _saved(u, path):
    save_fld1(u, path)
    raw = path.read_bytes()
    cut = raw.index(b"\n") + 1
    return raw[:cut].decode("ascii"), raw[cut:]


@settings(max_examples=40, deadline=None)
@given(grids())
def test_round_trip_is_bit_exact(path, u):
    save_fld1(u, path)
    v = load_fld1(path)
    assert (v.m, v.n, v.domain, v.L, v.h, v.shape) == (u.m, u.n, u.domain, u.L, u.h, u.shape)
    assert v.values.tobytes() == u.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(grids(), st.integers(1, 64), st.booleans())
def test_a_truncated_or_extended_payload_is_rejected(path, u, k, extend):
    header, payload = _saved(u, path)
    payload = payload + bytes(k) if extend else payload[:-k]
    path.write_bytes(header.encode("ascii") + payload)
    with pytest.raises(ValueError, match="payload has"):
        load_fld1(path)


@settings(max_examples=40, deadline=None)
@given(grids(), st.text("ABDFLXfl0129", min_size=1, max_size=6).filter(lambda s: s != "FLD1"))
def test_a_wrong_magic_is_rejected(path, u, magic):
    header, payload = _saved(u, path)
    path.write_bytes((magic + header[len("FLD1"):]).encode("ascii") + payload)
    with pytest.raises(ValueError, match="not an FLD1 file"):
        load_fld1(path)


@settings(max_examples=40, deadline=None)
@given(grids(), st.floats(1e-9, 0.5), st.sampled_from([-1.0, 1.0]))
def test_a_spacing_inconsistent_with_L_and_dims_is_rejected(path, u, rel, sign):
    header, payload = _saved(u, path)
    header = re.sub(r" h=\S+", f" h={u.h * (1.0 + sign * rel)!r}", header)
    path.write_bytes(header.encode("ascii") + payload)
    with pytest.raises(ValueError, match="header spacing inconsistent"):
        load_fld1(path)
