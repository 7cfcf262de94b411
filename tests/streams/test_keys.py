"""Tests for key and value schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.streams import make_key_scheme, make_value_scheme, make_records
from repro.streams.keys import dedup_keys


@pytest.fixture
def records():
    return make_records(
        timestamps=[1.0, 2.0],
        dst_ips=[0xC0A80101, 0x08080808],     # 192.168.1.1, 8.8.8.8
        byte_counts=[1500, 400],
        src_ips=[0x0A000001, 0x0A000002],
        src_ports=[1234, 5678],
        dst_ports=[80, 53],
        protocols=[6, 17],
        packet_counts=[2, 1],
    )


class TestKeySchemes:
    def test_dst_ip(self, records):
        keys = make_key_scheme("dst_ip").extract(records)
        assert keys.tolist() == [0xC0A80101, 0x08080808]
        assert keys.dtype == np.uint64

    def test_src_ip(self, records):
        keys = make_key_scheme("src_ip").extract(records)
        assert keys.tolist() == [0x0A000001, 0x0A000002]

    def test_src_dst_pair(self, records):
        keys = make_key_scheme("src_dst_pair").extract(records)
        assert keys[0] == (0x0A000001 << 32) | 0xC0A80101
        assert make_key_scheme("src_dst_pair").bits == 64

    def test_dst_prefix_24(self, records):
        keys = make_key_scheme("dst_prefix", prefix_len=24).extract(records)
        assert keys.tolist() == [0xC0A80100, 0x08080800]

    def test_dst_prefix_8(self, records):
        keys = make_key_scheme("dst_prefix", prefix_len=8).extract(records)
        assert keys.tolist() == [0xC0000000, 0x08000000]

    def test_dst_prefix_validation(self):
        with pytest.raises(ValueError):
            make_key_scheme("dst_prefix", prefix_len=0)
        with pytest.raises(ValueError):
            make_key_scheme("dst_prefix", prefix_len=33)

    def test_dst_port(self, records):
        keys = make_key_scheme("dst_port").extract(records)
        assert keys.tolist() == [80, 53]

    def test_proto_port(self, records):
        keys = make_key_scheme("proto_port").extract(records)
        assert keys.tolist() == [(6 << 16) | 80, (17 << 16) | 53]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown key scheme"):
            make_key_scheme("mac_address")

    def test_prefix_aggregation_coarsens(self, records):
        """A shorter prefix can only merge keys, never split them."""
        p24 = make_key_scheme("dst_prefix", prefix_len=24).extract(records)
        p8 = make_key_scheme("dst_prefix", prefix_len=8).extract(records)
        assert len(np.unique(p8)) <= len(np.unique(p24))


class TestValueSchemes:
    def test_bytes(self, records):
        values = make_value_scheme("bytes").extract(records)
        assert values.tolist() == [1500.0, 400.0]
        assert values.dtype == np.float64

    def test_packets(self, records):
        assert make_value_scheme("packets").extract(records).tolist() == [2.0, 1.0]

    def test_count(self, records):
        assert make_value_scheme("count").extract(records).tolist() == [1.0, 1.0]

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown value scheme"):
            make_value_scheme("flows")


@st.composite
def _key_arrays(draw):
    """uint64/uint32/int64 keys: dtype extremes, repeats, any layout."""
    dtype = np.dtype(draw(st.sampled_from(["uint64", "uint32", "int64"])))
    info = np.iinfo(dtype)
    pool = st.one_of(
        st.sampled_from([info.min, 0, 1, info.max]),
        st.integers(info.min, info.max),
    )
    if draw(st.booleans()):  # all equal, including empty and single
        keys = np.full(draw(st.integers(0, 4)), draw(pool), dtype=dtype)
    else:
        keys = draw(arrays(dtype, st.integers(0, 64), elements=pool))
    layout = draw(st.sampled_from(["given", "sorted", "reversed"]))
    if layout == "sorted":
        keys = np.sort(keys)
    elif layout == "reversed":
        keys = np.sort(keys)[::-1]
    return keys[:: draw(st.integers(1, 3))]


@settings(max_examples=300, deadline=None)
@given(keys=_key_arrays())
def test_dedup_keys_equals_unique(keys):
    got = dedup_keys(keys)
    want = np.unique(keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert not np.shares_memory(got, keys)
