import hashlib
import tracemalloc

import numpy as np
import pytest

from scdkit._util import value_hash


def _copying_hash(values):
    # the digest as first defined: shape string, then a bytes copy of the
    # contiguous little-endian array
    arr = np.ascontiguousarray(values)
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return hashlib.sha256(str(arr.shape).encode() + le.tobytes()).hexdigest()


_rng = np.random.default_rng(0)
_base = _rng.standard_normal((6, 10))


@pytest.mark.parametrize("values", [
    _base.astype(np.float32),
    _base,
    (_base + 1j * _base[::-1]).astype(np.complex64),
    _base[:, ::3],                      # non-contiguous
    _base.astype(">f8"),                # big-endian
    _base.astype(np.float32).T,         # Fortran order
    np.empty((0, 4), dtype=np.float32),
], ids=["f32", "f64", "c64", "strided", "big-endian", "transposed", "empty"])
def test_value_hash_keeps_its_digest(values):
    assert value_hash(values) == _copying_hash(values)


def test_value_hash_does_not_copy_a_contiguous_array():
    values = np.ones(1 << 23, dtype=np.float64)  # 64 MiB
    tracemalloc.start()
    try:
        value_hash(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
