import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekgen import diffkit as dk


def test_roundtrip_preserves_values_and_extra(tmp_path):
    path = tmp_path / "ck.bin"
    arrays = {"b.w": np.arange(6.0, dtype=np.float32).reshape(2, 3),
              "a.v": np.array([1.5, -2.0], dtype=np.float32)}
    dk.save_arrays(path, arrays, extra={"mode": "GAT_VE", "d": 8})
    loaded, extra = dk.load_arrays(path)
    assert set(loaded) == {"a.v", "b.w"}
    np.testing.assert_array_equal(loaded["b.w"], arrays["b.w"])
    np.testing.assert_array_equal(loaded["a.v"], arrays["a.v"])
    assert extra == {"mode": "GAT_VE", "d": 8}


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    dk.save_arrays(path, {"x": np.zeros(2)}, magic=dk.EMBED_MAGIC)
    with pytest.raises(dk.CheckpointError):
        dk.load_arrays(path, magic=dk.MAGIC)


def test_corrupt_manifest_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    dk.save_arrays(path, {"x": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[len(dk.MAGIC) + 5] = 0xff          # inside the JSON manifest
    path.write_bytes(bytes(raw))
    with pytest.raises(dk.CheckpointError):
        dk.load_arrays(path)


def test_save_is_byte_deterministic(tmp_path):
    arrays = {"x": np.random.default_rng(0).standard_normal((4, 4))
              .astype(np.float32), "y": np.ones(3, dtype=np.float32)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    dk.save_arrays(p1, arrays, extra={"k": 1})
    dk.save_arrays(p2, dict(reversed(list(arrays.items()))), extra={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_float64_arrays_stored_as_float32(tmp_path):
    path = tmp_path / "ck.bin"
    dk.save_arrays(path, {"x": np.array([1.0 + 1e-12], dtype=np.float64)})
    loaded, _ = dk.load_arrays(path)
    assert loaded["x"].dtype == np.float32



@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1,
                       max_size=3),
       data=st.data())
def test_truncated_checkpoint_loads_exactly_or_raises(tmp_path_factory, shapes,
                                                      data):
    rng = np.random.default_rng(len(shapes))
    arrays = {f"p{i}": rng.standard_normal(s).astype(np.float32)
              for i, s in enumerate(shapes)}
    path = tmp_path_factory.mktemp("ck") / "ck.bin"
    dk.save_arrays(path, arrays, extra={"k": 1})
    raw = path.read_bytes()
    n = data.draw(st.integers(0, len(raw)), label="kept bytes")
    path.write_bytes(raw[:n])
    if n < len(raw):
        with pytest.raises(dk.CheckpointError):
            dk.load_arrays(path)
        return
    loaded, extra = dk.load_arrays(path)
    assert extra == {"k": 1}
    assert loaded.keys() == arrays.keys()
    for name, a in arrays.items():
        np.testing.assert_array_equal(loaded[name], a)
