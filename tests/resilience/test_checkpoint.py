"""CheckpointStore round-trips: memory, disk, consistent cuts, stats."""

import io

import numpy as np
import pytest

from repro.resilience import CheckpointStore
from repro.resilience.checkpoint import (
    CheckpointLayoutError,
    LayoutHeader,
    pack_state,
    unpack_state,
)


def _sample_state():
    return {
        "tiles": np.arange(24, dtype=np.float64).reshape(4, 6) * 1.5,
        "ipiv": np.array([3, 1, 2, 0], dtype=np.int64),
        "cursor": 7,
        "epoch": 2,
        "scale": 0.125,
        "blocks": [np.eye(3), np.full((2, 2), -1.0)],
        "none_field": None,
    }


class TestPackUnpack:
    def test_round_trip_preserves_values_and_dtypes(self):
        state = _sample_state()
        out = unpack_state(pack_state(state))
        assert np.array_equal(out["tiles"], state["tiles"])
        assert out["tiles"].dtype == np.float64
        assert np.array_equal(out["ipiv"], state["ipiv"])
        assert out["ipiv"].dtype == np.int64
        assert out["cursor"] == 7 and isinstance(out["cursor"], int)
        assert out["scale"] == 0.125 and isinstance(out["scale"], float)
        assert len(out["blocks"]) == 2
        for got, want in zip(out["blocks"], state["blocks"]):
            assert np.array_equal(got, want)
        assert "none_field" not in out  # None values are dropped

    def test_empty_list_round_trips(self):
        assert unpack_state(pack_state({"xs": []})) == {"xs": []}

    def test_rejects_colon_keys_and_odd_types(self):
        with pytest.raises(ValueError):
            pack_state({"a:b": 1})
        with pytest.raises(TypeError):
            pack_state({"bad": object()})


class TestCheckpointStore:
    def test_memory_save_load_bitwise_and_isolated(self):
        store = CheckpointStore()
        state = _sample_state()
        nbytes = store.save(0, 4, state)
        assert nbytes > 0
        state["tiles"][:] = 0.0  # mutate after save: blob must not alias
        out = store.load(0, 4)
        assert np.array_equal(out["tiles"],
                              np.arange(24, dtype=np.float64).reshape(4, 6) * 1.5)
        out["ipiv"][:] = -1  # loads are fresh copies too
        assert np.array_equal(store.load(0, 4)["ipiv"], [3, 1, 2, 0])

    def test_disk_store_survives_new_instance(self, tmp_path):
        d = str(tmp_path / "ckpt")
        store = CheckpointStore(dir=d)
        store.save(1, 2, {"x": np.linspace(0.0, 1.0, 17)})
        fresh = CheckpointStore(dir=d)
        assert fresh.cursors(1) == [2]
        assert np.array_equal(fresh.load(1, 2)["x"], np.linspace(0.0, 1.0, 17))

    def test_missing_checkpoint_raises(self):
        with pytest.raises(KeyError):
            CheckpointStore().load(0, 0)

    def test_latest_complete_is_consistent_cut(self):
        store = CheckpointStore()
        state = {"v": np.zeros(1)}
        for cursor in (2, 4, 6):
            store.save(0, cursor, state)
        for cursor in (2, 4):
            store.save(1, cursor, state)
        assert store.latest_complete(2) == 4
        assert store.latest_complete(3) is None  # rank 2 never saved
        assert CheckpointStore().latest_complete(2) is None

    def test_stats_snapshot_counts(self):
        store = CheckpointStore()
        n = store.save(0, 1, {"v": np.zeros(8)})
        store.save(1, 1, {"v": np.zeros(8)})
        store.load(0, 1)
        snap = store.stats.snapshot()
        assert snap["checkpoints"] == 2
        assert snap["checkpoint_bytes"] == 2 * n
        assert snap["restores"] == 1
        assert snap["restored_bytes"] == n
        assert snap["checkpoint_time_s"] >= 0.0

    def test_blob_without_magic_is_refused(self):
        # An np.savez container (no RCK1 magic) is not a checkpoint.
        store = CheckpointStore()
        flat = pack_state(_sample_state(), layout=LayoutHeader(2, 2, 16, 96))
        buf = io.BytesIO()
        np.savez(buf, **flat)
        store._blobs[(0, 3)] = buf.getvalue()
        with pytest.raises(CheckpointLayoutError, match="not a checkpoint"):
            store.load(0, 3, expect_layout=LayoutHeader(2, 2, 16, 96))
        with pytest.raises(CheckpointLayoutError):
            store.layout(0, 3)

    def test_non_contiguous_arrays_round_trip(self):
        store = CheckpointStore()
        strided = np.arange(24.0).reshape(4, 6)[:, ::2]
        store.save(0, 1, {"a": strided})
        assert np.array_equal(store.load(0, 1)["a"], strided)


class TestLayoutHeader:
    def test_header_round_trips_through_store(self):
        store = CheckpointStore()
        layout = LayoutHeader(p=2, q=4, nb=16, n=96, dtype="float32")
        store.save(0, 2, {"v": np.zeros(3)}, layout=layout)
        assert store.layout(0, 2) == layout
        assert layout.describe() == "2x4 nb=16 n=96 float32"

    def test_matching_layout_loads(self):
        store = CheckpointStore()
        layout = LayoutHeader(2, 2, 16, 96)
        store.save(0, 2, {"v": np.zeros(3)}, layout=layout)
        assert "v" in store.load(0, 2, expect_layout=layout)

    def test_mismatched_layout_raises_with_both_geometries(self):
        store = CheckpointStore()
        store.save(0, 2, {"v": np.zeros(3)}, layout=LayoutHeader(2, 4, 16, 96))
        with pytest.raises(CheckpointLayoutError) as err:
            store.load(0, 2, expect_layout=LayoutHeader(2, 2, 16, 96))
        assert "2x4" in str(err.value) and "2x2" in str(err.value)

    def test_headerless_blob_loads_and_reports_no_layout(self):
        store = CheckpointStore()
        store.save(0, 2, {"v": np.zeros(3)})
        assert store.layout(0, 2) is None
        # Nothing recorded, nothing to check against.
        assert "v" in store.load(0, 2, expect_layout=LayoutHeader(2, 2, 16, 96))

    def test_header_keys_never_leak_into_state(self):
        store = CheckpointStore()
        store.save(0, 2, {"v": np.zeros(3)}, layout=LayoutHeader(1, 2, 8, 32))
        assert set(store.load(0, 2)) == {"v"}
