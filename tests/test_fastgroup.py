"""count_by_key_sorted parity vs ray.data's native groupby().count()."""

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.ops.fastgroup import (
    boundary_run_totals,
    count_by_key_sorted,
)


def _collect(ds) -> pa.Table:
    return pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    )


def _native_counts(ds, key):
    t = _collect(ds.groupby(key).count())
    k = t.column(key).to_numpy(zero_copy_only=False)
    n = t.column("count()").to_numpy(zero_copy_only=False)
    order = np.argsort(k)
    return k[order], n[order].astype(np.int64)


def _fast_counts(ds, key):
    t = _collect(count_by_key_sorted(ds, key))
    k = t.column(key).to_numpy(zero_copy_only=False)
    n = t.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(k)
    return k[order], n[order].astype(np.int64)


def _ds_from(keys: np.ndarray, blocks: int) -> ray.data.Dataset:
    return ray.data.from_arrow(pa.table({"k": keys})).repartition(blocks)


def test_parity_zipf_keys():
    rng = np.random.default_rng(7)
    # heavy-dup Zipf-ish key distribution incl. one hot key spanning blocks
    keys = rng.integers(0, 500, size=20_000, dtype=np.int64)
    keys[:5_000] = 42  # hot key: guaranteed to span sorted batches
    for blocks in (1, 3, 8):
        ds = _ds_from(keys, blocks)
        fk, fn = _fast_counts(ds, "k")
        nk, nn = _native_counts(_ds_from(keys, blocks), "k")
        np.testing.assert_array_equal(fk, nk)
        np.testing.assert_array_equal(fn, nn)
        assert fn.sum() == keys.shape[0]


def test_parity_uint64_hash_domain():
    rng = np.random.default_rng(11)
    base = rng.integers(0, 2**63, size=3_000, dtype=np.uint64)
    keys = np.concatenate([base, base[:700], base[:90]])  # planted dups
    ds = _ds_from(keys, 5)
    fk, fn = _fast_counts(ds, "k")
    assert fk.shape[0] == np.unique(keys).shape[0]
    uk, uc = np.unique(keys, return_counts=True)
    np.testing.assert_array_equal(fk, uk)
    np.testing.assert_array_equal(fn, uc)


def test_single_key_and_tiny():
    ds = _ds_from(np.full(1000, 9, np.int64), 4)
    fk, fn = _fast_counts(ds, "k")
    np.testing.assert_array_equal(fk, [9])
    np.testing.assert_array_equal(fn, [1000])

    ds1 = _ds_from(np.array([3], np.int64), 1)
    fk, fn = _fast_counts(ds1, "k")
    np.testing.assert_array_equal(fk, [3])
    np.testing.assert_array_equal(fn, [1])


def test_boundary_totals_are_global():
    keys = np.repeat(np.arange(50, dtype=np.int64), 40)
    s = _ds_from(keys, 6).sort("k").materialize()
    bk, bn = boundary_run_totals(s, "k")
    # every boundary key's reported total must equal its true global count
    for k, n in zip(bk.tolist(), bn.tolist()):
        assert n == 40, (k, n)
