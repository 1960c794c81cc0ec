"""HyperLogLog sketch: register parity vs a scalar reference (global and
per group), estimator accuracy at a realistic vocabulary size, exact
bit_length edge cases."""

import numpy as np
import pyarrow as pa
import ray.data

from parallel_louvain_method_ray.dedup.minhash import md5_lower64
from parallel_louvain_method_ray.ops.sketch import (
    HLL_M,
    SUFFIX_BITS,
    _bit_length_u64,
    _estimate_from_registers,
    hll_bucket_rhos,
    hll_distinct_tokens,
    hll_group_rhos,
)


def test_bit_length_exact_near_powers_of_two():
    vals = []
    for b in (1, 2, 31, 32, 33, 52, 53, 54):
        vals += [(1 << b) - 1, 1 << b, (1 << b) + 1]
    vals += [0, 1]
    x = np.array(vals, np.uint64)
    got = _bit_length_u64(x)
    want = np.array([int(v).bit_length() for v in vals], np.int64)
    np.testing.assert_array_equal(got, want)


def _scalar_registers(texts):
    regs = {}
    for t in texts:
        for tok in t.split():
            h = md5_lower64(tok)
            bucket = h >> SUFFIX_BITS
            suffix = h & ((1 << SUFFIX_BITS) - 1)
            rho = SUFFIX_BITS + 1 - suffix.bit_length()
            regs[bucket] = max(regs.get(bucket, 0), rho)
    return regs


def _docs_ds(texts, blocks=4):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).repartition(blocks)


def test_register_parity_and_estimate_accuracy():
    # ~20k distinct tokens spread over 200 docs with heavy repetition
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(20_000)]
    texts = [
        " ".join(vocab[j] for j in rng.integers(0, 20_000, size=300))
        for _ in range(200)
    ]
    ds = _docs_ds(texts)
    rt = pa.concat_tables(
        [pa.table(b) for b in hll_bucket_rhos(ds).iter_batches(batch_format="pyarrow")]
    )
    got = dict(
        zip(rt.column("bucket").to_pylist(), rt.column("rho").to_pylist())
    )
    assert got == _scalar_registers(texts)

    row = hll_distinct_tokens(_docs_ds(texts)).to_pydict()
    exact = row["exact_distinct"][0]
    est = row["estimate"][0]
    # true distinct = tokens actually drawn; HLL std error ~1.04/sqrt(1024)
    assert exact == len({tok for t in texts for tok in t.split()})
    assert abs(est - exact) / exact < 0.10
    assert row["m"][0] == HLL_M


def test_small_range_linear_counting_branch():
    # tiny vocab -> mostly-zero registers -> linear-counting branch
    texts = ["alpha beta gamma delta", "alpha beta", "gamma delta epsilon"]
    row = hll_distinct_tokens(_docs_ds(texts, blocks=1)).to_pydict()
    assert row["exact_distinct"][0] == 5
    assert abs(row["estimate"][0] - 5) < 1.0  # near-exact in this regime
    v, est = _estimate_from_registers(
        np.array([1, 2, 3], np.int64), np.array([1, 1, 1], np.int64)
    )
    assert v == HLL_M - 3 and est > 0


def test_empty_input():
    row = hll_distinct_tokens(_docs_ds([""], blocks=1)).to_pydict()
    assert row["exact_distinct"][0] == 0
    assert row["estimate"][0] == 0.0
    assert row["zero_buckets"][0] == HLL_M


def test_group_register_parity_vs_scalar():
    """Per-group registers equal a per-row scalar loop over
    md5_lower64(str(key)), across blocks, with a null group and null keys
    (str(None) hashes like any other key, a null group is its own group)."""
    rng = np.random.default_rng(11)
    n = 3000
    groups = [None if i % 97 == 0 else f"g{i % 7}" for i in range(n)]
    keys = [None if i % 89 == 0 else int(k) for i, k in
            enumerate(rng.integers(0, 5000, size=n))]
    want = {}
    for g, k in zip(groups, keys):
        h = md5_lower64(str(k))
        rho = SUFFIX_BITS + 1 - (h & ((1 << SUFFIX_BITS) - 1)).bit_length()
        cell = (g, h >> SUFFIX_BITS)
        want[cell] = max(want.get(cell, 0), rho)
    ds = ray.data.from_arrow(
        pa.table({"g": pa.array(groups), "k": pa.array(keys, pa.int64())})
    ).repartition(5)
    got = {
        (r["g"], r["bucket"]): r["rho"]
        for r in hll_group_rhos(ds, "g", "k").take_all()
    }
    assert got == want
