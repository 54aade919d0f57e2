"""ops.hash_exchange, one- and two-sided, against a NumPy reference.

Each case feeds the exchange the block shapes Ray really produces (zero-row
Arrow blocks, empty-schema blocks from a groupby, zero-row pandas blocks)
or an extreme key layout (one shard, one hot key, more pieces than
EXCHANGE_PIECE_BUDGET). The reducer reports, per shard and per side, the
row count and a checksum of the sorted values; the reference applies the
same reducer to shards cut with NumPy masks in the driver.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from spatialindex_ray import ops


def _summarizer():
    """shard_fn: one row per shard that holds rows on any side, with the
    distinct-key count and, per side, the row count and a position-weighted
    checksum of the sorted values (wrapping uint64). Built as a closure so
    Ray pickles it by value; workers cannot import this test module."""

    def summarize(*tables):
        cols = {"shard": [], "n_keys": []}
        for i in range(len(tables)):
            cols[f"n{i}"], cols[f"sum{i}"] = [], []
        keys = [
            t["_shard"].to_numpy(zero_copy_only=False) for t in tables if t.num_rows
        ]
        if keys:
            uniq = np.unique(np.concatenate(keys))
            cols["shard"].append(int(uniq[0]))
            cols["n_keys"].append(len(uniq))
            for i, t in enumerate(tables):
                v = np.zeros(0, np.uint64)
                if t.num_rows:
                    v = np.sort(t["val"].to_numpy(zero_copy_only=False)).astype(np.uint64)
                w = np.arange(1, len(v) + 1, dtype=np.uint64)
                cols[f"n{i}"].append(len(v))
                cols[f"sum{i}"].append(int((v * w).sum(dtype=np.uint64).view(np.int64)))
        return pa.table({k: pa.array(v, pa.int64()) for k, v in cols.items()})

    return summarize


def _reference(frames, n_shards):
    """Per-shard summary of pandas frames (one per side) cut with NumPy."""
    summarize = _summarizer()
    out = []
    for s in range(n_shards):
        parts = [
            pa.Table.from_pandas(
                f.loc[f["_shard"].to_numpy() == s, ["_shard", "val"]],
                preserve_index=False,
            )
            for f in frames
        ]
        out.append(summarize(*parts))
    return pa.concat_tables(out).to_pandas()


def _rows(rng, n, n_shards, hot=None):
    shard = np.full(n, hot) if hot is not None else rng.randint(0, n_shards, n)
    return pd.DataFrame(
        {
            "_shard": shard.astype(np.int64),
            "val": rng.randint(0, 1 << 40, n).astype(np.int64),
        }
    )


def _arrow_blocks(ray, frames):
    return ray.data.from_arrow([pa.Table.from_pandas(f, preserve_index=False) for f in frames])


def _zero_row_arrow(ray, rng, n_shards):
    frames = [_rows(rng, n, n_shards) for n in (0, 300, 0, 500, 0)]
    ds = _arrow_blocks(ray, frames)
    assert sum(b.num_rows == 0 for b in ray.get(ops.block_refs(ds))) == 3
    return ds, pd.concat(frames)


def _groupby_empty_schema(ray, rng, n_shards):
    # few keys over many partitions: Ray's sort-based groupby emits zero-row
    # blocks with an EMPTY schema, and map_batches passes them through
    raw = pd.DataFrame(
        {"k": rng.randint(0, 5, 60).astype(np.int64), "v": rng.randint(0, 1000, 60)}
    )
    grouped = ray.data.from_pandas(raw).repartition(8).groupby("k").sum("v")
    blocks = ray.get(ops.block_refs(grouped))
    assert any(b.num_rows == 0 and b.num_columns == 0 for b in blocks)

    def tag(tbl: pa.Table) -> pa.Table:
        k = tbl["k"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"_shard": pa.array(k % n_shards), "val": tbl["sum(v)"].cast(pa.int64())}
        )

    ds = grouped.map_batches(tag, batch_format="pyarrow", batch_size=None)
    sums = raw.groupby("k")["v"].sum()
    ref = pd.DataFrame(
        {"_shard": sums.index.to_numpy() % n_shards, "val": sums.to_numpy(np.int64)}
    )
    return ds, ref


def _zero_row_pandas(ray, rng, n_shards):
    # a zero-row pandas block with an object column: from_pandas infers
    # Arrow type null for it, while the real rows carry string
    empty = pd.DataFrame(
        {
            "_shard": pd.Series([], dtype="int64"),
            "val": pd.Series([], dtype="int64"),
            "name": pd.Series([], dtype=object),
        }
    )
    rows = _rows(rng, 400, n_shards)
    rows["name"] = rows["val"].astype(str)
    ds = ray.data.from_pandas([empty]).union(_arrow_blocks(ray, [rows]))
    return ds, rows


def _one_shard(ray, rng, n_shards):
    frames = [_rows(rng, 200, n_shards) for _ in range(3)]
    return _arrow_blocks(ray, frames), pd.concat(frames)


def _hot_key(ray, rng, n_shards):
    frames = [_rows(rng, 250, n_shards, hot=n_shards - 3) for _ in range(4)]
    return _arrow_blocks(ray, frames), pd.concat(frames)


def _over_budget(ray, rng, n_shards):
    frames = [_rows(rng, 100, n_shards) for _ in range(40)]
    ds = _arrow_blocks(ray, frames)
    assert len(ops.block_refs(ds)) * n_shards > ops.EXCHANGE_PIECE_BUDGET
    return ds, pd.concat(frames)


CASES = {
    "zero_row_arrow": (_zero_row_arrow, 8),
    "groupby_empty_schema": (_groupby_empty_schema, 4),
    "zero_row_pandas": (_zero_row_pandas, 4),
    "one_shard": (_one_shard, 1),
    "hot_key": (_hot_key, 16),
    "over_budget": (_over_budget, 128),
}


@pytest.mark.parametrize("n_sides", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exchange_matches_numpy_reference(ray_session, case, n_sides):
    import ray

    make, n_shards = CASES[case]
    rng = np.random.RandomState(sum(map(ord, case)))
    sides, frames = zip(*[make(ray, rng, n_shards) for _ in range(n_sides)])
    ds = sides if n_sides == 2 else sides[0]
    got = ops.hash_exchange(ds, "_shard", n_shards, _summarizer()).to_pandas()
    exp = _reference(frames, n_shards)
    got = got.sort_values("shard").reset_index(drop=True)
    assert (got["n_keys"] == 1).all()
    pd.testing.assert_frame_equal(got, exp)


def test_two_sided_zero_row_pandas_object_block(ray_session):
    """A zero-row pandas block with an object column on one side: its
    null-typed empty pieces must not be concatenated with the string-typed
    rows of the same shard (ArrowInvalid: name: string)."""
    import ray

    a = ray.data.from_pandas(
        [
            pd.DataFrame(
                {"_shard": pd.Series([], dtype="int64"), "name": pd.Series([], dtype=object)}
            )
        ]
    ).union(ray.data.from_arrow(pa.table({"_shard": [0, 1, 1], "name": ["a", "b", "c"]})))
    b = ray.data.from_arrow(pa.table({"_shard": [0, 1], "name": ["x", "y"]}))

    def count(ta: pa.Table, tb: pa.Table) -> pa.Table:
        return pa.table({"na": [ta.num_rows], "nb": [tb.num_rows]})

    got = ops.hash_exchange((a, b), "_shard", 2, count).to_pandas()
    assert got["na"].tolist() == [1, 2]
    assert got["nb"].tolist() == [1, 1]


def test_empty_shard_gets_widest_typed_piece(ray_session):
    """A shard with no rows on a side gets that side's widest empty piece,
    preferring one without null-typed columns, so shard_fn sees the real
    schema even next to empty-schema and zero-row pandas blocks."""
    import ray

    pdf = pd.DataFrame(
        {"_shard": pd.Series([], dtype="int64"), "name": pd.Series([], dtype=object)}
    )
    rows = pa.table({"_shard": pa.array([0, 0], pa.int64()), "name": ["a", "b"]})
    ds = ray.data.from_pandas([pdf]).union(
        ray.data.from_arrow([pa.table({}), rows])
    )

    def schema_of(t: pa.Table) -> pa.Table:
        return pa.table(
            {"n": [t.num_rows], "schema": [",".join(f"{f.name}:{f.type}" for f in t.schema)]}
        )

    got = ops.hash_exchange(ds, "_shard", 2, schema_of).to_pandas()
    assert got["n"].tolist() == [2, 0]
    assert got["schema"].tolist() == ["_shard:int64,name:string"] * 2
