"""ops.hash_exchange, one- and two-sided, against a NumPy reference.

Each case feeds the exchange the block shapes Ray really produces (zero-row
Arrow blocks, empty-schema blocks from a groupby, zero-row pandas blocks)
or an extreme key layout (one shard, one hot key, more pieces than
EXCHANGE_PIECE_BUDGET). The reducer reports, per shard and per side, the
row count and a checksum of the sorted values; the reference applies the
same reducer to shards cut with NumPy masks in the driver. The same cases
run again with the shard key re-added by the exchange's ``map_fn``. Then
come keyed_fold against pandas groupby and radius_join against all pairs.
"""

import math

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


def _shard_renamers():
    """(strip, retag): strip renames ``_shard`` to ``k``, and retag, the
    exchange's map_fn, appends ``_shard`` again from ``k``. Closures, so
    Ray pickles them by value."""

    def strip(tbl: pa.Table) -> pa.Table:
        return tbl.rename_columns(["k" if c == "_shard" else c for c in tbl.column_names])

    def retag(tbl: pa.Table) -> pa.Table:
        return tbl.append_column("_shard", tbl["k"])

    return strip, retag


@pytest.mark.parametrize("materialized", [True, False], ids=["materialized", "lazy"])
@pytest.mark.parametrize("sides", ["one", "two", "two_none"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exchange_map_fn_matches_numpy_reference(ray_session, case, sides, materialized):
    """The CASES matrix with ``_shard`` renamed away and re-added by
    ``map_fn``: the split tasks (materialized input) or a fused map_batches
    (lazy input) must tag the same rows, leave the zero-row blocks alone and
    give the reference frame. ``two_none`` maps only the first side; the
    second keeps its own ``_shard``."""
    import ray

    make, n_shards = CASES[case]
    rng = np.random.RandomState(sum(map(ord, case)))
    n_sides = 1 if sides == "one" else 2
    strip, retag = _shard_renamers()
    made, frames = zip(*[make(ray, rng, n_shards) for _ in range(n_sides)])
    stripped = []
    for i, ds in enumerate(made):
        if sides == "two_none" and i == 1:
            stripped.append(ds.materialize() if materialized else ds)
            continue
        ds = ds.map_batches(strip, batch_format="pyarrow", batch_size=None)
        if materialized:
            ds = ds.materialize()
            # the stripped blocks keep the shapes the case was built for
            before = ray.get(ops.block_refs(made[i]))
            after = ray.get(ops.block_refs(ds))
            assert [len(b) == 0 for b in after] == [len(b) == 0 for b in before]
        stripped.append(ds)
    map_fn = {"one": retag, "two": retag, "two_none": (retag, None)}[sides]
    ds = tuple(stripped) if n_sides == 2 else stripped[0]
    got = ops.hash_exchange(ds, "_shard", n_shards, _summarizer(), map_fn=map_fn)
    got = got.to_pandas().sort_values("shard").reset_index(drop=True)
    assert (got["n_keys"] == 1).all()
    pd.testing.assert_frame_equal(got, _reference(frames, n_shards))


def test_materialized_inputs_build_no_map_batches(ray_session, monkeypatch):
    """On materialized inputs the exchange's map runs in its split tasks:
    hash_exchange with map_fn, keyed_fold (tile_counts) and radius_join
    build no Ray Data map stage."""
    import ray

    rng = np.random.RandomState(3)
    strip, retag = _shard_renamers()
    frames = [_rows(rng, n, 8) for n in (0, 300, 500)]
    rows = ray.data.from_arrow(
        [strip(pa.Table.from_pandas(f, preserve_index=False)) for f in frames]
    )
    points = ray.data.from_arrow(_points(np.random.RandomState(4), (400, 0, 300)))

    def no_map_batches(*args, **kwargs):
        raise AssertionError("map_batches called on a materialized input")

    monkeypatch.setattr(ray.data.Dataset, "map_batches", no_map_batches)
    got = ops.hash_exchange(rows, "_shard", 8, _summarizer(), map_fn=retag).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("shard").reset_index(drop=True), _reference([pd.concat(frames)], 8)
    )
    assert ops.tile_counts(points, 1.0).to_pandas()["sum(partial)"].sum() == 700
    assert ops.radius_join(points, points, 2.0, id_col="id", n_shards=16).count() >= 700


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


# ------------------------------------------------------------- keyed_fold
def _count_sum_fold():
    """(partial, combine) of a per-key row count and value sum. The partial
    pre-aggregates each block with Arrow's group_by (null keys form one
    group there too); the combine adds the partials per key segment."""

    def partial(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by("k").aggregate([("v", "count"), ("v", "sum")])
        return g.select(["k", "v_count", "v_sum"])

    def combine(tbl: pa.Table, starts, lengths) -> pa.Table:
        assert (lengths > 0).all() and lengths.sum() == tbl.num_rows
        cols = {"k": tbl["k"].take(pa.array(starts, pa.int64()))}
        for c in ("v_count", "v_sum"):
            v = tbl[c].to_numpy(zero_copy_only=False).astype(np.int64)
            cols[c] = pa.array(np.add.reduceat(v, starts), pa.int64())
        return pa.table(cols)

    return partial, combine


def _fold_reference(frame: pd.DataFrame) -> pd.DataFrame:
    ref = frame.groupby("k", dropna=False)["v"].agg(["count", "sum"]).reset_index()
    ref.columns = ["k", "v_count", "v_sum"]
    return ref


def _sorted(frame: pd.DataFrame) -> pd.DataFrame:
    out = frame[["k", "v_count", "v_sum"]].astype(
        {"k": "Int64", "v_count": "int64", "v_sum": "int64"}
    )
    return out.sort_values("k", na_position="last").reset_index(drop=True)


def _kv(rng, n, n_keys, hot=None):
    k = np.full(n, hot) if hot is not None else rng.randint(0, n_keys, n)
    return pd.DataFrame(
        {"k": k.astype(np.int64), "v": rng.randint(0, 1 << 30, n).astype(np.int64)}
    )


def _fold_zero_row_arrow(ray, rng):
    frames = [_kv(rng, n, 50) for n in (0, 300, 0, 500, 0)]
    return _arrow_blocks(ray, frames), pd.concat(frames)


def _fold_groupby_empty_schema(ray, rng):
    raw = pd.DataFrame(
        {"k0": rng.randint(0, 5, 60).astype(np.int64), "v": rng.randint(0, 1000, 60)}
    )
    grouped = ray.data.from_pandas(raw).repartition(8).groupby("k0").sum("v")
    blocks = ray.get(ops.block_refs(grouped))
    assert any(b.num_rows == 0 and b.num_columns == 0 for b in blocks)

    def rekey(tbl: pa.Table) -> pa.Table:
        k = tbl["k0"].to_numpy(zero_copy_only=False)
        return pa.table({"k": pa.array(k % 3), "v": tbl["sum(v)"].cast(pa.int64())})

    sums = raw.groupby("k0")["v"].sum()
    ref = pd.DataFrame({"k": sums.index.to_numpy() % 3, "v": sums.to_numpy(np.int64)})
    return grouped.map_batches(rekey, batch_format="pyarrow", batch_size=None), ref


def _fold_zero_row_pandas(ray, rng):
    empty = pd.DataFrame(
        {
            "k": pd.Series([], dtype="int64"),
            "v": pd.Series([], dtype="int64"),
            "name": pd.Series([], dtype=object),
        }
    )
    rows = _kv(rng, 400, 40)
    rows["name"] = rows["v"].astype(str)
    return ray.data.from_pandas([empty]).union(_arrow_blocks(ray, [rows])), rows


def _fold_one_block(ray, rng):
    rows = _kv(rng, 600, 30)
    return _arrow_blocks(ray, [rows]), rows


def _fold_hot_key(ray, rng):
    frames = [_kv(rng, 250, 0, hot=7) for _ in range(4)]
    return _arrow_blocks(ray, frames), pd.concat(frames)


def _fold_over_cap(ray, rng):
    frames = [_kv(rng, 4, 3000) for _ in range(ops.MAX_SHARDS + 8)]
    return _arrow_blocks(ray, frames), pd.concat(frames)


def _fold_null_keys(ray, rng):
    # nulls next to key 0, which hashes to the same shard as a null
    frames = []
    for n in (200, 150, 250):
        f = _kv(rng, n, 6)
        f["k"] = pd.array(f["k"], dtype="Int64")
        f.loc[rng.rand(n) < 0.2, "k"] = pd.NA
        frames.append(f)
    ds = ray.data.from_arrow(
        [pa.Table.from_pandas(f, preserve_index=False) for f in frames]
    )
    return ds, pd.concat(frames)


FOLD_CASES = {
    "zero_row_arrow": (_fold_zero_row_arrow, 5),
    "groupby_empty_schema": (_fold_groupby_empty_schema, None),
    "zero_row_pandas": (_fold_zero_row_pandas, 2),
    "one_block": (_fold_one_block, 1),
    "hot_key": (_fold_hot_key, 4),
    "over_cap": (_fold_over_cap, ops.MAX_SHARDS),
    "null_keys": (_fold_null_keys, 3),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_keyed_fold_matches_pandas_groupby(ray_session, case):
    """keyed_fold with a count/sum combine equals pandas
    groupby(dropna=False) on the block shapes Ray produces; every key
    (the null key included) comes out exactly once, and the output has
    one block per shard (the partial's block count, capped)."""
    import ray

    make, n_shards = FOLD_CASES[case]
    ds, frame = make(ray, np.random.RandomState(sum(map(ord, case))))
    partial, combine = _count_sum_fold()
    out = ops.keyed_fold(ds, "k", partial, combine).materialize()
    if n_shards is not None:
        assert out.num_blocks() == n_shards
    got = out.to_pandas()
    assert not got["k"].duplicated().any()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(_fold_reference(frame)))


def _lonlat_blocks(rng, sizes):
    out = []
    for n in sizes:
        lon = rng.uniform(0.0, 360.0, n)
        lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
        if n:  # a few rows on tile edges and the poles
            lon[:3], lat[:3] = [0.0, 359.5, 12.0], [-90.0, 45.0, 89.999]
        cell = rng.randint(0, 12 * 4**20, n, dtype=np.int64)
        out.append(pa.table({"lon": lon, "lat": lat, "hpx20": cell}))
    return out


@pytest.mark.parametrize("lazy", [False, True])
def test_tile_and_cell_counts_contract(ray_session, lazy):
    """tile_counts and cell_counts on a multi-block input: int64 columns
    (tile_id, sum(partial)) and (cell, sum(partial_count)), every key once,
    counts equal to np.unique over all rows. ``lazy`` routes the input
    through a map stage, so the partials run fused upstream and materialize
    first; otherwise partial and tag run as one stage over the blocks."""
    import ray

    blocks = _lonlat_blocks(np.random.RandomState(11), (700, 0, 1300, 40, 900))
    ds = ray.data.from_arrow(blocks)
    if lazy:
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow", batch_size=None)
    rows = pa.concat_tables(blocks)

    tiles = ops.tile_assign_batch(rows, 1.0)["tile_id"].to_numpy()
    cells = rows["hpx20"].to_numpy() >> (2 * (20 - 5))
    for out, key, val, keys in (
        (ops.tile_counts(ds, 1.0), "tile_id", "sum(partial)", tiles),
        (ops.cell_counts(ds, "hpx20", out_level=5), "cell", "sum(partial_count)", cells),
    ):
        got = pa.concat_tables([t for t in ray.get(ops.block_refs(out)) if t.num_rows])
        assert got.column_names == [key, val]
        assert got.schema.types == [pa.int64(), pa.int64()]
        k = got[key].to_numpy()
        assert len(np.unique(k)) == len(k)
        order = np.argsort(k)
        uniq, cnt = np.unique(keys, return_counts=True)
        np.testing.assert_array_equal(k[order], uniq)
        np.testing.assert_array_equal(got[val].to_numpy()[order], cnt)


# ------------------------------------------------------------ radius_join
def _points(rng, sizes, cap=None, id0=0):
    """Arrow blocks of encoded points (id, lon, lat, x, y, z, hpx20), ids
    from ``id0`` up: uniform over the sphere, or uniform in the lon/lat box
    ``cap = (lon, lat, half_width_deg)``."""
    out = []
    for n in sizes:
        if cap is None:
            lon = rng.uniform(0.0, 360.0, n)
            lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
        else:
            lon = cap[0] + rng.uniform(-cap[2], cap[2], n)
            lat = cap[1] + rng.uniform(-cap[2], cap[2], n)
        tbl = pa.table({"id": np.arange(id0, id0 + n, dtype=np.int64), "lon": lon, "lat": lat})
        out.append(ops.encode_batch(tbl, lon_col="lon", lat_col="lat", htm_level=None))
        id0 += n
    return out


def _brute_pairs(left, right, radius_deg):
    """Every (left_id, right_id, dist2) within radius_deg, all pairs in NumPy."""
    lt, rt = pa.concat_tables(left), pa.concat_tables(right)
    d2 = sum(
        (lt[c].to_numpy()[:, None] - rt[c].to_numpy()[None, :]) ** 2 for c in "xyz"
    )
    s = math.sin(radius_deg * 0.5 * ops.RAD)
    i, j = np.nonzero(d2 <= 4.0 * s * s)
    return pd.DataFrame(
        {"left_id": lt["id"].to_numpy()[i], "right_id": rt["id"].to_numpy()[j], "dist2": d2[i, j]}
    )


def _pair_frame(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values(["left_id", "right_id"]).reset_index(drop=True)


# a dense 6-degree box straddling coarse cells, next to uniform points
_CAP = (120.0, 30.0, 3.0)


@pytest.mark.parametrize(
    "case", ["self_materialized", "self_lazy", "sparse_left", "sparse_right"]
)
def test_radius_join_matches_brute_force(ray_session, case):
    """radius_join's pair set and dist2 values equal an all-pairs NumPy
    reference. In the sparse cases one side has 5 rows, so at most 45 of
    the 64 shards get a row of it (a probe goes to at most 9 shards), and
    the two sides' ids are disjoint, so a join that mixed up its probe and
    build tables would emit wrong pairs."""
    import ray

    radius = 0.2
    rng = np.random.RandomState(sum(map(ord, case)))
    dense = _points(rng, (400, 0, 600), cap=_CAP) + _points(rng, (500,), id0=1000)
    sparse = _points(rng, (2, 0, 3), cap=_CAP, id0=1 << 40)
    left, right = {
        "sparse_left": (sparse, dense),
        "sparse_right": (dense, sparse),
    }.get(case, (dense, dense))
    lds, rds = ray.data.from_arrow(left), ray.data.from_arrow(right)
    if case == "self_lazy":
        lds = rds = lds.map_batches(lambda t: t, batch_format="pyarrow", batch_size=None)
    exp = _brute_pairs(left, right, radius)
    # more pairs than the smaller side has rows: a self-join's are not all i == j
    assert len(exp) > min(sum(map(len, left)), sum(map(len, right)))
    kw = dict(id_col="id", n_shards=64)
    got = _pair_frame(ops.radius_join(lds, rds, radius, with_dist2=True, **kw))
    pd.testing.assert_frame_equal(
        got, exp.sort_values(["left_id", "right_id"]).reset_index(drop=True)
    )
    ids = _pair_frame(ops.radius_join(lds, rds, radius, **kw))
    pd.testing.assert_frame_equal(ids, got[["left_id", "right_id"]])
