"""Engine-level tests: Ray Data operators vs DuckDB oracles at sf0.001,
plus the neighbor-patch partitioning guarantee the radius join relies on."""

import math

import duckdb
import numpy as np
import pandas as pd
import pytest

from spatialindex_ray import ops
from spatialindex_ray.kernels import healpix

SF = "/root/testdata/sf0.001"


_ORACLE_TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in _ORACLE_TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _oracled_names():
    import __ray_entry__ as entry

    return sorted(entry.oracle_sql().keys())


# EVERY SQL-oracled query runs against its oracle in CI (the list is derived
# from oracle_sql() so a new entry is covered the moment it is wired).
@pytest.mark.parametrize("name", _oracled_names())
def test_query_vs_oracle(ray_session, oracle_con, name):
    import __ray_entry__ as entry

    res = entry.queries()[name](SF)
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        res = res.to_pandas()
    elif not isinstance(res, pd.DataFrame):
        res = res.to_pandas()
    exp = oracle_con.execute(entry.oracle_sql()[name]).df()
    a, b = _canon(res), _canon(exp)
    assert len(a) == len(b), (len(a), len(b))
    for col in a.columns:
        av, bv = a[col].to_numpy(), b[col].to_numpy()
        if av.dtype.kind == "f":
            # equal_nan: nullable int64 results (e.g. SCD2 open intervals)
            # surface as float NaN on both sides
            assert np.array_equal(av, bv, equal_nan=True), col
        else:
            assert (av == bv).all(), col


def test_neighbor_patch_covers_radius():
    """Partitioning assumption of the radius join: any two points within
    theta = safe radius at `order` lie in the same or adjacent pixels.
    Empirical check with dense random pairs near the limit distance."""
    for order in (4, 6, 8):
        theta_rad = 0.5 * healpix.max_pix_rad(order)
        theta_deg = math.degrees(theta_rad)
        assert ops.safe_join_order(theta_deg) >= order
        rng = np.random.default_rng(order)
        n = 20000
        lon = rng.uniform(0, 360, n)
        lat = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        # offset points at 0.999 * theta in random direction
        ang = rng.uniform(0, 2 * np.pi, n)
        dlat = np.degrees(theta_rad) * np.sin(ang) * 0.999
        dlon = np.degrees(theta_rad) * np.cos(ang) * 0.999 / np.maximum(
            np.cos(np.radians(lat)), 1e-6
        )
        lat2 = np.clip(lat + dlat, -89.9999, 89.9999)
        lon2 = (lon + dlon) % 360
        # keep only pairs truly within theta
        v1 = ops.xyz_from_lonlat(lon, lat)
        v2 = ops.xyz_from_lonlat(lon2, lat2)
        d2 = ((v1 - v2) ** 2).sum(axis=1)
        lim = 4 * math.sin(theta_rad / 2) ** 2
        keep = d2 <= lim
        p1 = healpix.sky2hpx(order, lon, lat)[keep]
        p2 = healpix.sky2hpx(order, lon2, lat2)[keep]
        patch = ops._patch_cells(order, p1)
        ok = (patch == p2[:, None]).any(axis=1)
        assert ok.all(), f"order {order}: {(~ok).sum()} pairs outside patch"


def test_ivf_ann_recall(ray_session):
    """IVF-bucketed ANN achieves reasonable recall vs exact top-k."""
    from spatialindex_ray.functions import ann

    exact = ann.topk_cosine_query(SF, k=10).to_pandas()
    approx = ann.ivf_topk_query(SF, k=10).to_pandas()
    exact_set = set(map(tuple, exact[["query_id", "vec_id"]].to_numpy()))
    approx_set = set(map(tuple, approx[["query_id", "vec_id"]].to_numpy()))
    recall = len(exact_set & approx_set) / len(exact_set)
    assert recall >= 0.5, recall  # approximate method, sanity floor


def test_webpages_text_byte_identity(ray_session):
    """text bytes survive encode + region filtering byte-identical per url
    (the input_hint invariant)."""
    from spatialindex_ray.sources import webpages

    pages = webpages.synth_webpages(2000, hot_frac=0.02)
    before = {r["url"]: r["text"] for r in pages.take_all()}
    enc = ops.encode(webpages.synth_webpages(2000, hot_frac=0.02), url_col="url")
    after = enc.take_all()
    assert len(after) == 2000
    for r in after:
        assert before[r["url"]] == r["text"]
    # hot urls duplicate -> identical positions (dense cells)
    hot = [r for r in after if r["url"].startswith("https://hot")]
    assert len(hot) > 0
    by_url = {}
    for r in hot:
        by_url.setdefault(r["url"], set()).add(r["htm20"])
    assert all(len(s) == 1 for s in by_url.values())


def test_embedding_near_dup_recall(ray_session):
    """Bucketed (IVF) near-dup finds nearly all true cosine>=tau pairs —
    and nothing below tau (precision is exact by construction)."""
    import pyarrow.parquet as pq

    from spatialindex_ray.functions import dedup

    got = dedup.embedding_near_dup_query(SF).to_pandas()
    got_set = set(map(tuple, got[["left_id", "right_id"]].to_numpy()))
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    X = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    S = X @ X.T
    ii, jj = np.nonzero(S >= dedup.EMB_TAU)
    keep = ids[ii] < ids[jj]
    true_set = set(zip(ids[ii][keep].tolist(), ids[jj][keep].tolist()))
    assert got_set <= true_set  # no false positives (exact cosine in-bucket)
    recall = len(got_set & true_set) / max(len(true_set), 1)
    assert recall >= 0.8, recall


def test_embedding_dup_exact_matches_brute(ray_session):
    """The bounded exact near-dup query (SQL-oracled) == in-process brute
    force over the same vec_id < limit prefix."""
    import pyarrow.parquet as pq

    from spatialindex_ray.functions import dedup

    got = dedup.embedding_dup_exact_query(SF).to_pandas()
    got_set = set(map(tuple, got[["left_id", "right_id"]].to_numpy()))
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    m = ids < dedup.EMB_EXACT_LIMIT
    ids = ids[m]
    X = np.stack(t["embedding"].to_numpy(zero_copy_only=False)[m]).astype(np.float64)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    S = X @ X.T
    ii, jj = np.nonzero(S >= dedup.EMB_TAU)
    keep = ids[ii] < ids[jj]
    true_set = set(zip(ids[ii][keep].tolist(), ids[jj][keep].tolist()))
    assert got_set == true_set
    assert len(true_set) > 0  # the synth prefix contains real near-dup pairs


def test_equi_join_broadcast_matches_exchange(ray_session):
    """Broadcast map-side hash join == two-sided exchange join."""
    import ray

    orders = ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_custkey", "o_orderkey"])
    cust = ray.data.read_parquet(f"{SF}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def run(**kw):
        out = ops.equi_join(orders, cust, on="o_custkey", right_on="c_custkey", **kw)
        df = out.to_pandas()[["o_orderkey", "o_custkey", "c_nationkey"]]
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    a = run(broadcast="right")
    b = run()
    pd.testing.assert_frame_equal(a, b)


def test_salted_join_matches_plain(ray_session):
    """hot_keys salting: skewed inner/left joins == unsalted exchange plan
    (hot left rows spread over salt sub-shards, hot right rows replicated;
    disjoint shard spaces so no duplicate output rows)."""
    import pyarrow as pa

    import ray

    rng = np.random.RandomState(7)
    # celebrity skew: key 5 holds ~60% of left rows and has 3 right matches
    lkeys = np.where(rng.rand(5000) < 0.6, 5, rng.randint(0, 40, 5000)).astype(np.int64)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(lkeys), "lv": pa.array(np.arange(5000, dtype=np.int64)),
    })).repartition(6)
    rkeys = np.concatenate([np.arange(0, 40), [5, 5]]).astype(np.int64)
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array(rkeys), "rv": pa.array(rkeys * 10),
    })).repartition(3)

    for how in ("inner", "left"):
        a = ops.equi_join(left, right, on="k", right_on="rk", how=how,
                          n_shards=16).to_pandas()
        b = ops.equi_join(left, right, on="k", right_on="rk", how=how,
                          n_shards=16, hot_keys=[5], n_salt=4).to_pandas()
        cols = ["k", "lv", "rv"]
        a = a[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
        b = b[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    # string keys route through hash64 and still agree
    sl = ray.data.from_arrow(pa.table({
        "k": pa.array(np.where(rng.rand(800) < 0.5, "hot", "c" +
                               pd.Series(rng.randint(0, 9, 800)).astype(str)).tolist()),
        "lv": pa.array(np.arange(800, dtype=np.int64)),
    }))
    sr = ray.data.from_arrow(pa.table({
        "rk": pa.array(["hot"] + [f"c{i}" for i in range(9)]),
        "rv": pa.array(np.arange(10, dtype=np.int64)),
    }))
    a = ops.equi_join(sl, sr, on="k", right_on="rk", how="inner").to_pandas()
    b = ops.equi_join(sl, sr, on="k", right_on="rk", how="inner",
                      hot_keys=["hot"], n_salt=4).to_pandas()
    cols = ["k", "lv", "rv"]
    a = a[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    b = b[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)

    # hot_keys="auto": the detector finds the celebrity key (heaviest first)
    # and the salted plan still matches; a high threshold isolates it and a
    # uniform side detects nothing (fallback to the plain plan)
    assert ops.detect_hot_keys(sl, "k")[0] == "hot"
    assert ops.detect_hot_keys(sl, "k", frac_threshold=0.2) == ["hot"]
    c = ops.equi_join(sl, sr, on="k", right_on="rk", how="inner",
                      hot_keys="auto", n_salt=4).to_pandas()
    c = c[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, c)
    assert ops.detect_hot_keys(sr, "rk", frac_threshold=0.5) == []


def test_heavy_hitters_misra_gries_bounds(ray_session):
    """MG guarantees: every key with true count > n/(k+1) is reported, and
    count_lo <= true count <= count_lo + n/(k+1)."""
    import pyarrow as pa

    import ray

    rng = np.random.RandomState(5)
    n = 40000
    keys = np.where(
        rng.rand(n) < 0.5,
        rng.randint(0, 8, n),               # 8 heavy keys (~6% each)
        rng.randint(1000, 9000, n),         # long uniform tail
    ).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"h": pa.array(keys)})).repartition(7)

    k = 32
    out = ops.heavy_hitters(ds, "h", k=k).to_pandas()
    assert (out["n_total"] == n).all()
    bound = n / (k + 1)
    true = {int(v): int(c) for v, c in zip(*np.unique(keys, return_counts=True))}
    reported = dict(zip(out["h"].astype(int), out["count_lo"].astype(int)))
    for key, c in true.items():
        if c > bound:
            assert key in reported, (key, c)
    for key, lo in reported.items():
        assert lo <= true[key] <= lo + bound, (key, lo, true[key])


def test_group_quantiles_sketch_error_bound(ray_session):
    """Histogram-sketch quantiles land within the documented per-group
    error bound (bin width / 2) of the exact operator, including a
    constant-valued group (zero width)."""
    import pyarrow as pa

    import ray

    rng = np.random.RandomState(21)
    n = 30000
    keys = rng.randint(0, 4, n)
    vals = np.where(keys == 3, 7.5, rng.lognormal(0.0, 1.0, n) * (keys + 1))
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys.astype(np.int64)), "v": pa.array(vals),
    })).repartition(8)

    qs = (0.5, 0.9, 0.99)
    n_bins = 512
    exact = ops.group_quantiles(ds, "k", "v", qs).to_pandas().set_index("k")
    approx = ops.group_quantiles_sketch(ds, "k", "v", qs, n_bins=n_bins) \
        .to_pandas().set_index("k")
    assert sorted(approx.index) == sorted(exact.index)
    for k in exact.index:
        m = vals[keys == k]
        tol = (m.max() - m.min()) / n_bins / 2 + 1e-9
        for q in qs:
            col = f"q{int(q * 100)}"
            assert abs(approx.loc[k, col] - exact.loc[k, col]) <= tol, (k, col)
    assert (approx["n_events"] == exact["n_events"]).all()


def test_outer_right_joins_match_pandas(ray_session):
    """how=outer/right via the exchange plan == single-process pandas merge;
    broadcast plans that would duplicate unmatched broadcast rows raise."""
    import pyarrow as pa
    import pytest

    import ray

    rng = np.random.RandomState(3)
    ltbl = pa.table({
        "k": pa.array(rng.randint(0, 30, 2000).astype(np.int64)),
        "lv": pa.array(np.arange(2000, dtype=np.int64)),
    })
    # right keys [20, 40): overlap 20-29, left-only 0-19, right-only 30-39
    rtbl = pa.table({
        "rk": pa.array(np.repeat(np.arange(20, 40), 3).astype(np.int64)),
        "rv": pa.array(np.arange(60, dtype=np.int64)),
    })
    left = ray.data.from_arrow(ltbl).repartition(5)
    right = ray.data.from_arrow(rtbl).repartition(2)

    for how in ("outer", "right"):
        got = ops.equi_join(left, right, on="k", right_on="rk", how=how,
                            n_shards=16).to_pandas()
        exp = ltbl.to_pandas().merge(rtbl.to_pandas(), left_on="k",
                                     right_on="rk", how=how)
        cols = sorted(exp.columns)
        got = got[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
        exp = exp[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp)

    for how, bc in (("outer", "right"), ("outer", "left"),
                    ("left", "left"), ("right", "right")):
        with pytest.raises(ValueError):
            ops.equi_join(left, right, on="k", right_on="rk", how=how,
                          broadcast=bc)
    # right join with the LEFT side broadcast is the valid small-side plan
    got = ops.equi_join(left, right, on="k", right_on="rk", how="right",
                        broadcast="left").to_pandas()
    exp = ltbl.to_pandas().merge(rtbl.to_pandas(), left_on="k", right_on="rk",
                                 how="right")
    cols = sorted(exp.columns)
    got = got[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    exp = exp[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_filter_join_plans_agree(ray_session):
    """Semi/anti joins: broadcast (distinct-key ship) == hash-exchange plan."""
    import ray

    cust = ray.data.read_parquet(f"{SF}/customer.parquet", columns=["c_custkey"])
    orders = ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_custkey"])

    def keys(df):
        # Ray's to_pandas() drops the schema when every block is empty
        return sorted(df["c_custkey"]) if "c_custkey" in df.columns else []

    for how in ("semi", "anti"):
        a = ops.equi_join(cust, orders, on="c_custkey", right_on="o_custkey",
                          how=how, broadcast="right").to_pandas()
        b = ops.equi_join(cust, orders, on="c_custkey", right_on="o_custkey",
                          how=how).to_pandas()
        assert keys(a) == keys(b)
    # semi + anti partition the left side
    n_semi = len(ops.equi_join(cust, orders, on="c_custkey", right_on="o_custkey",
                               how="semi", broadcast="right").to_pandas())
    n_anti = len(ops.equi_join(cust, orders, on="c_custkey", right_on="o_custkey",
                               how="anti", broadcast="right").to_pandas())
    assert n_semi + n_anti == cust.count()


def test_asof_join_forward_direction(ray_session):
    """asof_join(direction='forward'): earliest right time >= left time."""
    import pandas as pd
    import ray

    left = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 1, 2, 3], "t": [10, 25, 5, 7], "lid": [0, 1, 2, 3]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 1, 2], "t2": [12, 20, 99], "rid": [100, 101, 102]}))
    out = ops.asof_join(left, right, by="k", on="t", right_on="t2",
                        tiebreak="rid", direction="forward",
                        n_shards=4).to_pandas()
    got = dict(zip(out["lid"], out["rid"]))
    assert got[0] == 100        # t=10 -> earliest t2>=10 is 12
    assert np.isnan(got[1])     # t=25 -> no t2 >= 25 for k=1
    assert got[2] == 102
    assert np.isnan(got[3])     # k=3 has no right rows


def test_hll_distinct_accuracy(ray_session):
    """HLL sketch estimates per-group distinct counts within a few percent
    (b=12 -> ~1.6% sigma; small counts hit the linear-counting regime)."""
    import duckdb
    import __ray_entry__ as entry

    got = entry.queries()["events_user_hll"](SF).to_pandas()
    con = duckdb.connect()
    exact = con.execute(
        f"SELECT event_type, count(DISTINCT user_id) AS n FROM "
        f"read_parquet('{SF}/events.parquet') GROUP BY event_type"
    ).df()
    merged = got.merge(exact, on="event_type")
    assert len(merged) == len(exact)
    rel = np.abs(merged["approx_distinct"] - merged["n"]) / merged["n"]
    assert (rel <= 0.05).all(), merged


def test_asof_join_equal_time_tiebreak(ray_session):
    """Among equal right timestamps the MAX-tiebreak row wins in BOTH
    directions (the merge_asof first/last asymmetry is compensated by the
    per-direction sort)."""
    import pandas as pd
    import ray

    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 1], "t": [10, 15], "lid": [0, 1]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 1, 1, 1], "t2": [12, 12, 9, 9], "rid": [100, 101, 50, 51]}))
    fwd = ops.asof_join(left, right, by="k", on="t", right_on="t2",
                        tiebreak="rid", direction="forward", n_shards=2).to_pandas()
    got_f = dict(zip(fwd["lid"], fwd["rid"]))
    assert got_f[0] == 101  # t=10 -> earliest t2>=10 is 12; max rid among ties
    bwd = ops.asof_join(left, right, by="k", on="t", right_on="t2",
                        tiebreak="rid", direction="backward", n_shards=2).to_pandas()
    got_b = dict(zip(bwd["lid"], bwd["rid"]))
    assert got_b[0] == 51   # t=10 -> latest t2<=10 is 9; max rid among ties
    assert got_b[1] == 101  # t=15 -> latest t2<=15 is 12; max rid among ties


def test_prefix_sum_clustered_keys(ray_session):
    """prefix_sum stays correct when every key lands in one range shard
    (skewed/clustered order keys) and with huge key spans (no overflow)."""
    import pandas as pd
    import ray

    n = 5000
    keys = np.arange(n, dtype=np.int64) + (1 << 50)  # clustered far from 0
    vals = (np.arange(n, dtype=np.int64) % 7) + 1
    ds = ray.data.from_pandas(pd.DataFrame({"k": keys, "v": vals}))
    out = ops.prefix_sum(ds, "k", "v", n_shards=8, lo=0, hi=1 << 62).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    expect = np.concatenate([[0], np.cumsum(vals)[:-1]])
    assert (out["prefix"].to_numpy() == expect).all()


def test_group_quantiles_sum_prefixed_value_col(ray_session):
    """A value column whose name starts with 'sum' must not be mistaken for
    the internal count aggregate (regression for the startswith bug)."""
    import pandas as pd
    import ray

    df = pd.DataFrame(
        {"g": [1] * 10 + [2] * 10, "sum_latency": list(range(10)) * 2}
    )
    ds = ray.data.from_pandas(df)
    out = ops.group_quantiles(ds, "g", "sum_latency", (0.5,)).to_pandas()
    out = out.sort_values("g").reset_index(drop=True)
    # rank ceil(0.5*10)=5 -> 5th smallest of 0..9 = 4
    assert (out["q50"].to_numpy() == np.array([4, 4])).all()
    assert (out["n_events"].to_numpy() == np.array([10, 10])).all()


def test_topk_reduce_distributed_merge(ray_session):
    """topk_reduce returns exactly Q*k rows independent of block count and
    matches a driver-side brute-force merge (VERDICT r2 item 2: no
    take_all-then-pandas growth with block count)."""
    import pandas as pd
    import ray

    rng = np.random.RandomState(3)
    n_blocks, rows_per_block, Q, k = 60, 40, 3, 5
    frames = []
    for b in range(n_blocks):
        frames.append(
            pd.DataFrame(
                {
                    "qi": np.repeat(np.arange(Q), rows_per_block // Q + 1)[
                        :rows_per_block
                    ],
                    "doc_id": np.arange(rows_per_block) + b * rows_per_block,
                    "dist2": rng.rand(rows_per_block),
                }
            )
        )
    ds = ray.data.from_pandas(frames)  # one block per frame
    # tiny fan_in forces a multi-level merge (combiner output > 1 batch)
    out = ops.topk_reduce(
        ds, k, key_col="qi", id_col="doc_id", score_col="dist2",
        fan_in_rows=64,
    )
    assert len(out) == Q * k  # driver-side volume is exactly Q*k
    df = out.to_pandas().sort_values(["qi", "rank"]).reset_index(drop=True)
    allrows = pd.concat(frames)
    for qi in range(Q):
        sub = allrows[allrows["qi"] == qi].sort_values(
            ["dist2", "doc_id"], kind="mergesort"
        )
        expect = sub["doc_id"].to_numpy()[:k]
        got = df[df["qi"] == qi].sort_values("rank")["doc_id"].to_numpy()
        assert (got == expect).all()
    for _, ranks in df.groupby("qi")["rank"]:
        assert sorted(ranks) == list(range(1, k + 1))


def test_topk_reduce_descending_and_string_ids(ray_session):
    """Descending scores (similarity) with string ids: deterministic
    (score desc, id asc) tie-break."""
    import pandas as pd
    import ray

    df = pd.DataFrame(
        {
            "qi": [0] * 6,
            "vid": ["b", "a", "c", "e", "d", "f"],
            "sim": [0.9, 0.9, 0.8, 0.7, 0.8, 0.1],
        }
    )
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:]])
    out = ops.topk_reduce(
        ds, 4, key_col="qi", id_col="vid", score_col="sim", ascending=False
    ).to_pandas().sort_values("rank")
    assert list(out["vid"]) == ["a", "b", "c", "d"]


def test_semi_anti_null_keys_exists_semantics(ray_session):
    """Null join keys never match (SQL EXISTS): a null key in the right
    value set must not leak null-keyed left rows through the semi filter
    (ADVICE r2), and anti keeps null-keyed left rows (NOT EXISTS is true).
    Also covers _shard_tagger routing of nullable int key columns."""
    import pandas as pd
    import ray

    left = pd.DataFrame({"k": pd.array([1, 2, None, 4], dtype="Int64"),
                         "v": [10, 20, 30, 40]})
    right = pd.DataFrame({"k": pd.array([1, None, 5], dtype="Int64")})
    lds = ray.data.from_pandas(left)
    rds = ray.data.from_pandas(right)
    for bc in (None, "right"):
        semi = ops.equi_join(
            lds, rds, on="k", how="semi", broadcast=bc, n_shards=4
        ).to_pandas()
        assert sorted(semi["v"]) == [10], bc
        anti = ops.equi_join(
            lds, rds, on="k", how="anti", broadcast=bc, n_shards=4
        ).to_pandas()
        assert sorted(anti["v"]) == [20, 30, 40], bc


def test_interval_join_overlapping_bands(ray_session):
    """interval_join: a row joins EVERY containing interval (overlap
    semantics a searchsorted bucketing cannot express); rows outside all
    intervals drop."""
    import pandas as pd
    import ray

    df = pd.DataFrame({"id": [0, 1, 2, 3], "v": [5.0, 60.0, 120.0, -3.0]})
    bands = [(0, 0.0, 75.0), (1, 50.0, 125.0), (2, 100.0, 175.0)]
    out = ops.interval_join(
        ray.data.from_pandas(df), bands, "v", id_col="band"
    ).to_pandas()
    got = sorted(map(tuple, out[["id", "band"]].to_numpy()))
    assert got == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]


def test_interval_join_broadcast_contract(ray_session):
    import pandas as pd
    import ray

    ds = ray.data.from_pandas(pd.DataFrame({"v": [1.0]}))
    too_many = [(i, 0.0, 1.0) for i in range(100_001)]
    with pytest.raises(ValueError, match="broadcast contract"):
        ops.interval_join(ds, too_many, "v")


def test_cms_sketch_guarantee(ray_session):
    """CM guarantee: est >= true always; est <= true + 2N/width for the
    fixed-seed sketch on a skewed key distribution; distributed cells ==
    single-pass local cells (mergeable by addition)."""
    import pandas as pd
    import ray

    rng = np.random.RandomState(11)
    keys = rng.zipf(1.5, size=20000).astype(np.int64) % 1000
    ds = ray.data.from_pandas(
        [pd.DataFrame({"k": part}) for part in np.array_split(keys, 7)]
    )
    width = 128
    cells = ops.cms_sketch(ds, "k", width=width)
    assert cells.sum() == len(keys) * len(ops.CMS_SEEDS)
    probes = np.arange(50, dtype=np.int64)
    est = ops.cms_estimate(cells, probes)
    true = np.array([(keys == p).sum() for p in probes], dtype=np.int64)
    assert (est >= true).all()
    assert (est <= true + 2 * len(keys) // width).all()


def test_bloom_filter_no_false_negatives(ray_session):
    """Bloom: every inserted key probes True (int and string columns);
    false-positive rate on absent keys stays near the analytic bound."""
    import pandas as pd
    import ray

    n = 5000
    ints = pd.DataFrame({"k": np.arange(n, dtype=np.int64)})
    ds = ray.data.from_pandas([ints.iloc[:2000], ints.iloc[2000:]])
    bloom = ops.build_bloom_filter(ds, "k", m_bits=1 << 16)
    assert ops.bloom_may_contain(bloom, np.arange(n, dtype=np.int64)).all()
    absent = np.arange(10_000_000, 10_050_000, dtype=np.int64)
    fp = ops.bloom_may_contain(bloom, absent).mean()
    assert fp < 0.1, fp  # (1-e^(-4*5000/65536))^4 ~ 0.4%; generous margin

    strs = pd.DataFrame({"s": [f"url-{i}" for i in range(1000)]})
    sds = ray.data.from_pandas(strs)
    sbloom = ops.build_bloom_filter(sds, "s", m_bits=1 << 16)
    import pyarrow as pa

    present = ops._key_ints(pa.array([f"url-{i}" for i in range(1000)]))
    assert ops.bloom_may_contain(sbloom, present).all()


def test_composite_key_join_matches_pandas(ray_session):
    """Composite-key exchange join (mixed int+string key) == pandas merge;
    semi/salted composite plans raise the documented NotImplementedError."""
    import pandas as pd
    import ray

    rng = np.random.RandomState(5)
    left = pd.DataFrame(
        {
            "k1": rng.randint(0, 20, 500),
            "k2": np.array(["a", "b", "c"])[rng.randint(0, 3, 500)],
            "v": np.arange(500),
        }
    )
    right = pd.DataFrame(
        {
            "k1": rng.randint(0, 20, 200),
            "k2": np.array(["a", "b", "c"])[rng.randint(0, 3, 200)],
            "w": np.arange(200) * 10,
        }
    )
    lds = ray.data.from_pandas([left.iloc[:250], left.iloc[250:]])
    rds = ray.data.from_pandas([right.iloc[:90], right.iloc[90:]])
    got = (
        ops.equi_join(lds, rds, on=["k1", "k2"], n_shards=8)
        .to_pandas()[["k1", "k2", "v", "w"]]
        .sort_values(["k1", "k2", "v", "w"], kind="mergesort")
        .reset_index(drop=True)
    )
    exp = (
        left.merge(right, on=["k1", "k2"], how="inner")[["k1", "k2", "v", "w"]]
        .sort_values(["k1", "k2", "v", "w"], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)
    with pytest.raises(NotImplementedError, match="composite-key"):
        ops.equi_join(lds, rds, on=["k1", "k2"], how="semi")
    with pytest.raises(NotImplementedError, match="composite-key"):
        ops.equi_join(lds, rds, on=["k1", "k2"], hot_keys=[("x", "a")])


def test_tile_region_search_roundtrip_all_tiles(ray_session):
    """tile_region_search(T) returns exactly the rows tile_assign puts in T
    for EVERY populated tile (incl. polar rows) — the raster<->vector pair
    is loss-free in both directions."""
    import ray

    from spatialindex_ray.sources import webpages

    pages = webpages.synth_webpages(4000, hot_frac=0.0)
    enc = ops.encode(pages, url_col="url", htm_level=None).materialize()
    tile_deg = 30.0
    assigned = ops.tile_assign(enc, tile_deg).to_pandas()
    by_tile = assigned.groupby("tile_id")["url"].apply(set)
    assert len(by_tile) > 20
    # spot-check a spread of tiles: first, last (polar band), densest
    probe = {by_tile.index[0], by_tile.index[-1], by_tile.apply(len).idxmax()}
    # plus any polar-band tiles (lat >= 60)
    probe |= set(by_tile.index[by_tile.index >= (150 // 30 + 4) * 12][:2])
    for t in probe:
        got = {
            r["url"]
            for r in ops.tile_region_search(enc, int(t), tile_deg).take_all()
        }
        assert got == by_tile[t], t


def _union_find_components(n_nodes, pairs):
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # canonical label = min node id of the component
    return {v: find(v) for v in range(n_nodes)}


def test_connected_components_vs_union_find(ray_session):
    import pyarrow as pa
    import ray

    rng = np.random.default_rng(7)
    n = 400
    pairs = [tuple(sorted(p)) for p in rng.integers(0, n, size=(350, 2)) if p[0] != p[1]]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "left_id": pa.array([a for a, _ in pairs], pa.int64()),
                "right_id": pa.array([b for _, b in pairs], pa.int64()),
            }
        )
    )
    nodes = ray.data.from_arrow(pa.table({"doc_id": pa.array(range(n), pa.int64())}))
    got = (
        ops.connected_components(edges, nodes, n_shards=8)
        .to_pandas()
        .set_index("doc_id")["cluster_id"]
        .to_dict()
    )
    want = _union_find_components(n, pairs)
    # union-find roots are path-compressed mins because we always attach the
    # larger root under the smaller, so both sides label by component min
    assert got == want


def test_connected_components_iterative_vs_union_find(ray_session):
    """The distributed rounds (small_edge_limit=0 skips the one-task solve)
    on a random graph spread over several blocks, whose labels and edges
    are keyed inside the exchanges' split tasks, against union-find."""
    import pyarrow as pa
    import ray

    rng = np.random.default_rng(11)
    n = 300
    pairs = [tuple(sorted(p)) for p in rng.integers(0, n, size=(260, 2)) if p[0] != p[1]]
    left, right = (pa.array([p[i] for p in pairs], pa.int64()) for i in (0, 1))
    cut = len(pairs) // 3
    edges = ray.data.from_arrow(
        [
            pa.table({"left_id": left[lo:hi], "right_id": right[lo:hi]})
            for lo, hi in ((0, cut), (cut, cut), (cut, len(pairs)))
        ]
    )
    nodes = ray.data.from_arrow(
        [pa.table({"doc_id": pa.array(range(lo, lo + 100), pa.int64())}) for lo in (0, 100, 200)]
    )
    got = (
        ops.connected_components(edges, nodes, n_shards=8, small_edge_limit=0)
        .to_pandas()
        .set_index("doc_id")["cluster_id"]
        .to_dict()
    )
    assert got == _union_find_components(n, pairs)


def test_connected_components_long_chain(ray_session):
    import pyarrow as pa
    import ray

    n = 40  # diameter 39: exercises many propagation rounds
    edges = ray.data.from_arrow(
        pa.table(
            {
                "left_id": pa.array(range(n - 1), pa.int64()),
                "right_id": pa.array(range(1, n), pa.int64()),
            }
        )
    )
    nodes = ray.data.from_arrow(pa.table({"doc_id": pa.array(range(n), pa.int64())}))
    got = ops.connected_components(edges, nodes, n_shards=4).to_pandas()
    assert (got["cluster_id"] == 0).all()
    assert len(got) == n


def test_exchange_tolerates_groupby_empty_schema_blocks(ray_session):
    """Ray's sort-based groupby emits zero-row blocks with an EMPTY schema;
    map_batches passes them through untouched, so the exchange split/reduce
    must route them instead of KeyError'ing on the missing _shard tag."""
    import pyarrow as pa
    import ray

    left = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2, 3, 3, 3], pa.int64()),
                "v": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
            }
        )
    )
    # 3 groups over (default-parallelism) many partitions -> empty blocks
    right = left.groupby("k").max("v")

    def rename(tbl: pa.Table) -> pa.Table:
        return pa.table({"k": tbl["k"], "mx": tbl["max(v)"]})

    right = right.map_batches(rename, batch_format="pyarrow", batch_size=None)
    out = (
        ops.equi_join(left, right, on="k", n_shards=8)
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    assert len(out) == 6
    assert out.loc[out["k"] == 1, "mx"].unique().tolist() == [20]
    assert out.loc[out["k"] == 3, "mx"].unique().tolist() == [60]

    semi = ops.equi_join(left, right, on="k", how="semi", n_shards=8)
    assert semi.count() == 6


def test_cluster_canonical_sizes(ray_session):
    import pyarrow as pa
    import ray

    clusters = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
                "cluster_id": pa.array([1, 1, 1, 4, 5, 5, 7], pa.int64()),
            }
        )
    )
    got = (
        ops.cluster_canonical(clusters, n_shards=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == [1, 4, 5, 7]
    assert got["cluster_size"].tolist() == [3, 1, 2, 1]


def test_pivot_ignores_unknown_categories(ray_session):
    import pyarrow as pa
    import ray

    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2, 2, 2], pa.int64()),
                "cat": pa.array(["a", "zz", "a", "b", "b"]),
                "v": pa.array([10, 99, 1, 2, 3], pa.int64()),
            }
        )
    )
    got = (
        ops.pivot(ds, key_col="k", pivot_col="cat", value_col="v",
                  categories=["a", "b"], count_name="n")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    # unknown 'zz' contributes to the count but no category column,
    # matching SUM(CASE WHEN cat='a' ...) + COUNT(*) semantics
    assert got["a"].tolist() == [10, 1]
    assert got["b"].tolist() == [0, 5]
    assert got["n"].tolist() == [2, 3]


def test_window_rank_dense_vs_row_number(ray_session):
    import pyarrow as pa
    import ray

    ds = ray.data.from_arrow(
        pa.table(
            {
                "p": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
                "v": pa.array([5, 5, 3, 1, 9, 9], pa.int64()),
                "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            }
        )
    )
    rn = (
        ops.window_rank(ds, part_col="p", order_col="v", tiebreak_col="id",
                        descending=True, rank_col="r", n_shards=4)
        .to_pandas().sort_values("id")["r"].tolist()
    )
    assert rn == [1, 2, 3, 4, 1, 2]
    dr = (
        ops.window_rank(ds, part_col="p", order_col="v", method="dense_rank",
                        rank_col="r", n_shards=4)
        .to_pandas().sort_values("id")["r"].tolist()
    )
    # ascending dense rank: ties share a rank, no gaps
    assert dr == [3, 3, 2, 1, 1, 1]


def test_triangle_count_known_graph(ray_session):
    import pyarrow as pa
    import ray

    # K4 on {0,1,2,3} (4 triangles) + pendant edge 3-7 + disjoint triangle
    # 10-11-12 (1) => 5 triangles; edges given in mixed orientation
    e = [(0, 1), (2, 0), (0, 3), (1, 2), (3, 1), (2, 3), (7, 3), (10, 11), (12, 11), (10, 12)]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "left_id": pa.array([a for a, _ in e], pa.int64()),
                "right_id": pa.array([b for _, b in e], pa.int64()),
            }
        )
    )
    out = ops.triangle_count(edges, n_shards=4).to_pandas()
    assert out["n_triangles"].tolist() == [5]


def test_unpivot_inverts_pivot_layout(ray_session):
    import pyarrow as pa
    import ray

    ds = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2], pa.int64()),
                "a": pa.array([10, 30], pa.int64()),
                "b": pa.array([20, 0], pa.int64()),
            }
        )
    )
    got = (
        ops.unpivot(ds, key_cols=["k"], value_cols=["a", "b"])
        .to_pandas()
        .sort_values(["k", "variable"])
        .reset_index(drop=True)
    )
    assert got["k"].tolist() == [1, 1, 2, 2]
    assert got["variable"].tolist() == ["a", "b", "a", "b"]
    assert got["value"].tolist() == [10, 20, 30, 0]


def test_window_rank_part_size(ray_session):
    import pyarrow as pa
    import ray

    ds = ray.data.from_arrow(
        pa.table(
            {
                "p": pa.array([1, 1, 1, 2], pa.int64()),
                "v": pa.array([3, 1, 2, 9], pa.int64()),
                "id": pa.array([1, 2, 3, 4], pa.int64()),
            }
        )
    )
    got = (
        ops.window_rank(ds, part_col="p", order_col="v", tiebreak_col="id",
                        rank_col="r", part_size_col="n", n_shards=4)
        .to_pandas().sort_values("id")
    )
    assert got["r"].tolist() == [3, 1, 2, 1]
    assert got["n"].tolist() == [3, 3, 3, 1]


def test_new_ops_shard_count_invariance(ray_session):
    """Results of exchange-based operators must not depend on n_shards
    (the salt-independence rule): run CC, window_rank and cluster_canonical
    at two shard counts and compare exactly."""
    import pyarrow as pa
    import ray

    rng = np.random.default_rng(11)
    pairs = [tuple(sorted(p)) for p in rng.integers(0, 120, size=(90, 2)) if p[0] != p[1]]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "left_id": pa.array([a for a, _ in pairs], pa.int64()),
                "right_id": pa.array([b for _, b in pairs], pa.int64()),
            }
        )
    )
    nodes = ray.data.from_arrow(pa.table({"doc_id": pa.array(range(120), pa.int64())}))

    def cc(ns):
        return (
            ops.connected_components(edges, nodes, n_shards=ns)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )

    a, b = cc(4), cc(13)
    assert a.equals(b)

    clusters = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(a["doc_id"].to_numpy()),
                "cluster_id": pa.array(a["cluster_id"].to_numpy()),
            }
        )
    )

    def canon(ns):
        return (
            ops.cluster_canonical(clusters, n_shards=ns)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )

    assert canon(3).equals(canon(16))

    rows = ray.data.from_arrow(
        pa.table(
            {
                "p": pa.array((rng.integers(0, 9, 200)).astype(np.int64)),
                "v": pa.array((rng.integers(0, 50, 200)).astype(np.int64)),
                "id": pa.array(np.arange(200, dtype=np.int64)),
            }
        )
    )

    def wr(ns):
        return (
            ops.window_rank(rows, part_col="p", order_col="v", tiebreak_col="id",
                            rank_col="r", part_size_col="n", n_shards=ns)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )

    assert wr(2).equals(wr(11))


def test_crossmatch_best_brute_and_invariance(ray_session):
    """crossmatch_best == brute-force per-left (dist2, right_id) argmin
    within the radius (self pair excluded), rank 1..k; and the result is
    n_shards-invariant (salt-independence rule for exchanges)."""
    import math

    import pyarrow as pa
    import ray

    ids = np.arange(400, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    enc = ops.encode(ds, id_col="doc_id", htm_level=None, hpx_level=20)
    radius = 3.0

    def run(ns):
        return (
            ops.crossmatch_best(enc, enc, radius, k=2, n_shards=ns)
            .to_pandas()
            .sort_values(["left_id", "rank"])
            .reset_index(drop=True)
        )

    got = run(8)
    assert got.equals(run(23))

    lon, lat = ops.positions_from_id(ids)
    xyz = ops.xyz_from_lonlat(lon, lat)
    d2 = ((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=2)
    s = math.sin(radius * 0.5 * ops.RAD)
    thresh = 4.0 * s * s
    exp_rows = []
    for i in range(len(ids)):
        cand = [
            (d2[i, j], j) for j in range(len(ids)) if j != i and d2[i, j] <= thresh
        ]
        for rank, (_, j) in enumerate(sorted(cand)[:2], start=1):
            exp_rows.append((int(ids[i]), int(ids[j]), rank))
    got_rows = list(map(tuple, got[["left_id", "right_id", "rank"]].to_numpy()))
    assert sorted(got_rows) == sorted(exp_rows)


def test_pagerank_int_shard_invariance_and_brute(ray_session):
    """pagerank_int is n_shards-invariant and matches a local integer
    power iteration exactly (int64 fixed-point, floor divisions)."""
    import pyarrow as pa
    import ray

    rng = np.random.default_rng(7)
    raw = rng.integers(0, 60, size=(120, 2))
    pairs = sorted({(int(a), int(b)) for a, b in raw if a != b})
    edges = ray.data.from_arrow(
        pa.table(
            {
                "left_id": pa.array([a for a, _ in pairs], pa.int64()),
                "right_id": pa.array([b for _, b in pairs], pa.int64()),
            }
        )
    )
    nodes = ray.data.from_arrow(pa.table({"doc_id": pa.array(range(60), pa.int64())}))

    def run(ns):
        return (
            ops.pagerank_int(edges, nodes, iters=3, n_shards=ns)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )

    a = run(4)
    assert a.equals(run(11))

    deg = np.zeros(60, dtype=np.int64)
    for s, _ in pairs:
        deg[s] += 1
    r = np.full(60, 1_000_000, dtype=np.int64)
    for _ in range(3):
        s = np.zeros(60, dtype=np.int64)
        for u, v in pairs:
            s[v] += r[u] // deg[u]
        r = 150_000 + (s * 17) // 20
    assert a["pr_units"].to_numpy().tolist() == r.tolist()


def test_span_dedup_shard_invariance(ray_session):
    """span_dedup output must not depend on the exchange shard count."""
    import __ray_entry__ as entry

    def run(ns):
        return (
            entry._span_dedup(SF, n_shards=ns)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )

    assert run(8).equals(run(19))


def test_substring_cut_shard_invariance(ray_session):
    """substring_cut_dedup output must not depend on the exchange shard
    count, and excised docs must never GAIN tokens."""
    import __ray_entry__ as entry

    def run(ns):
        return (
            entry._substring_cut(SF, n_shards=ns)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )

    a, b = run(8), run(19)
    assert a.equals(b)
    assert (a["n_removed"] >= 0).all()
    # cutting the first duplicated-window occurrence is forbidden: at least
    # one doc per duplicate group keeps its full text (min doc of the
    # corpus-wide duplicate set has n_removed 0 unless covered elsewhere)
    assert (a["n_removed"] == 0).any()
