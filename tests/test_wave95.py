"""Wave 95: interpolated quantiles, data-contract gate — brutes."""

import sys
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import __ray_entry__ as entry  # noqa: E402

SF = "/root/testdata/sf0.001"


def test_quantiles_cont_brute(ray_session):
    out = (
        entry._events_quantiles_cont(SF)
        .to_pandas()
        .set_index("event_type")
        .sort_index()
    )
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_type", "value"])
    for ty, g in ev.groupby("event_type"):
        a = np.sort(g["value"].to_numpy(dtype=np.float64))
        row = out.loc[ty]
        assert row["n_events"] == len(a)
        for q in entry.EVENT_QS:
            pos = (len(a) - 1) * q
            lo = int(np.floor(pos))
            frac = pos - lo
            hi = min(lo + 1, len(a) - 1)
            want = a[lo] * (1 - frac) + a[hi] * frac
            assert row[f"q{int(q * 100)}c"] == want
    # cont differs from disc somewhere (interpolation actually happens)
    disc = (
        entry._events_quantiles(SF).to_pandas().set_index("event_type").sort_index()
    )
    assert any(
        out.loc[t, "q25c"] != disc.loc[t, "q25"] for t in out.index
    )


def test_data_contract_brute(ray_session):
    out = entry._data_contract_report(SF).to_pandas().set_index("rule")
    ev = pd.read_parquet(f"{SF}/events.parquet")
    cust = set(
        pd.read_parquet(f"{SF}/customer.parquet", columns=["c_custkey"])["c_custkey"]
    )
    n = len(ev)
    want = {
        "value_range": int(
            ((ev["value"] < 0) | (ev["value"] > entry.CONTRACT_VALUE_CAP)).sum()
        ),
        "type_enum": int((~ev["event_type"].isin(entry.EVENT_TYPES)).sum()),
        "props_present": int(ev["props"].isna().sum()),
        "user_fk": int((~ev["user_id"].isin(cust)).sum()),
    }
    for rule, nv in want.items():
        assert out.loc[rule, "n_violations"] == nv
        assert out.loc[rule, "n_rows"] == n


NULL_TYPE_WANT = {
    "value_range": 1, "type_enum": 2, "props_present": 1, "user_fk": 1,
}


def _write_null_type_tables(sf_dir):
    """4 events: one null and one 'bogus' event_type, one negative value,
    one null props, one user missing from customer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "user_id": pa.array([10, 10, 11, 12], pa.int64()),
                "event_type": pa.array(["click", None, "bogus", "view"]),
                "value": pa.array([1.0, 2.0, -1.0, 3.0]),
                "props": pa.array(["a", None, "c", "d"]),
            }
        ),
        sf_dir / "events.parquet",
    )
    pq.write_table(
        pa.table({"c_custkey": pa.array([10, 11], pa.int64())}),
        sf_dir / "customer.parquet",
    )


def test_data_contract_counts_null_event_type(ray_session, tmp_path):
    """A null event_type is a type_enum violation, next to a value outside
    EVENT_TYPES, within one block."""
    _write_null_type_tables(tmp_path)
    out = entry._data_contract_report(str(tmp_path)).to_pandas().set_index("rule")
    assert out["n_violations"].to_dict() == NULL_TYPE_WANT
    assert (out["n_rows"] == 4).all()


def test_data_contract_oracle_counts_null_event_type(tmp_path):
    """The DuckDB oracle applies the same null rule as the engine."""
    import duckdb

    _write_null_type_tables(tmp_path)
    con = duckdb.connect()
    for t in ("events", "customer"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path / t}.parquet')"
        )
    out = con.execute(entry._data_contract_oracle()).df().set_index("rule")
    assert out["n_violations"].to_dict() == NULL_TYPE_WANT
    assert (out["n_rows"] == 4).all()
