"""tools/ray_job.py — the submittable job driver (north-star deployment
shape: `ray job submit --working-dir <repo> -- python tools/ray_job.py ...`).
Run in-process against the session Ray fixture."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))


def test_ray_job_end_to_end_and_resume(ray_session, tmp_path, capsys):
    import ray_job

    out = str(tmp_path / "job")
    rc = ray_job.main(["--input", "synth:3000", "--out", out, "--partitions", "8"])
    assert rc == 0
    stages = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    by = {s["stage"]: s for s in stages}
    assert by["index_build"]["rows"] == 3000
    # pytest runs from the repo root, so workers import the package by name
    assert by["input"]["udf_shipping"] == "by_name"
    assert by["index_build"]["partitions"] == 8
    assert by["query_tile"]["hit_rows"] > 0
    assert by["query_tile"]["tiles"] > 0
    assert "done" in by

    # job metrics live in their own manifest; the index manifest keeps its
    # per-partition lineage records (they must not clobber each other)
    jm = json.load(open(os.path.join(out, "_job_manifest.json")))
    assert set(jm["stage_metrics"]) >= {"input", "index_build", "query_tile"}
    im = json.load(open(os.path.join(out, "index", "_manifest.json")))
    assert len([k for k in im["partitions"] if k.startswith("range=")]) == 8

    # resume: identical input -> every index partition is skipped, same result
    before = {k: v["completed_at"] for k, v in im["partitions"].items()}
    rc = ray_job.main(["--input", "synth:3000", "--out", out, "--partitions", "8"])
    assert rc == 0
    stages2 = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    by2 = {s["stage"]: s for s in stages2}
    assert by2["query_tile"]["hit_rows"] == by["query_tile"]["hit_rows"]
    im2 = json.load(open(os.path.join(out, "index", "_manifest.json")))
    after = {k: v["completed_at"] for k, v in im2["partitions"].items()}
    assert before == after


def test_ray_job_dedup_stage(ray_session, tmp_path, capsys):
    import ray_job

    out = str(tmp_path / "jobd")
    # synth hot_frac=0.02 reuses hot urls once the hot-row index exceeds the
    # 250 hot (host, path) combos -> identical texts; 20000 rows yields ~150
    # duplicates, so dedup must shrink the row count and the index must
    # build over the survivors
    rc = ray_job.main(
        ["--input", "synth:20000", "--out", out, "--partitions", "8", "--dedup"]
    )
    assert rc == 0
    stages = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    by = {s["stage"]: s for s in stages}
    assert by["dedup"]["rows_in"] == 20000
    assert 0 < by["dedup"]["rows_out"] < 20000
    assert by["dedup"]["bytes"] > 0
    assert by["index_build"]["rows"] == by["dedup"]["rows_out"]
    # dedup keeps the MIN url per text: deterministic across runs
    import pyarrow.dataset as pads

    t1 = pads.dataset(os.path.join(out, "dedup")).to_table().sort_by("url")
    rc2 = ray_job.main(
        ["--input", "synth:20000", "--out", str(tmp_path / "jobd2"),
         "--partitions", "8", "--dedup"]
    )
    assert rc2 == 0
    t2 = pads.dataset(os.path.join(str(tmp_path / "jobd2"), "dedup")).to_table().sort_by("url")
    assert t1.equals(t2)
