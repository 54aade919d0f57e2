"""Engine code reaches Ray workers whatever the driver's cwd and whichever
of ``import spatialindex_ray`` and ``ray.init`` comes first.

Each test runs a driver in a subprocess with the repo root on its
``sys.path`` only (no ``PYTHONPATH``). From a cwd outside the repo, its
workers can import the package only if ``spatialindex_ray._udf_shipping``
arranged it; without that bootstrap, pickling by module name fails each
such case with ``ModuleNotFoundError: No module named 'spatialindex_ray'``.
"""

import os
import subprocess
import sys

import pandas as pd

from conftest import SF_SMOKE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IMPORT = "import spatialindex_ray\n"
INIT = "ray.init(address='local', num_cpus=1, include_dashboard=False)\n"
ENCODE = """
from spatialindex_ray import ops
ds = ray.data.from_items([{"url": f"http://h{i}.example/p"} for i in range(300)])
print("MODE", spatialindex_ray._udf_shipping())
print("COUNT", ops.encode(ds, url_col="url").count())
"""
CONE = """
import __ray_entry__ as entry
print("MODE", spatialindex_ray._udf_shipping())
entry.queries()["cone_search_htm"](SF).to_pandas().to_parquet(OUT)
"""


def _drive(cwd, body: str, **consts) -> dict:
    head = f"import sys\nsys.path.insert(0, {ROOT!r})\nimport ray\n"
    head += "".join(f"{k} = {v!r}\n" for k, v in consts.items())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", head + body + "ray.shutdown()\n"],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return dict(
        line.split(" ", 1) for line in proc.stdout.splitlines()
        if line.startswith(("MODE ", "COUNT "))
    )


def test_import_then_init_off_repo(tmp_path):
    out = _drive(tmp_path, IMPORT + INIT + ENCODE)
    assert out == {"MODE": "by_name", "COUNT": "300"}


def test_init_then_import_off_repo(tmp_path):
    # the probe task finds no package on the worker: by-value fallback
    out = _drive(tmp_path, INIT + IMPORT + ENCODE)
    assert out == {"MODE": "by_value", "COUNT": "300"}


def test_init_then_import_in_repo():
    # the worker inherits the driver's cwd, so the probe finds the package
    out = _drive(ROOT, INIT + IMPORT + ENCODE)
    assert out == {"MODE": "by_name", "COUNT": "300"}


def test_ray_entry_contract_off_repo(ray_session, tmp_path):
    """The driver contract: ray.init() first, then ``import __ray_entry__``
    from another cwd; a registry query returns the same frame as in-repo."""
    path = tmp_path / "cone.parquet"
    out = _drive(tmp_path, INIT + IMPORT + CONE, SF=SF_SMOKE, OUT=str(path))
    assert out == {"MODE": "by_value"}
    import __ray_entry__ as entry

    want = entry.queries()["cone_search_htm"](SF_SMOKE).to_pandas()
    got = pd.read_parquet(path)
    assert len(want) > 0
    cols = list(want.columns)
    pd.testing.assert_frame_equal(
        got.sort_values(cols).reset_index(drop=True),
        want.sort_values(cols).reset_index(drop=True),
    )
