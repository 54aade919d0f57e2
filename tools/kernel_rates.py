"""Ray-free per-core kernel rates at several batch sizes.

Runs the benchmark's kernel microbenchmark (``benchmark/micro.py``,
``kernel_rates``) once per ``--rows`` value and prints one JSON line:
{"<kernel>@<rows>": rows_per_s, ...}. To compare two checkouts, run the
script from each in turn (alternating, in the same host phase) and compare
the lines.

  OMP_NUM_THREADS=1 python tools/kernel_rates.py [--rows 1,1500,50000]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "benchmark")]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rows", default="1,1500,50000")
    args = ap.parse_args()

    import micro

    rates = {}
    for n in (int(r) for r in args.rows.split(",")):
        for key, rate in micro.kernel_rates(n).items():
            name = key.removeprefix("kernels.").removesuffix(".rows_per_s")
            rates[f"{name}@{n}"] = round(rate)
    print(json.dumps(rates))


if __name__ == "__main__":
    main()
