"""Record ``reference.json``: every row's deterministic metrics at every
input seed the benchmark's workloads can draw.

Run from the repository root (about ten minutes on a 2-vCPU host with two
shards in parallel processes, merged at the end):

    python3 perfbench/record_reference.py --shard 0/2 &
    python3 perfbench/record_reference.py --shard 1/2
    python3 perfbench/record_reference.py --merge 2

Rows are computed through ``repro.pipeline.run_technique_batch`` (16
input seeds per batched simulation), an independent path from the
scalar ``run_technique`` rows the table workloads measure.  Only re-run
this after a change that is meant to alter results; the benchmark then
checks the new behaviour against the new record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from common import BENCH_DIR, SRC, cold_env
from workloads import reference_plan

#: Row fields that do not depend on the input seed.
FIXED = ("dsp", "slices", "lut", "ff", "cp_ns", "fu_census",
         "predicted_ii", "mem_class", "memdep_diags")
CHUNK = 16


def shard_path(i: int) -> str:
    return str(BENCH_DIR / f".reference.shard{i}.json")


def record(shard: int, of: int) -> None:
    os.environ.clear()
    os.environ.update(cold_env())
    sys.path.insert(0, str(SRC))
    from repro.pipeline import run_technique_batch

    out = {}
    for n, (key, seeds) in enumerate(sorted(reference_plan().items())):
        if n % of != shard:
            continue
        kernel, technique, style, scale = key.split("/")
        fixed = None
        by_seed = {}
        for i in range(0, len(seeds), CHUNK):
            rows = run_technique_batch(
                kernel, technique, seeds=seeds[i:i + CHUNK],
                style=style, scale=scale,
            )
            for row in rows:
                f = {name: getattr(row, name) for name in FIXED}
                if fixed is None:
                    fixed = f
                elif f != fixed:
                    raise SystemExit(f"{key}: seed-independent fields vary")
                by_seed[str(row.seed)] = [row.cycles, row.exec_time_us]
        out[key] = {"fixed": fixed, "by_seed": by_seed}
        print(f"{key}: {len(by_seed)} seeds", flush=True)
    with open(shard_path(shard), "w") as f:
        json.dump(out, f)
    shutil.rmtree(Path(os.environ["REPRO_SWEEP_CACHE"]).parent)


def merge(of: int) -> None:
    rows = {}
    for i in range(of):
        with open(shard_path(i)) as f:
            rows.update(json.load(f))
    for entry in rows.values():
        values = {tuple(v) for v in entry["by_seed"].values()}
        if len(values) == 1:
            # Seed-independent row: one value covers its whole pool.
            entry["all_seeds"] = list(values.pop())
            del entry["by_seed"]
    missing = set(reference_plan()) - set(rows)
    if missing:
        raise SystemExit(f"shards lack rows: {sorted(missing)}")
    with open(BENCH_DIR / "reference.json", "w") as f:
        json.dump({"fixed_fields": list(FIXED), "rows": rows}, f,
                  sort_keys=True, separators=(",", ":"))
        f.write("\n")
    for i in range(of):
        os.unlink(shard_path(i))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--shard", default="0/1", help="i/n: record every n-th row")
    ap.add_argument("--merge", type=int, metavar="N",
                    help="merge N shard files into reference.json")
    args = ap.parse_args()
    if args.merge:
        merge(args.merge)
        return
    i, n = (int(x) for x in args.shard.split("/"))
    record(i, n)
    if n == 1:
        merge(1)


if __name__ == "__main__":
    main()
