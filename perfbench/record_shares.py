"""Record each workload's per-layer shares of the traced wall time into
``layers.json`` (the ``baseline`` entry of every workload).

Run from the repository root after a change that moves time between
layers, so later claims can be sized against the current split:

    python3 perfbench/record_shares.py [--seed 7]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, ROOT
from tracer import SELF_TIME_METRICS
from workloads import DEFAULT_SEED, WORKLOADS

LAYERS = BENCH_DIR / "layers.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()
    doc = json.loads(LAYERS.read_text())
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--trace", "1"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{name}: traced run failed its checks")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        wall = m["trace.wall_s"]
        shares = {
            k: round(m[k] / wall, 4)
            for k in [*SELF_TIME_METRICS.values(), "unattributed_s"]
        }
        doc["workloads"][name]["baseline"] = {
            "seed": args.seed,
            "traced_wall_s": round(wall, 3),
            "shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        }
        print(f"{name}: traced wall {wall:.2f} s", flush=True)
    LAYERS.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
