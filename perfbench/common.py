"""Paths and the cold, default environment every benchmark process runs in."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for per-process caches, inside the checkout and git-ignored.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Environment knobs that would pin a non-default configuration.
SCRUB = (
    "REPRO_SIM_BACKEND", "REPRO_SIM_FF", "REPRO_SIM_LANES",
    "REPRO_SIM_SANITIZE", "REPRO_SIM_NO_NUMPY",
)


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def cold_env() -> Dict[str, str]:
    """A copy of the environment with program defaults and empty caches.

    Drops every simulator override and every ``REPRO_SWEEP_*`` variable,
    then points the sweep result cache, the codegen module cache and the
    XDG cache root at fresh directories, so nothing is read from
    ``~/.cache`` or ``benchmarks/results/cache``.
    """
    env = {
        k: v for k, v in os.environ.items()
        if k not in SCRUB and not k.startswith("REPRO_SWEEP_")
    }
    TMP_ROOT.mkdir(exist_ok=True)
    fresh = Path(tempfile.mkdtemp(prefix="cold-", dir=TMP_ROOT))
    env["REPRO_SWEEP_CACHE"] = str(fresh / "sweep")
    env["REPRO_CODEGEN_CACHE"] = str(fresh / "codegen")
    env["XDG_CACHE_HOME"] = str(fresh / "xdg")
    env["PYTHONPATH"] = str(SRC)
    return env
