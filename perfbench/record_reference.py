"""Record the benchmark's reference result digests.

Runs one grid pass per pool seed on the exact and cohort tiers, with
no result store and every available core (results are identical at any
worker count), and writes ``perfbench/reference.json``.  Run it only
on a commit whose results are known good; the benchmark then fails any
run whose results differ from these.

Usage (from the repository root)::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import grid  # noqa: E402
from repro.parallel import SweepExecutor  # noqa: E402


def main() -> int:
    digests: dict[str, dict[str, list[list[str]]]] = {}
    for fidelity in ("exact", "cohort"):
        digests[fidelity] = {}
        for seed in grid.SEED_POOL:
            cfg = grid.config(fidelity, seed)
            executor = SweepExecutor(jobs=None)
            digests[fidelity][str(seed)] = [
                grid.cell_digests(figure.run(cfg, executor=executor))
                for figure in grid.FIGURES
            ]
            print(f"{fidelity} seed {seed}: done", file=sys.stderr)
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    reference = {"recorded_at": sha, "digests": digests}
    grid.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
