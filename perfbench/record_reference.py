"""Record the output digests ``reference.json`` holds.

    python3 perfbench/record_reference.py

Runs every workload once per scale at its default seed (URL 7, taxi 3)
and writes the digests the output check compares against. Re-record
only when a change is meant to alter the cost or quality trajectory,
and say so in the change's description.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import TMP_ROOT, run_worker  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, reference_key  # noqa: E402


def main() -> int:
    reference = {}
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        for scale in ("test", "bench"):
            for workload in WORKLOADS.values():
                seed = workload.default_seed
                report = run_worker(
                    workload.name, seed, scale, tmp, traced=False,
                    deadline=time.monotonic() + 600.0,
                )
                if report["digest"] is None:
                    raise SystemExit(f"{workload.name}: {report['problems']}")
                key = reference_key(workload.name, scale, seed)
                reference[key] = report["digest"]
                print(key, report["digest"]["predictions_sha256"][:16])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
