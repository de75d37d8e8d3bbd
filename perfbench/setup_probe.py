"""Time one fresh interpreter's set-up for a workload.

    python3 perfbench/setup_probe.py <workload> <seed> <work dir> [--full-range]

Imports ordstat from the checkout's ``src``, builds the workload's inputs
and runs its warm-up ops, then prints one JSON line with the three stage
times in seconds.  ``run.py`` starts several of these and reports the
median wall time as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

t_start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ordstat.cli  # noqa: E402  (cli loads every module the workloads call)

t_import = time.perf_counter()
from workloads import make_workload  # noqa: E402


def main() -> int:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    work.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, full_range="--full-range" in sys.argv[4:])
    t0 = time.perf_counter()
    workload.build(ordstat, work)
    warm = workload.warmup(ordstat, work)
    t1 = time.perf_counter()
    for inp in warm:
        workload.run(ordstat, inp)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t_import - t_start, "inputs_s": t1 - t0,
                      "warmup_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
