"""Print every metric of every workload by name, value, unit and sample count.

    python3 benchmarks/report.py [--seed N] [--seconds S]

Runs benchmarks/run.py once per workload with tracing off (end-to-end
metrics) and once with tracing on (per-layer metrics), and prints each run's
table; a run's last line, the JSON result, is left out.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "design", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            print("\n".join(proc.stdout.splitlines()[:-1]))
            print()
    return status


if __name__ == "__main__":
    sys.exit(main())
