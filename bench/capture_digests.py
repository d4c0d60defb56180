"""Write digests.json: the sha256 of every checked output file at the default seed.

    python3 bench/capture_digests.py

Run it at the commit whose outputs are the reference. The benchmark then
fails any operation whose outputs at the default seed differ in one byte.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run_bench
import workloads


def main() -> int:
    sys.path.insert(0, str(run_bench.ROOT / "src"))
    captured = {}
    for name in workloads.NAMES:
        workload = workloads.build(name)
        work = run_bench.ROOT / ".bench_work" / f"capture-{name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            pkg = run_bench.fresh_import()
            inputs = run_bench.write_inputs(workload, pkg, work, run_bench.DEFAULT_SEED)
            session = run_bench.Session(workload, sys.modules["swarmclean.cli"])
            try:
                for key, input_dir in enumerate(inputs):
                    session.op(key, input_dir, workload.jobs)
            finally:
                session.close()
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(work.parent)
        if session.failed:
            print(f"error: {name} outputs fail their checks: {session.problems}", file=sys.stderr)
            return 1
        captured[name] = session.reference
    doc = {
        "seed": run_bench.DEFAULT_SEED,
        "commit": run_bench.git_commit(run_bench.ROOT / ".git"),
        "workloads": captured,
    }
    run_bench.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run_bench.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
