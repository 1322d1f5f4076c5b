"""Write reference.json: the default seed's outputs of every workload.

Run from the root of a checkout, on the commit whose outputs become the
reference:

    python3 perfbench/record_reference.py

The benchmark compares every job of a default-seed run with these
values (floats to 1e-10 relative, counts and p-values exactly).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run  # sets the BLAS thread count before numpy loads
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    import partlin.cli as cli

    os.makedirs(run.WORK_ROOT, exist_ok=True)
    reference = {}
    for name in workloads.WORKLOADS:
        work = tempfile.mkdtemp(prefix=f"ref_{name}_", dir=run.WORK_ROOT)
        try:
            job = workloads.make_inputs(name, workloads.DEFAULT_SEED, work)
            run.run_job(cli, job)
            reference[name] = workloads.extract(name, job)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(name, reference[name])
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
