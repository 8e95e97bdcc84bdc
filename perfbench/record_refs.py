"""Record the reference digest of every job of every pool seed.

    python3 perfbench/record_refs.py [workload ...]

Run at a commit whose outputs are trusted; it rewrites refs.json. Jobs
whose re-certification fails are reported and the file is not written.
"""

from __future__ import annotations

import json
import sys
import time

from worker import REFS, WORKDIR, import_fullsub, run_pass


def main(argv) -> int:
    fs = import_fullsub()
    from workloads import POOL, WORKLOADS
    names = argv or list(WORKLOADS)
    data = json.loads(REFS.read_text(encoding="ascii")) if REFS.is_file() else {}
    digests = data.get("digests", {})
    bad = 0
    for name in names:
        workload = WORKLOADS[name](fs, WORKDIR)
        t0 = time.monotonic()
        try:
            for seed in range(POOL):
                jobs = [job for unit in workload.units() for job in unit(seed)]
                for key, _head, _ns, got, error, _wall in run_pass(jobs, {}):
                    if got is None:
                        print(f"{key}: {error}", file=sys.stderr)
                        bad += 1
                    else:
                        digests[key] = got
        finally:
            workload.close()
        print(f"{name}: {POOL} pool seeds in {time.monotonic() - t0:.1f} s")
    if bad:
        return 1
    REFS.write_text(json.dumps({"fullsub": fs.__version__, "pool": POOL,
                                "digests": dict(sorted(digests.items()))},
                               indent=0) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
