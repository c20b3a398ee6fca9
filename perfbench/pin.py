"""Record the optimizer searches and output digests pinned in ``pins.json``.

    python3 perfbench/pin.py

Run this only when a change is *meant* to alter simulated outputs (or the
workload definitions in ``workloads.py``); the benchmark fails any run
whose outputs drift from these pins.  The walk's searches are recorded from
``optimize_workload`` itself, with each visited point's digest taken from
the optimizer's own result; export digests come from the requests exactly
as ``worker.py`` serves them.  Everything runs in this one process on a
throwaway store under ``.perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.run import RUNS_DIR  # noqa: E402
from perfbench.worker import PINS, Requests, _canonical  # noqa: E402
from perfbench.workloads import export_episode, request_key  # noqa: E402

#: Optimizer seeds whose quick AlphaFold searches make up a walk episode.
WALK_POOL = range(6)


def pin_walk() -> dict:
    from repro.optimize.search import optimize_workload
    from repro.perf.scaling import clear_estimate_cache

    searches, digests = {}, {}
    for q in WALK_POOL:
        clear_estimate_cache()
        result = optimize_workload("alphafold", quick=True, seed=q)
        searches[str(q)] = [r.point for r in result.visited]
        for record in result.visited:
            digests[request_key(record.point)] = hashlib.sha256(
                _canonical(record.ttt.as_dict())).hexdigest()
        print(f"walk-alphafold search {q}: {len(result.visited)} points",
              flush=True)
    return {"searches": searches, "digests": digests}


def pin_export() -> dict:
    requests = Requests("trace-export")
    digests = {}
    for req in export_episode(0)[0]:
        digests[request_key(req)] = requests.digest(requests.run(req))
    print(f"trace-export: {len(digests)} requests", flush=True)
    return {"digests": digests}


def main() -> int:
    with open(PINS) as handle:
        pins = json.load(handle)
    os.makedirs(RUNS_DIR, exist_ok=True)
    store = tempfile.mkdtemp(prefix="pin-", dir=RUNS_DIR)
    os.environ["REPRO_CACHE_DIR"] = store
    try:
        pins["walk-alphafold"] = pin_walk()
        pins["trace-export"] = pin_export()
    finally:
        shutil.rmtree(store, ignore_errors=True)
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
