"""Seeded request streams for the two benchmark workloads.

Each workload is an *episode*: a fixed, seed-determined list of requests,
served whole and over again (see ``worker.py``).  The requests are the
program's own traffic, not a hand-built mix:

* ``walk-alphafold`` replays what the optimizer evaluates.  ``pins.json``
  holds the visit order of ``optimize_workload("alphafold", quick=True,
  seed=q)`` for every optimizer seed ``q`` of a fixed pool (``pin.py``
  records them from the optimizer itself, and every check process re-runs
  one search and compares).  An episode is every search of the pool, each
  starting on an empty step-estimate memo as a fresh ``repro optimize``
  call does; the benchmark seed shuffles the order of the searches.
* ``trace-export`` is every combination of the ``repro trace export``
  options in ``EXPORT_GRID`` once, in seeded order, starting with the
  command's defaults.

So the seed sets the order of the requests, and the mix of requests in an
episode is the same for every seed.

Only plain data leaves this module: walk points are ``{knob: value}``
dicts and export requests are small dicts; ``worker.py`` turns them into
program calls.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, List

WORKLOADS = ("walk-alphafold", "trace-export")

#: ``repro trace export --config small`` options, every combination once
#: per episode.  DAP 1 with DP 1 is the command's default (kernel trace
#: only); any other pair adds the multi-rank timeline.
EXPORT_GRID = (("workload", ("alphafold", "transformer")),
               ("scalefold", (False, True)),
               ("gpu", ("A100", "H100")),
               ("dap", (1, 2, 4, 8)),
               ("dp", (1, 2, 4, 8)))
#: ``repro trace export`` with no options: every episode starts here, so
#: set-up and restart times measure the same first request for any seed.
EXPORT_DEFAULT = {"workload": "alphafold", "scalefold": False, "gpu": "A100",
                  "dap": 1, "dp": 1}

Request = Dict[str, object]


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # Python versions and platforms.
    return random.Random(f"perfbench:{workload}:{seed}")


def request_key(request: Request) -> str:
    """Canonical text of one request: its key in ``pins.json``."""
    return json.dumps(request, sort_keys=True)


def walk_episode(seed: int, pins: dict) -> List[List[Request]]:
    """The pinned optimizer searches, in seeded order, one list each."""
    searches = pins["walk-alphafold"]["searches"]
    order = sorted(searches, key=int)
    _rng("walk-alphafold", seed).shuffle(order)
    return [searches[q] for q in order]


def export_episode(seed: int) -> List[List[Request]]:
    """Every ``EXPORT_GRID`` combination once, the defaults first.

    An explicit trace bypasses the step-estimate memo, so the whole
    episode is one segment.
    """
    names = [name for name, _ in EXPORT_GRID]
    grid = [dict(zip(names, combo))
            for combo in itertools.product(*(v for _, v in EXPORT_GRID))]
    grid.remove(EXPORT_DEFAULT)
    _rng("trace-export", seed).shuffle(grid)
    return [[dict(EXPORT_DEFAULT)] + grid]


def episode(workload: str, seed: int, pins: dict) -> List[List[Request]]:
    """The seed's episode as segments: the worker clears the step-estimate
    memo at the start of each segment."""
    if workload == "trace-export":
        return export_episode(seed)
    if workload == "walk-alphafold":
        return walk_episode(seed, pins)
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
