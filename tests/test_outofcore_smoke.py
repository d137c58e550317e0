"""Out-of-core smoke: 5M requests streamed from a columnar store by a
child process that never materializes the request column give the
in-RAM run's counters, and the child's peak RSS stays flat.

Marked ``smoke``: the tier-1 run deselects it, and CI's
``outofcore-smoke`` job runs it with ``pytest -m smoke``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.policies import POLICY_REGISTRY
from repro.sim import simulate, write_columnar
from repro.workloads.builders import zipf_trace

pytestmark = pytest.mark.smoke

# Stream-simulate in a child process and read its own peak RSS: VmHWM,
# not getrusage's ru_maxrss, which Linux carries across exec, so the
# child would report this parent's larger peak.
CHILD = r'''
import json, sys
from repro.policies import POLICY_REGISTRY
from repro.sim import open_trace, simulate
r = simulate(open_trace(sys.argv[1]), POLICY_REGISTRY["lru"](), 64)
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kb = next(
        int(line.split()[1]) for line in fh
        if line.startswith("VmHWM:")
    )
json.dump({"hits": r.hits, "misses": r.misses,
           "user_misses": r.user_misses.tolist(),
           "peak_kb": peak_kb}, sys.stdout)
'''


def test_streamed_counters_match_in_ram_with_flat_rss(tmp_path):
    T = 5_000_000
    trace = zipf_trace(400, T, skew=1.3, seed=0)
    store = str(tmp_path / "smoke-col")
    reader = write_columnar(trace, store)
    assert reader.nbytes_per_request == 4
    print(f"store: {reader.bytes_on_disk()} bytes on disk for {T} requests")

    out = subprocess.run(
        [sys.executable, "-c", CHILD, store], check=True,
        capture_output=True, text=True,
    ).stdout
    got = json.loads(out)

    base = simulate(trace, POLICY_REGISTRY["lru"](), 64)
    assert got["hits"] == base.hits, (got["hits"], base.hits)
    assert got["misses"] == base.misses
    assert got["user_misses"] == base.user_misses.tolist()

    # Flat memory: interpreter + numpy + one mapped segment.  On a
    # 2-vCPU Linux VM (Python 3.11) this child peaks at 105 MB, and the
    # same child with .materialize() before simulate() at 162 MB; the
    # bound sits between the two.
    bound_kb = 135 * 1024
    assert got["peak_kb"] < bound_kb, (
        f"streaming peak RSS {got['peak_kb']} KB >= {bound_kb} KB"
    )
    print(f"outofcore smoke ok: counters identical, "
          f"peak RSS {got['peak_kb'] / 1024:.0f} MB")
