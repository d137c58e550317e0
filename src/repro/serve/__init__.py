"""Async multi-tenant cache serving with live cost accounting.

The online counterpart of :mod:`repro.sim`: instead of materializing a
:class:`~repro.sim.trace.Trace` and replaying it through
:func:`~repro.sim.engine.simulate`, a :class:`CacheServer` accepts
live, interleaved per-tenant request streams (in-process async API or
a line-delimited JSON TCP front end), routes them through a
hash-sharded set of policy instances (:mod:`repro.serve.shard`), and
keeps a running per-tenant cost ledger (:mod:`repro.serve.accounting`)
quoting :math:`f_i(m_i)` and the marginal price of the next miss.

Run a TCP server from the command line with ``python -m repro.serve``.
"""

from repro.serve.accounting import CostLedger
from repro.serve.client import (
    ReplayReport,
    load_trace_file,
    replay,
    replay_stream,
    replay_tcp,
    serve_trace,
)
from repro.serve.server import (
    ApplyFailed,
    BatchOutcome,
    CacheServer,
    RequestOutcome,
    ServerClosed,
    TenantGate,
)
from repro.serve.shard import CacheShard, ShardManager, page_hash

# Imported last: workers.py imports ServerClosed from server.py.
from repro.serve.workers import ShardWorkerPool, WorkerCrashed

__all__ = [
    "ApplyFailed",
    "BatchOutcome",
    "CacheServer",
    "CacheShard",
    "CostLedger",
    "ReplayReport",
    "RequestOutcome",
    "ServerClosed",
    "ShardManager",
    "ShardWorkerPool",
    "TenantGate",
    "WorkerCrashed",
    "load_trace_file",
    "page_hash",
    "replay",
    "replay_stream",
    "replay_tcp",
    "serve_trace",
]
