"""Request traces for the multi-tenant caching problem.

A :class:`Trace` is the paper's request sequence
:math:`\\sigma = (p_1, \\dots, p_T)` together with the ownership map
:math:`i(p)`: pages are integers ``0..P-1``, users are integers
``0..n-1``, and ``owners[p]`` is the user owning page ``p``.  Storing
both as numpy arrays keeps workload generation and statistics
vectorised (the hot paths per the HPC guides); the per-request
simulation loop consumes plain Python ints.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.util.validation import check_positive_int

#: Requests per batch view yielded by :meth:`Trace.batches` and
#: :meth:`repro.sim.colstore.TraceReader.batches`.
DEFAULT_BATCH = 1 << 16


@dataclass(frozen=True)
class Trace:
    """An immutable multi-tenant request sequence.

    Parameters
    ----------
    requests:
        1-D integer array; ``requests[t]`` is the page requested at
        (0-based) time ``t``.
    owners:
        1-D integer array of length ``num_pages``; ``owners[p]`` is the
        user owning page ``p``.  Every page id in ``requests`` must be a
        valid index into ``owners``.
    name:
        Optional label used in experiment tables.
    """

    requests: np.ndarray
    owners: np.ndarray
    name: str = "trace"

    def __post_init__(self) -> None:
        req = np.ascontiguousarray(np.asarray(self.requests, dtype=np.int64))
        own = np.ascontiguousarray(np.asarray(self.owners, dtype=np.int64))
        if req.ndim != 1:
            raise ValueError(f"requests must be 1-D, got shape {req.shape}")
        if own.ndim != 1 or own.size == 0:
            raise ValueError("owners must be a non-empty 1-D array")
        if req.size and (req.min() < 0 or req.max() >= own.size):
            raise ValueError(
                f"requests reference pages outside [0, {own.size - 1}]"
            )
        if own.min() < 0:
            raise ValueError("user ids must be non-negative")
        object.__setattr__(self, "requests", req)
        object.__setattr__(self, "owners", own)

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.requests.size)

    @property
    def length(self) -> int:
        """The paper's :math:`T`."""
        return int(self.requests.size)

    @property
    def num_pages(self) -> int:
        """Total pages in the universe :math:`P` (requested or not)."""
        return int(self.owners.size)

    @property
    def num_users(self) -> int:
        """The paper's :math:`n = |U|` (max owner id + 1)."""
        return int(self.owners.max()) + 1 if self.owners.size else 0

    def owner_of(self, page: int) -> int:
        """The paper's :math:`i(p)`."""
        return int(self.owners[page])

    def batches(
        self, batch_size: int = DEFAULT_BATCH
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(t0, requests[t0 : t0 + batch_size])`` views in
        trace order — the batch protocol of
        :meth:`repro.sim.colstore.TraceReader.batches`, so consumers
        stream either trace kind through one loop."""
        batch_size = check_positive_int(batch_size, "batch_size")
        requests = self.requests
        for t0 in range(0, requests.size, batch_size):
            yield t0, requests[t0 : t0 + batch_size]

    # ------------------------------------------------------------------
    # Derived quantities used throughout the paper's notation
    # ------------------------------------------------------------------
    def distinct_pages_requested(self) -> np.ndarray:
        """Sorted unique page ids appearing in the trace."""
        return np.unique(self.requests)

    def distinct_count_prefix(self) -> np.ndarray:
        """``out[t] = |B(t+1)|`` — distinct pages among the first ``t+1``
        requests (the paper's :math:`|B(t)|`, 1-indexed in the paper)."""
        if self.requests.size == 0:
            return np.zeros(0, dtype=np.int64)
        seen = np.zeros(self.num_pages, dtype=bool)
        out = np.empty(self.requests.size, dtype=np.int64)
        count = 0
        for t, p in enumerate(self.requests):
            if not seen[p]:
                seen[p] = True
                count += 1
            out[t] = count
        return out

    def request_counts(self) -> np.ndarray:
        """``out[p] = r(p, T)`` — total requests of each page."""
        return np.bincount(self.requests, minlength=self.num_pages).astype(np.int64)

    def per_user_request_counts(self) -> np.ndarray:
        """Total requests landing on each user's pages."""
        users = self.owners[self.requests]
        return np.bincount(users, minlength=self.num_users).astype(np.int64)

    def next_use_table(self) -> np.ndarray:
        """``out[t]`` = next time page ``requests[t]`` is requested after
        ``t``, or ``len(trace)`` if never — Belady's furthest-in-future
        oracle, computed in one backward pass."""
        T = self.requests.size
        out = np.empty(T, dtype=np.int64)
        nxt = np.full(self.num_pages, T, dtype=np.int64)
        for t in range(T - 1, -1, -1):
            p = self.requests[t]
            out[t] = nxt[p]
            nxt[p] = t
        return out

    def interval_indices(self) -> np.ndarray:
        """``out[t] = j(p_t, t)`` — the paper's interval index: this is
        the ``j``-th request of page ``p_t`` (1-based)."""
        T = self.requests.size
        out = np.empty(T, dtype=np.int64)
        counts = np.zeros(self.num_pages, dtype=np.int64)
        for t, p in enumerate(self.requests):
            counts[p] += 1
            out[t] = counts[p]
        return out

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "Trace":
        """Copy of this trace under a different display name."""
        return Trace(self.requests, self.owners, name=name)

    def head(self, t: int) -> "Trace":
        """Prefix of the first *t* requests (same page universe)."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return Trace(self.requests[:t], self.owners, name=f"{self.name}[:{t}]")

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate request streams over a shared page universe."""
        if other.num_pages != self.num_pages or not np.array_equal(
            other.owners, self.owners
        ):
            raise ValueError("traces must share the same page universe")
        return Trace(
            np.concatenate([self.requests, other.requests]),
            self.owners,
            name=f"{self.name}+{other.name}",
        )

    def pages_of_user(self, user: int) -> np.ndarray:
        """The paper's :math:`P_i` — page ids owned by *user*."""
        return np.nonzero(self.owners == user)[0]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_columnar(self, path: str, **kwargs):
        """Persist as an out-of-core columnar store; returns a
        :class:`~repro.sim.colstore.TraceReader` over it.

        Shorthand for :func:`repro.sim.colstore.write_columnar` —
        JSON (:meth:`save`) suits small fixture traces, the columnar
        store is the format for anything measured in millions of
        requests (4 bytes/request, streamable without loading).
        """
        from repro.sim.colstore import write_columnar

        return write_columnar(self, path, **kwargs)

    def to_json(self) -> str:
        """Serialise to a compact JSON document."""
        return json.dumps(
            {
                "name": self.name,
                "owners": self.owners.tolist(),
                "requests": self.requests.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        doc = json.loads(text)
        return cls(
            np.asarray(doc["requests"], dtype=np.int64),
            np.asarray(doc["owners"], dtype=np.int64),
            name=doc.get("name", "trace"),
        )

    def save(self, path: str) -> None:
        """Write the JSON serialisation to *path*."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, T={self.length}, "
            f"pages={self.num_pages}, users={self.num_users})"
        )


def make_trace(
    requests: Sequence[int],
    owners: Union[Sequence[int], dict],
    name: str = "trace",
) -> Trace:
    """Build a :class:`Trace` from Python-friendly inputs.

    ``owners`` may be a sequence indexed by page id, or a
    ``{page: user}`` mapping (pages absent from the mapping default to
    user 0).
    """
    req = np.asarray(list(requests), dtype=np.int64)
    if isinstance(owners, dict):
        num_pages = max(
            (max(owners) if owners else -1),
            (int(req.max()) if req.size else -1),
        ) + 1
        own = np.zeros(max(num_pages, 1), dtype=np.int64)
        for page, user in owners.items():
            own[page] = user
    else:
        own = np.asarray(list(owners), dtype=np.int64)
    return Trace(req, own, name=name)


def single_user_trace(requests: Sequence[int], num_pages: Optional[int] = None, name: str = "trace") -> Trace:
    """A classical (single-tenant) paging trace: all pages owned by user 0."""
    req = np.asarray(list(requests), dtype=np.int64)
    if num_pages is None:
        num_pages = int(req.max()) + 1 if req.size else 1
    num_pages = check_positive_int(num_pages, "num_pages")
    return Trace(req, np.zeros(num_pages, dtype=np.int64), name=name)


__all__ = ["DEFAULT_BATCH", "Trace", "make_trace", "single_user_trace"]
