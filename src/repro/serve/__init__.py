"""``repro.serve`` — a long-lived mining service over warm sessions.

Every one-shot CLI invocation pays the full startup bill: parse the CSV,
rebuild entropy caches, respawn the exec worker pool, reopen the persistent
entropy cache.  This package amortises all of that across requests, the
way interactive query systems do:

* :mod:`~repro.serve.registry` — datasets load once, keyed by the
  ``repro.exec.persist`` relation fingerprint;
* :mod:`~repro.serve.session` — warm :class:`~repro.core.maimon.Maimon`
  instances (oracle memo + engine caches + pool + persistent cache) with
  LRU eviction and a per-session lock serialising concurrent requests;
* :mod:`~repro.serve.jobs` — a bounded job pool with budget-enforced
  per-request deadlines, polling and cooperative cancellation;
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — a stdlib
  ``ThreadingHTTPServer`` JSON API and its thin client.

Quick start (in process)::

    from repro.serve import MiningService, start_background, ServeClient

    server, _ = start_background(MiningService())
    client = ServeClient(f"http://127.0.0.1:{server.server_port}")
    ds = client.upload_csv(path="data.csv")
    print(client.mine(ds["dataset_id"], eps=0.05)["result"]["mvds"])
    server.close()

or from the command line: ``repro serve --port 8765``.
"""

from repro.serve.client import ServeAPIError, ServeClient
from repro.serve.jobs import Job, JobFinishedError, JobManager, RequestBudget
from repro.serve.registry import DatasetRegistry
from repro.serve.server import MiningHTTPServer, make_server, start_background
from repro.serve.service import MiningService, ServiceError
from repro.serve.session import Session, SessionCache

__all__ = [
    "DatasetRegistry",
    "Job",
    "JobFinishedError",
    "JobManager",
    "MiningHTTPServer",
    "MiningService",
    "RequestBudget",
    "ServeAPIError",
    "ServeClient",
    "ServiceError",
    "Session",
    "SessionCache",
    "make_server",
    "start_background",
]
