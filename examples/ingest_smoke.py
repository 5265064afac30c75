"""Smoke-test the out-of-core store pipeline through the real CLI.

Generates a small CSV, ingests it into a columnar store directory with
``repro ingest``, mines it both ways — ``--store`` (out-of-core chunked
kernels) and straight from the CSV (classic in-memory path) — and
asserts the backend seam's whole contract:

* the ingest-time fingerprint equals the in-memory relation fingerprint
  (both artefacts carry it, so the comparison is end to end);
* the mined MVDs and minimal separators are identical between backends;
* ``repro ingest`` refuses to clobber an existing store without
  ``--force`` and reports a clean structured error for a missing CSV;
* mined in process (``repro.api.run`` with ``DataSpec(store=...)``), a
  store whose rows repeat is packed into its distinct tuples in one
  streamed pass (``kernel.packs`` is 1 and ``kernel.chunked_chunks`` is
  the chunks of one pass), while a store of all-distinct rows declines
  the pack and still mines what the CSV mines;
* a ``schemas`` request on the packed store counts spurious tuples over
  the packed tuples, never loading the store
  (``kernel.chunked_materialized`` stays 0), while the all-distinct
  store falls back to loading itself once; both rank the CSV's schemas.

Used as the CI backends smoke step; exits non-zero on any failure.

Run with: ``PYTHONPATH=src python examples/ingest_smoke.py``
"""

import csv
import json
import math
import os
import random
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import api  # noqa: E402
from repro.kernels.dispatch import DEFAULT_CHUNK_ROWS  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), "..")
ENV = {**os.environ, "PYTHONPATH": "src"}


def repro(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
    )
    if proc.returncode != expect:
        raise AssertionError(
            f"repro {' '.join(args)} exited {proc.returncode}, expected "
            f"{expect}\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


ROWS = 3000


def write_csv(path: str, with_id: bool) -> None:
    """The smoke relation; ``with_id`` adds a row id, so no row repeats."""
    rng = random.Random(11)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow((["id"] if with_id else [])
                        + ["region", "product", "size", "rating"])
        for i in range(ROWS):
            region = rng.choice(["north", "south", "east"])
            product = rng.choice(["ore", "grain", "cloth", "tools"])
            # size is a function of product: a real dependency to mine.
            size = {"ore": "XL", "grain": "L", "cloth": "M", "tools": "S"}[product]
            row = [region, product, size, rng.choice(["a", "b"])]
            writer.writerow(([f"r{i}"] if with_id else []) + row)


def mine_store_in_process(store: str):
    """Mine a store through the library front door; the result's payload
    and flat counters."""
    request = api.TaskRequest(
        "mine", api.MineSpec(eps=0.01), data=api.DataSpec(store=store))
    result = api.run(request)
    return result.payload, result.counters


def schemas_in_process(data: "api.DataSpec"):
    """Rank schemas through the library front door; the result's ranked
    schemas and flat counters."""
    request = api.TaskRequest("schemas", api.SchemasSpec(eps=0.01), data=data)
    result = api.run(request)
    return result.payload["schemas"], result.counters


def check_schemas(csv_path: str, store: str, materialized: int) -> None:
    """A store ranks the CSV's schemas, loading itself ``materialized``
    times (0 when it packs: spurious tuples are counted over its packed
    tuples)."""
    want, _ = schemas_in_process(api.DataSpec(csv=csv_path))
    got, counters = schemas_in_process(api.DataSpec(store=store))
    assert counters["kernel.chunked_materialized"] == materialized, counters
    assert got == want
    assert any(len(s["schema"]["bags"]) > 1 for s in got), got


def check_packing(tmp: str, from_memory: dict) -> None:
    """The in-process store mine packs in one pass and equals the CSV mine;
    so do both stores' ``schemas`` requests."""
    one_pass = math.ceil(ROWS / DEFAULT_CHUNK_ROWS)
    store = os.path.join(tmp, "data.store")
    check_schemas(os.path.join(tmp, "data.csv"), store, materialized=0)
    payload, counters = mine_store_in_process(store)
    assert counters["kernel.packs"] == 1, counters
    assert counters["kernel.pack_declines"] == 0, counters
    assert counters["kernel.chunked_chunks"] == one_pass, counters
    assert payload["mvds"] == from_memory["mvds"]
    assert payload["min_seps"] == from_memory["min_seps"]

    # All rows distinct: the pack declines and every count streams.
    distinct_csv = os.path.join(tmp, "distinct.csv")
    distinct_store = os.path.join(tmp, "distinct.store")
    distinct_json = os.path.join(tmp, "distinct_mine.json")
    write_csv(distinct_csv, with_id=True)
    repro("ingest", distinct_csv, "--out", distinct_store)
    repro("mine", distinct_csv, "--eps", "0.01", "--no-persist",
          "--json", distinct_json)
    with open(distinct_json) as f:
        distinct_memory = json.load(f)
    payload, counters = mine_store_in_process(distinct_store)
    assert counters["kernel.packs"] == 0, counters
    assert counters["kernel.pack_declines"] == 1, counters
    assert counters["kernel.chunked_chunks"] > one_pass, counters
    assert payload["fingerprint"] == distinct_memory["fingerprint"]
    assert payload["mvds"] == distinct_memory["mvds"]
    assert payload["min_seps"] == distinct_memory["min_seps"]
    check_schemas(distinct_csv, distinct_store, materialized=1)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ingest-smoke-") as tmp:
        return smoke(tmp)


def smoke(tmp: str) -> int:
    csv_path = os.path.join(tmp, "data.csv")
    store = os.path.join(tmp, "data.store")
    write_csv(csv_path, with_id=False)

    # Ingest, with the trace so the per-chunk spans show in CI logs.
    out = repro("ingest", csv_path, "--out", store,
                "--chunk-rows", "512", "--trace").stdout
    assert "fingerprint" in out and "chunk" in out, out
    assert os.path.exists(os.path.join(store, "store.json")), "no manifest"

    # Re-ingest: refused without --force, clean replace with it.
    err = repro("ingest", csv_path, "--out", store, expect=1)
    assert "already exists" in str(err.stderr) + str(err.stdout), err.stderr
    repro("ingest", csv_path, "--out", store, "--force")
    missing = repro("ingest", os.path.join(tmp, "nope.csv"),
                    "--out", os.path.join(tmp, "x.store"), expect=1)
    assert "ingest failed" in missing.stderr, missing.stderr

    # Mine out-of-core and in-memory; artefacts must agree bit for bit.
    store_json = os.path.join(tmp, "store_mine.json")
    memory_json = os.path.join(tmp, "memory_mine.json")
    repro("mine", "--store", store, "--eps", "0.01", "--no-persist",
          "--json", store_json)
    repro("mine", csv_path, "--eps", "0.01", "--no-persist",
          "--json", memory_json)
    with open(store_json) as f:
        from_store = json.load(f)
    with open(memory_json) as f:
        from_memory = json.load(f)
    assert from_store["fingerprint"] == from_memory["fingerprint"], (
        from_store["fingerprint"], from_memory["fingerprint"])
    assert from_store["mvds"] == from_memory["mvds"]
    assert from_store["min_seps"] == from_memory["min_seps"]
    assert from_store["mvds"], "expected at least the planted product->size MVD"

    check_packing(tmp, from_memory)

    print("ingest smoke OK:", len(from_store["mvds"]), "MVDs,",
          "fingerprint", from_store["fingerprint"][:12],
          "identical across backends; store packed in one pass,",
          "all-distinct store declined; schemas identical, packed store",
          "never loaded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
