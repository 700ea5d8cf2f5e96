"""Build output does not depend on Python's string-hash seed.

Term sets are frozensets, so anything that iterates them follows
``PYTHONHASHSEED``.  A build must not: the same document and budgets
have to give the same snapshot bytes in every interpreter.  The builds
run in child processes, because the hash seed is fixed at interpreter
start.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

#: Builds an XMark document (TEXT descriptions, so phase 2 compresses
#: end-biased term histograms) and prints the snapshot bytes as hex.
BUILD_SCRIPT = """
import sys
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.reference import build_reference_synopsis
from repro.core.snapshot import snapshot_to_bytes
from repro.datasets import generate_xmark
from repro.xmltree import ingest_string
from repro.xmltree.serializer import serialize

dataset = generate_xmark(scale=0.2, seed=7)
doc = ingest_string(serialize(dataset.tree))
synopsis = build_reference_synopsis(doc, dataset.value_paths)
XClusterBuilder(
    BuildConfig(structural_budget=1024, value_budget=4096)
).compress(synopsis)
sys.stdout.write(snapshot_to_bytes(synopsis).hex())
"""


def _snapshot_under(hash_seed: str) -> bytes:
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
    done = subprocess.run(
        [sys.executable, "-c", BUILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return bytes.fromhex(done.stdout)


def test_snapshot_bytes_identical_across_hash_seeds():
    first = _snapshot_under("0")
    second = _snapshot_under("1")
    assert first, "the child build printed no snapshot"
    assert first == second
