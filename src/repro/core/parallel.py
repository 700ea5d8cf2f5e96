"""Process-pool start-method selection for the collection build.

:func:`repro.collection.build.build_collection` builds its distinct
document structures on a process pool when asked for more than one
worker.  The pool prefers the
``fork`` start method; platforms without ``fork`` (Windows, macOS
spawn-default builds, sandboxes that disable it) fall back to
``spawn``, where the task arguments are pickled into each worker
instead — a slower start, but the same payload bytes.  When neither
start method is available the build runs serially.

The fallback order lives in :func:`pool_context`, and tests force a
specific path by monkeypatching :data:`START_METHODS`.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

#: Pool start methods in preference order.  ``fork`` shares the parent
#: address space; ``spawn`` pickles the initializer arguments.  Tests
#: monkeypatch this tuple to force the spawn or serial fallback.
START_METHODS = ("fork", "spawn")


def pool_context() -> Optional[multiprocessing.context.BaseContext]:
    """The first available start method's context; ``None`` means serial.

    Unknown or unsupported method names (``multiprocessing.get_context``
    raises ``ValueError``) are skipped rather than raised, so callers
    can treat ``None`` as the single "no pools here" signal.
    """
    for method in START_METHODS:
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return None
