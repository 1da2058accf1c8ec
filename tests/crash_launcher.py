"""Hard-exit a figqa process at a chosen mock model call, from outside the package.

crash_after(n) wraps MockBackend.serve so that the process exits with
CRASH_EXIT_CODE at the start of call n+1, before that call is served or
ledgered. The wrapper holds its own lock across the wrapped call, so at any
concurrency exactly n calls are served and ledgered when the process exits.

Run as a script, it arms the crash and then runs the figqa CLI:

    python tests/crash_launcher.py N <figqa arguments>
"""

from __future__ import annotations

import os
import sys
import threading

from figqa import gateway
from figqa.cli import main

CRASH_EXIT_CODE = 70


def crash_after(n: int) -> None:
    """Make this process exit CRASH_EXIT_CODE at the start of mock call n+1."""
    serve = gateway.MockBackend.serve
    lock = threading.Lock()
    served = 0

    def crashing_serve(self, request):
        nonlocal served
        with lock:
            if served >= n:
                os._exit(CRASH_EXIT_CODE)
            result = serve(self, request)
            served += 1
            return result

    gateway.MockBackend.serve = crashing_serve


if __name__ == "__main__":
    crash_after(int(sys.argv[1]))
    main(sys.argv[2:], prog_name="figqa")
