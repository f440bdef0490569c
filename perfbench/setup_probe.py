"""Time one fresh-interpreter set-up of reglab and print it as JSON.

Usage: ``python3 perfbench/setup_probe.py <checkout>/src``.  The time covers
``import reglab.cli``, which imports every layer, plus the warm-up calls that
fill the process-global lazy state (see ``workloads.warm_up``).  After it,
the probe times the reference computation (``workloads.reference_seconds``)
five times and reports the times as ``ref_s``, so that the caller can scale
the set-up time to the host's reference speed.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reglab.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.warm_up()
t2 = time.perf_counter()
ref = [workloads.reference_seconds() for _ in range(5)]
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1, "setup_s": t2 - t0, "ref_s": ref}))
