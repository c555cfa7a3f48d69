"""Set-up cost of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <workload> <seed> <size>

Times ``import doco`` and then the public environment constructors for the
workload's configurations, and prints {"import_s": ..., "build_s": ...}.
"""

import json
import sys
from time import perf_counter

src, name, seed, size_name = sys.argv[1:5]
sys.path.insert(0, src)
t0 = perf_counter()
import doco  # noqa: E402,F401

t1 = perf_counter()
from workloads import SIZES, WORKLOADS, build_env  # noqa: E402

configs = WORKLOADS[name].configs(int(seed), SIZES[size_name][name])
t2 = perf_counter()
for cfg in configs:
    build_env(cfg)
t3 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))
