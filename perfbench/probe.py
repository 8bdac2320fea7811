"""Set-up probe: one fresh process imports nldyn and prepares one config.

Usage: python3 probe.py <source dir> <config file>

Prints one JSON line: ``import_s`` (import nldyn and its CLI) and
``setup_s`` (that import plus load_config, build_initial and build_pair),
both timed from before the import.
"""

import json
import sys
import time

if __name__ == "__main__":
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from nldyn import cli

    t1 = time.perf_counter()
    cfg = cli.load_config(config)
    cfg.build_pair(cfg.build_initial())
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
