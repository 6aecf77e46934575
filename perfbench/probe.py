"""Set-up probe: a fresh interpreter imports frontwave.cli and builds configs.

    python3 perfbench/probe.py SRC_DIR CONFIG...

Loads each config and runs every builder the CLI runs before its first
solver call (for a sweep config, those of its first cell). Prints
``{"import_s": ..., "load_s": ...}``; the caller times the whole process.
"""

import json
import sys
import time


def main(argv: list) -> int:
    src, paths = argv[0], argv[1:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from frontwave import cli

    t1 = time.perf_counter()
    for path in paths:
        cfg = cli.RunConfig.load(path)
        cells = cli.sweep_cells(cfg) if cfg.get("sweep.h0") else [{}]
        cfg = cfg.override(cells[0])
        cli.build_nonlinearity(cfg)
        cli.build_params(cfg)
        if cfg.get("init.h0") is not None:
            cli.build_initial_data(cfg)
        cli.build_solver_numerics(cfg)
        cli.build_semiwave_numerics(cfg)
        cli.build_stop(cfg)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
