#!/usr/bin/env python3
"""Regenerate the reference outputs the benchmark's checks compare against.

    python3 bench/make_refs.py            # all references (about 4 minutes)
    python3 bench/make_refs.py dns_det    # one workload

Run it only on a commit whose outputs are known to be right: the checks of
every later run are measured against what this writes to bench/refs/.
``plate_tsm_file`` needs one reference (the seeded stiffness std only
scales the stored standard deviations); ``dns_det`` needs one per xi of its
grid.
"""

import os
import sys

import run  # sets the thread pools and finds the checkout

run.import_program()
os.chdir(run.ROOT)

import checks  # noqa: E402
import workloads  # noqa: E402


def make(name: str):
    W = workloads.WORKLOADS[name]
    if name == "plate_tsm_file":
        inputs = [{"xi_std": 0.1}]
    elif name == "dns_det":
        inputs = [{"xi": xi} for xi in W.XI_GRID]
    else:
        return
    for inp in inputs:
        wl = W(inp, os.path.join(run.WORK, f"{name}-refs"))
        try:
            cfg, quad = wl.setup()
            unit = wl.run(cfg, quad)
            if unit.error is not None:
                raise SystemExit(f"{name} {inp}: run failed")
            checks.save_reference(wl.reference_name(), wl.fields(unit))
        finally:
            wl.cleanup()
        print(f"wrote {checks.ref_path(wl.reference_name())}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        make(name)
