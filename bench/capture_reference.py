"""Rewrite reference.json from the solver in this checkout.

    python3 bench/capture_reference.py

Run it only at a commit whose results are to become the reference: every
later benchmark run is checked against what it writes.
"""

from __future__ import annotations

import json

from provenance import (git_commit, import_slabsm, pin_blas_threads,
                        source_sha256)


def capture(slabsm) -> dict:
    """Run every distinct cell of every workload once; record its results."""
    from reference import cell_record
    from workloads import WORKLOADS

    cells = {}
    for wl in WORKLOADS.values():
        for cell in wl.cells:
            if cell.key in cells:
                continue
            report = slabsm.run_problem(slabsm.builtin_problem(cell.problem),
                                        cell.config(slabsm))
            cells[cell.key] = cell_record(report,
                                          with_history=cell.method == "si")
    return {"captured_at": {"git_commit": git_commit(),
                            "source_sha256": source_sha256()},
            "cells": cells}


def main() -> None:
    pin_blas_threads()
    slabsm = import_slabsm()
    from reference import REFERENCE_PATH

    doc = capture(slabsm)
    # one line per cell keeps the file readable and its diffs small
    cells = ",\n".join(f"  {json.dumps(key)}: {json.dumps(rec)}"
                       for key, rec in doc["cells"].items())
    with open(REFERENCE_PATH, "w") as fh:
        fh.write(f'{{"captured_at": {json.dumps(doc["captured_at"])},\n'
                 f' "cells": {{\n{cells}\n }}}}\n')
    print(f"wrote {len(doc['cells'])} cells to {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
