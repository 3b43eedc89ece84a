"""Regenerate ``references.json``: seeds and scored spread of every cell of
the select workloads, at the pinned RNG seed and worker counts.

    python3 perfbench/references.py

Run it only when a change is meant to alter the selected seeds or the
scoring RNG streams, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cells import CELLS  # noqa: E402
from common import use_program  # noqa: E402


def main() -> int:
    use_program()
    from select_workload import REFERENCES, CellRunner

    out: dict[str, dict] = {}
    for workload, cells in CELLS.items():
        runner = CellRunner(workload)
        for cell in cells:
            result = runner.run(cell)
            if result["status"] != "OK":
                raise SystemExit(f"{cell.key}: {result['status']}")
            out[cell.key] = {
                "seeds": result["seeds"],
                "sigma": result["sigma"],
                "stderr": result["stderr"],
            }
            print(f"{cell.key}: sigma={result['sigma']:.2f} ({result['wall_s']:.2f}s)",
                  flush=True)
    with open(REFERENCES, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
