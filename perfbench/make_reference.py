#!/usr/bin/env python3
"""Write perfbench/reference.json: the seed-independent outputs of the
benchmark's commands, as the program computes them at the time of writing.

    python3 perfbench/make_reference.py

The benchmark compares later runs against these values within
``checks.REL``/``checks.ABS``.  The random-pair column of fig1/fig4 depends on
the seed and is not recorded, nor is the divisibility measure on the Lorentz
window, which is grid-dependent and checked only against its contract.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import backflow.cli  # noqa: E402

import checks  # noqa: E402


def main() -> int:
    reference = {"grid": run.GRID, "rows": run.ROWS, "measure": {}}
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        cmds = run.commands("sweep", 1, Path(tmp))
        for cmd in cmds:
            rc, _, stdout, stderr = run.run_command(backflow.cli.main, cmd, None)
            if rc != 0:
                print(f"{cmd.label} failed: {stderr}", file=sys.stderr)
                return 1
            if cmd.csv is None:
                if cmd.label != "divisibility.lorentz":
                    reference["measure"][cmd.label] = checks.measure_value(stdout)
                continue
            header, rows = checks.parse_csv(cmd.csv.read_text())
            if cmd.label in ("fig1", "fig4"):
                reference[cmd.label] = {"header": header, "t": rows[:, 0].tolist(),
                                        "integral_optimal": rows[:, 1].tolist()}
            else:
                reference[cmd.label] = {"header": header, "rows": rows.tolist()}
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
