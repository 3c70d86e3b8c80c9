"""Write the golden outputs that ``test_golden.py`` compares against.

The six figure tables at their defaults go to their default ``out`` names
in the output directory, each with its ``.meta.json``, which records that
relative ``out`` as a default run does.  The stdout of each README example
in ``EXAMPLES`` goes to the file named by its key.

After an intended change of output, rewrite the files and name each moved
one in CHANGES.md::

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from backflow import cli
from backflow.experiments import FIGURES, resolve_config, run_figure, write_csv, write_metadata

GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLES = {
    "kappa.txt": ["kappa", "--theta", "0.7854", "--dw", "10", "--sigma", "1", "--tau", "0.31416"],
    "chi.txt": ["chi", "--gamma0", "1", "--width", "0.1", "--t", "14.414568"],
    "transition.txt": ["transition", "--dw", "10", "--sigma", "1", "--tauc", "0.62832"],
    "fidelity.txt": ["fidelity", "--c", "1,-1,1", "--kappa", "0.5"],
    "fidelity-complex.txt": ["fidelity", "--c", "-0.5,0.4,0.8", "--kappa", "-0.5+0.1j"],
    "measure.txt": ["measure", "--measure", "blp", "--family", "dephasing", "--theta", "0.7854",
                    "--t1", "0.62832", "--grid", "4001", "--pairs", "1000", "--seed", "42"],
}


def write_outputs(directory: Path) -> None:
    """Write every golden output into ``directory``."""
    for figure in FIGURES:
        cfg = resolve_config(figure, None, {})
        write_csv(directory / cfg["out"], *run_figure(figure, cfg))
        write_metadata(directory / cfg["out"], figure, cfg)
    for name, argv in EXAMPLES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(argv) != 0:
                raise RuntimeError(f"backflow {' '.join(argv)} failed")
        (directory / name).write_text(out.getvalue(), newline="\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    write_outputs(GOLDEN)
