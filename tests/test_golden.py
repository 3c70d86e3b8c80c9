"""Default outputs against the golden files under ``tests/golden/``.

Each file is written afresh by ``make_golden.write_outputs`` in a temporary
directory.  A ``.meta.json`` compares as bytes.  Every other file compares
as text between numbers, and integers, as bytes too; floats compare within
a few ulps, since numpy's SIMD exp and cos may differ in the last bit
between CPUs.
"""

import math
import re

import pytest

from make_golden import EXAMPLES, GOLDEN, write_outputs
from backflow.experiments import FIGURES

FILES = sorted([*EXAMPLES, *(f"{f}.csv" for f in FIGURES), *(f"{f}.csv.meta.json" for f in FIGURES)])
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
ULPS = 4


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_outputs(directory)
    return directory


def same_within_ulps(got: str, want: str) -> bool:
    """Whether two texts match: text and integers exactly, floats within ULPS."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0 or re.fullmatch(r"[-+]?\d+", w):
            if g != w:
                return False
        elif abs(float(g) - float(w)) > ULPS * math.ulp(max(abs(float(g)), abs(float(w)))):
            return False
    return True


def test_golden_files_are_all_listed():
    assert sorted(p.name for p in GOLDEN.iterdir()) == FILES


@pytest.mark.parametrize("name", FILES)
def test_output_matches_golden(written, name):
    got, want = (written / name).read_bytes(), (GOLDEN / name).read_bytes()
    if name.endswith(".meta.json"):
        assert got == want
    else:
        assert same_within_ulps(got.decode(), want.decode())


def test_comparison_tolerates_a_few_ulps_only():
    x = 0.82710490974093454
    near, far = x + 3 * math.ulp(x), x + 8 * math.ulp(x)
    assert same_within_ulps(f"a,{near!r}\n", f"a,{x!r}\n")
    assert not same_within_ulps(f"a,{far!r}\n", f"a,{x!r}\n")
    assert not same_within_ulps("tau_c,N\n1\n", "tau_c,N\n2\n")
    assert not same_within_ulps("a,1.5\n", "a,1.5\nb,2.5\n")
    assert not same_within_ulps("a,1.5\n", "b,1.5\n")
