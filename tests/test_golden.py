"""The pinned golden front: a fixed run must export byte-identical front.csv.

A change that moves the front on purpose regenerates the file with
`PYTHONPATH=src python tests/data/make_golden.py` and says why.
"""

import importlib.util
import os

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "make_golden.py")
_spec = importlib.util.spec_from_file_location("make_golden", _SCRIPT)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_golden_front_is_byte_identical():
    with open(make_golden.GOLDEN_PATH, "rb") as fh:
        expected = fh.read()
    assert make_golden.golden_front_bytes() == expected
