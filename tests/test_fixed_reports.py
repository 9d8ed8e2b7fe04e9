"""Fixed-seed reports stay byte-identical.

The checked-in files under `fixed_reports/` were written by
`fixed_reports/regenerate.py`; a change that moves one on purpose reruns that
script in the same commit.  No report carries a wall-clock time, so any byte
that differs is a moved verdict, digit or field.
"""

import pytest

from fixed_reports.regenerate import HERE, RUNS, write


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_is_byte_identical(name, tmp_path):
    assert write(name, tmp_path) == 0
    assert (tmp_path / name).read_bytes() == (HERE / name).read_bytes()
