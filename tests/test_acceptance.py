"""Acceptance criteria at their quick sizes, as run by `shortgf selftest --quick`.

Criterion 5 (packing of segment encodings) is left to `selftest`: it takes
about ten seconds, most of it building and compressing the region GFs, and
it repeats the packing checks of test_encoder.
"""

import pytest

from shortgf.acceptance import ALL_CRITERIA, QUICK_KWARGS


@pytest.mark.parametrize("number", [1, 2, 3, 4, 6, 7, 8, 9, 10, 11])
def test_criterion_quick(number):
    report = ALL_CRITERIA[number](seed=0, **QUICK_KWARGS[number])
    assert report["criterion"] == number
    assert report["passed"], report["detail"]
