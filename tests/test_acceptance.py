"""Acceptance criteria at their quick sizes, as run by `shortgf selftest --quick`.

Criteria 4 and 5 (segment encodings and their packing) are left to
`selftest`: they repeat the segment and packing checks of test_encoder.
"""

import pytest

from shortgf.acceptance import ALL_CRITERIA, QUICK_KWARGS


@pytest.mark.parametrize("number", [1, 2, 3, 6, 7, 8, 9, 10, 11])
def test_criterion_quick(number):
    report = ALL_CRITERIA[number](seed=0, **QUICK_KWARGS[number])
    assert report["criterion"] == number
    assert report["passed"], report["detail"]
