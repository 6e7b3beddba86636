"""CountSeries refuses counts that float64 cannot hold exactly."""

import warnings

import numpy as np
import pytest

from spingarch.data import COUNT_LIMIT, CountSeries, as_counts
from spingarch.exceptions import DataError


@pytest.mark.parametrize("counts", [
    [1, 1e20, 3],  # cast to int64, 1e20 became -9223372036854775808
    np.array([1.0, 2.0**53]),
    np.array([1, 2**53 + 1], dtype=np.int64),  # reads as the float 2**53
    np.array([1, 2**63], dtype=np.uint64),
    np.array([2**64 - 1], dtype=np.uint64),
    [2**70],
], ids=["list", "float", "int64", "uint64", "uint64-max", "python-int"])
def test_counts_from_2_53_are_refused(counts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning on the way to the refusal
        with pytest.raises(DataError, match=r"below 2\*\*53"):
            CountSeries(counts)
        with pytest.raises(DataError, match=r"below 2\*\*53"):
            as_counts(counts)


@pytest.mark.parametrize("counts", [
    [0, 2**53 - 1],
    np.array([0.0, 2.0**53 - 1]),
    np.array([3, 2**53 - 1], dtype=np.uint64),
], ids=["list", "float", "uint64"])
def test_counts_below_2_53_are_kept_exactly(counts):
    assert CountSeries(counts).values.tolist() == [int(v) for v in counts]
    assert COUNT_LIMIT == 2**53


def test_negative_and_fractional_counts_keep_their_message():
    for counts in ([1, -1], [1, 2.5], [-1e20]):
        with pytest.raises(DataError, match="non-negative integers"):
            CountSeries(counts)
