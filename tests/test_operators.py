"""Tests for the partitioning policy functions (§4.2).

Selection is :meth:`IntervalSet.assign`'s, tested in test_interval_set.
"""

import math

import pytest

from repro.core import Interval
from repro.core.operators import partition_point, requester_share_length


class TestPartitionPoint:
    def test_equal_powers_split_in_half(self):
        assert partition_point(Interval(0, 100), 1.0, 1.0) == 50

    def test_null_holder_gives_begin(self):
        # "a virtual process which has a null power ... C equals A"
        assert partition_point(Interval(40, 100), 0.0, 1.0) == 40

    def test_both_null_gives_begin(self):
        assert partition_point(Interval(40, 100), 0.0, 0.0) == 40

    def test_powerful_holder_keeps_most(self):
        c = partition_point(Interval(0, 100), 9.0, 1.0)
        assert c == 90

    def test_integer_powers_use_exact_arithmetic(self):
        # With int powers the division is exact big-int floor division.
        huge = 10**30
        c = partition_point(Interval(0, huge), 1, 3)
        assert c == huge // 4

    def test_float_powers_split_exactly_past_float_precision(self):
        # 50! has 65 significant bits: a float product would round.
        big = math.factorial(50)
        assert partition_point(Interval(0, big), 1.0, 1.0) == big // 2
        assert partition_point(Interval(0, big), 0.5, 1.5) == big // 4

    def test_a_zero_power_requester_leaves_the_holder_everything(self):
        # The float path computed C past B on a 2**60 interval.
        iv = Interval(0, 2**60 - 1)
        assert partition_point(iv, 1.0, 0.0) == iv.end
        assert requester_share_length(iv, 1.0, 0.0) == 0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            partition_point(Interval(0, 10), -1.0, 1.0)

    def test_point_stays_inside_interval(self):
        iv = Interval(10, 20)
        for hp in (0.0, 0.5, 1.0, 10.0):
            for rp in (0.1, 1.0, 5.0):
                assert 10 <= partition_point(iv, hp, rp) <= 20


class TestRequesterShare:
    def test_share_length(self):
        assert requester_share_length(Interval(0, 100), 1.0, 1.0) == 50
        assert requester_share_length(Interval(0, 100), 0.0, 1.0) == 100

    def test_share_plus_keep_equals_length(self):
        iv = Interval(7, 107)
        c = partition_point(iv, 2.0, 3.0)
        assert (c - iv.begin) + requester_share_length(iv, 2.0, 3.0) == iv.length
