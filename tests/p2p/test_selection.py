"""Tests for piece-selection strategies."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.p2p.selection import (
    SequentialSelector,
    WindowedRarestSelector,
)


def availability(**holders):
    return {name: set(indices) for name, indices in holders.items()}


class TestSequentialSelector:
    def test_orders_ascending(self):
        selector = SequentialSelector()
        result = selector.order(
            [5, 1, 3], next_needed=1, availability={}, rng=random.Random(0)
        )
        assert result == [1, 3, 5]

    def test_name(self):
        assert SequentialSelector().name == "sequential"


class TestWindowedRarestSelector:
    def test_head_is_sequential(self):
        selector = WindowedRarestSelector(urgent_window=2, lookahead=4)
        avail = availability(a=[4], b=[4], c=[4])  # 4 is common
        result = selector.order(
            [0, 1, 2, 3, 4, 5],
            next_needed=0,
            availability=avail,
            rng=random.Random(0),
        )
        assert result[:2] == [0, 1]

    def test_window_is_rarest_first(self):
        selector = WindowedRarestSelector(urgent_window=1, lookahead=3)
        # next_needed=0; window covers 1..3; make 3 rare, 1 common.
        avail = availability(a=[1, 2], b=[1], c=[])
        result = selector.order(
            [0, 1, 2, 3],
            next_needed=0,
            availability=avail,
            rng=random.Random(0),
        )
        assert result[0] == 0
        assert result[1] == 3  # zero holders -> rarest

    def test_tail_keeps_order(self):
        selector = WindowedRarestSelector(urgent_window=1, lookahead=2)
        result = selector.order(
            list(range(8)),
            next_needed=0,
            availability={},
            rng=random.Random(0),
        )
        assert result[-5:] == [3, 4, 5, 6, 7]

    def test_handles_finished_player(self):
        selector = WindowedRarestSelector()
        result = selector.order(
            [2, 7], next_needed=None, availability={},
            rng=random.Random(0),
        )
        assert set(result) == {2, 7}

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            WindowedRarestSelector(urgent_window=0)
        with pytest.raises(ConfigurationError):
            WindowedRarestSelector(lookahead=-1)

    def test_name_encodes_windows(self):
        assert (
            WindowedRarestSelector(2, 8).name == "windowed-rarest-2+8"
        )


class TestSelectorsPreserveContents:
    @pytest.mark.parametrize(
        "selector",
        [
            SequentialSelector(),
            WindowedRarestSelector(urgent_window=1, lookahead=2),
            WindowedRarestSelector(),
        ],
    )
    def test_permutation_only(self, selector):
        missing = [9, 4, 0, 7, 2]
        result = selector.order(
            missing,
            next_needed=0,
            availability=availability(a=[0, 2], b=[4]),
            rng=random.Random(1),
        )
        assert sorted(result) == sorted(missing)
