import pytest

from nashtoric import DigraphStore, InputError, sample_random


def test_store_settings_must_match_arguments():
    with pytest.raises(InputError, match="store"):
        sample_random(
            2, "nash", 3, 5, 3, characteristic=0, store=DigraphStore("nash", 3, 2)
        )


def test_unknown_mode_rejected_even_for_empty_sample():
    with pytest.raises(InputError, match="bogus"):
        sample_random(2, "bogus", 0, 5, 3)
