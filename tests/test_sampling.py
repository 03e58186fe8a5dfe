import pytest

from nashtoric import Cone, DigraphStore, InputError, resolution_subgraph, sample_random

from conftest import LOOP4_COLS


def test_store_settings_must_match_arguments():
    with pytest.raises(InputError, match="store"):
        sample_random(
            2, "nash", 3, 5, 3, characteristic=0, store=DigraphStore("nash", 3, 2)
        )


def test_unknown_mode_rejected_even_for_empty_sample():
    with pytest.raises(InputError, match="bogus"):
        sample_random(2, "bogus", 0, 5, 3)


BAD_BUDGETS = [
    ("max_vertices", 0),
    ("max_vertices", 5.0),
    ("max_seconds", 0),
    ("threads", 0),
    ("threads", 2.5),
]


@pytest.mark.parametrize("name, value", BAD_BUDGETS)
def test_bad_budget_rejected_before_any_draw(name, value):
    st = DigraphStore("nash", 0, 2)
    before = (set(st.vertices), st.edges)
    with pytest.raises(InputError):
        sample_random(2, "nash", 1, 5, 3, store=st, **{name: value})
    assert (set(st.vertices), st.edges) == before


@pytest.mark.parametrize("name, value", BAD_BUDGETS)
def test_bad_budget_rejected_even_for_empty_sample(name, value):
    with pytest.raises(InputError):
        sample_random(2, "nash", 0, 5, 3, **{name: value})


def test_fractional_thread_count_rejected_by_the_explorer():
    st = DigraphStore("normalized", 3, 4)
    with pytest.raises(InputError):
        resolution_subgraph(st, Cone(LOOP4_COLS), threads=2.5)
    assert st.vertex_count() == 1
