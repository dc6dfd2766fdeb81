"""Result accounting in run.py: distinct-input outcomes and the tail."""

from run import Outcomes, tail


def test_repeats_count_once():
    outcomes = Outcomes(3)
    for _ in range(4):
        outcomes.record(0, None)
        outcomes.record(1, "bool_accepted")
    assert outcomes.attempted == 2
    assert outcomes.by_cause() == {"bool_accepted": 1}


def test_a_changed_outcome_is_unstable():
    outcomes = Outcomes(3)
    outcomes.record(0, None)
    outcomes.record(0, "exit_code")
    outcomes.record(1, "parse")
    outcomes.record(1, "output")
    outcomes.record(2, "parse")
    outcomes.record(2, None)
    assert outcomes.by_cause() == {"unstable": 3}


def test_tail_falls_back_to_a_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))
    assert tail(values, 95.0) == (95.0, 950, 50)
    assert tail(values[:100], 95.0) == (90.0, 90, 10)
