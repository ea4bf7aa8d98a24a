import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tempoclass.words import (INF, directed_distance, distance, exact_capacity,
                              exact_entropy, exact_max_separated, exact_min_net,
                              format_rational, greedy_separated, parse_word,
                              timed_word)


U = timed_word([("a", F(7, 10)), ("b", F(9, 5)), ("a", 3), ("b", 4), ("a", F(41, 10))])
V = timed_word([("a", F(3, 5)), ("a", 1), ("b", F(17, 10)), ("a", 3),
                ("a", F(41, 10)), ("b", F(21, 5))])


def test_directed_distances():
    assert directed_distance(U, V) == F(1, 5)
    assert directed_distance(V, U) == F(3, 10)
    assert distance(U, V) == F(3, 10)


def test_zero_distance_for_reordered_simultaneous_letters():
    w = timed_word([("a", 1), ("b", 1)])
    v = timed_word([("b", 1), ("b", 1), ("a", 1)])
    assert distance(w, v) == 0


def test_unmatched_letter_is_infinite():
    assert distance(timed_word([("a", 1)]), timed_word([("b", 1)])) is INF
    # max over the empty word is 0, so the distance is driven by the other side
    assert directed_distance(timed_word([]), U) == 0
    assert distance(timed_word([]), U) is INF


def test_word_validation():
    with pytest.raises(ValueError):
        timed_word([("a", 2), ("b", 1)])
    with pytest.raises(ValueError):
        timed_word([("a", -1)])


def test_duration_and_counts():
    assert U.duration == F(41, 10)
    assert len(U) == 5
    assert timed_word([]).duration == 0


def _random_word(rng, letters="ab", max_events=6):
    n = rng.randrange(0, max_events + 1)
    dates = sorted(F(rng.randrange(0, 33), 8) for _ in range(n))
    return timed_word([(rng.choice(letters), t) for t in dates])


def test_pseudo_metric_laws():
    rng = random.Random(13)
    for _ in range(10_000):
        w, u, v = (_random_word(rng) for _ in range(3))
        assert distance(w, w) == 0
        assert distance(w, v) == distance(v, w)
        duv = distance(w, v)
        through = distance(w, u), distance(u, v)
        if INF in through:
            continue
        assert duv <= through[0] + through[1]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pseudo_metric_laws_hypothesis(data):
    letters = st.sampled_from("ab")
    dates = st.lists(st.fractions(min_value=0, max_value=4, max_denominator=8),
                     max_size=6)

    def word(tag):
        ds = sorted(data.draw(dates, label=f"dates-{tag}"))
        return timed_word([(data.draw(letters, label=f"letter-{tag}-{i}"), t)
                           for i, t in enumerate(ds)])

    w, u, v = word("w"), word("u"), word("v")
    assert distance(w, w) == 0
    assert distance(w, v) == distance(v, w)
    a, b = distance(w, u), distance(u, v)
    if a is not INF and b is not INF:
        assert distance(w, v) <= a + b


THREE = [timed_word([("a", 0)]), timed_word([("a", F(1, 5))]),
         timed_word([("a", F(1, 2))])]


def test_greedy_separated_example():
    got = greedy_separated(THREE, F(3, 10))
    assert got == [THREE[0], THREE[2]]


def test_greedy_singleton_and_collapsed():
    assert greedy_separated([U], F(1, 4)) == [U]
    w = timed_word([("a", 1), ("b", 1)])
    v = timed_word([("b", 1), ("a", 1), ("a", 1)])
    assert len(greedy_separated([w, v], F(1, 8))) == 1


def test_greedy_net_example():
    got = greedy_separated(THREE, F(3, 10))
    assert len(got) == 2
    for w in THREE:
        assert any(distance(w, m) <= F(3, 10) for m in got)


def test_greedy_net_extremes():
    # eps at least the diameter: a single element suffices
    assert len(greedy_separated(THREE, F(1))) == 1
    # eps below the least positive distance: everything distinct stays
    assert len(greedy_separated(THREE, F(1, 10))) == 3


def test_exact_example():
    assert exact_capacity(THREE, F(3, 10)) == 1.0
    assert exact_entropy(THREE, F(3, 10)) == 0.0  # the middle word covers all


def test_exact_four_far_words():
    words = [timed_word([("a", k)]) for k in range(4)]
    assert exact_capacity(words, F(1, 2)) == 2.0


def test_exact_limits():
    with pytest.raises(ValueError):
        exact_capacity([], F(1, 2))
    with pytest.raises(ValueError):
        exact_capacity([timed_word([("a", F(k, 8))]) for k in range(25)], F(1, 64))


def test_capacity_entropy_bracketing():
    rng = random.Random(99)
    for _ in range(60):
        words = list({_random_word(rng, max_events=4) for _ in range(rng.randrange(1, 9))})
        for eps in (F(1, 8), F(1, 4), F(1, 2)):
            cap2 = exact_capacity(words, 2 * eps)
            ent = exact_entropy(words, eps)
            cap = exact_capacity(words, eps)
            assert cap2 <= ent <= cap
            sep = greedy_separated(words, eps)
            assert math.log2(len(sep)) <= cap
            assert ent <= math.log2(len(sep))


def test_greedy_maximality_and_cover():
    rng = random.Random(5)
    for _ in range(40):
        words = list({_random_word(rng, max_events=4) for _ in range(8)})
        eps = F(1, 4)
        sep = greedy_separated(words, eps)
        for a in sep:
            for b in sep:
                if a != b:
                    assert distance(a, b) > eps
        for w in words:  # maximality: everything else is blocked
            if w not in sep:
                assert any(distance(w, m) <= eps for m in sep)
        for w in words:  # so it is an eps-net
            assert any(distance(w, m) <= eps for m in sep)


def test_exact_sets_are_valid():
    rng = random.Random(3)
    words = list({_random_word(rng, max_events=3) for _ in range(7)})
    eps = F(1, 4)
    sep = exact_max_separated(words, eps)
    for a in sep:
        for b in sep:
            if a != b:
                assert distance(a, b) > eps
    net = exact_min_net(words, eps)
    for w in words:
        assert any(distance(w, m) <= eps for m in net)


def test_parse_word_formats():
    w = parse_word("a 0.8\nb 3/2\n# comment\na 1.7\n")
    assert w.events == (("a", F(4, 5)), ("b", F(3, 2)), ("a", F(17, 10)))


def test_format_rational():
    assert format_rational(F(3, 10)) == "0.3"
    assert format_rational(F(1, 3)) == "1/3"
    assert format_rational(F(8)) == "8"
    assert format_rational(F(1, 8)) == "0.125"
    assert format_rational(INF) == "inf"
