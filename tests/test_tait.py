import json
from random import Random

import pytest

from thomplink import from_word, identity, make_generator, random_element, tait_graph
from thomplink.tait import TaitGraph
from util import unreduced_pair


def test_identity_graph():
    t = tait_graph(identity())
    assert t.vertex_count == 1
    assert t.upper == t.lower == ()


def test_x0_edges():
    t = tait_graph(make_generator(0))
    assert sorted(t.upper) == [(0, 1), (0, 2)]
    assert sorted(t.lower) == [(0, 1), (1, 2)]


def test_edge_counts_are_leaves_minus_one():
    rng = Random(20)
    for _ in range(50):
        p = random_element(rng)
        t = tait_graph(p)
        assert len(t.upper) == p.leaf_count - 1
        assert len(t.lower) == p.leaf_count - 1
        assert t.vertex_count == p.leaf_count


def test_nesting_invariant_fuzz():
    rng = Random(21)
    for _ in range(200):
        p = random_element(rng, 12)
        t = tait_graph(p)  # the constructor raises on properly overlapping arcs
        TaitGraph(t.vertex_count, t.lower, t.upper)  # as does the swapped graph


def test_validation_rejects_overlap():
    with pytest.raises(ValueError):
        TaitGraph(4, [(0, 2), (1, 3)], [])
    with pytest.raises(ValueError):
        TaitGraph(4, [], [(0, 3), (1, 2), (2, 4)])  # past the last vertex
    with pytest.raises(ValueError):
        TaitGraph(2, [], [(1, 0)])
    with pytest.raises(ValueError):
        TaitGraph(0, [], [])


def test_unchecked_graph_equals_validated():
    # tait_graph skips the nesting check; the checked constructor accepts
    # every graph it builds, and still refuses an arc that overlaps one
    rng = Random(22)
    refused = 0
    for _ in range(2000):
        p = unreduced_pair(rng, rng.randint(2, 12))
        n, t = p.leaf_count, tait_graph(p)
        checked = TaitGraph(n, t.upper, t.lower)
        assert (t.vertex_count, t.upper, t.lower) == (checked.vertex_count, checked.upper, checked.lower)
        for a, b in t.lower:
            if b - a > 1 and b < n - 1:  # (a + 1, b + 1) starts inside and ends past
                with pytest.raises(ValueError, match="overlapping"):
                    TaitGraph(n, t.upper, [*t.lower, (a + 1, b + 1)])
                refused += 1
                break
    assert refused > 1000


def test_json_export():
    t = tait_graph(make_generator(0))
    data = json.loads(t.to_json())
    assert data["n"] == 3
    assert sorted(data["edges"]) == [
        [0, 1, "L", "-"],
        [0, 1, "U", "+"],
        [0, 2, "U", "+"],
        [1, 2, "L", "-"],
    ]


def test_json_output_is_pinned():
    # source arcs in preorder, then target arcs
    t = tait_graph(from_word("x0 x1 x0^-2 x2 x1^-1 x3^2"))
    assert t.to_json() == (
        '{"n": 10, "edges": [[0, 3, "U", "+"], [0, 1, "U", "+"], [1, 2, "U", "+"], '
        '[3, 4, "U", "+"], [4, 6, "U", "+"], [4, 5, "U", "+"], [6, 9, "U", "+"], '
        '[6, 8, "U", "+"], [6, 7, "U", "+"], [0, 3, "L", "-"], [0, 2, "L", "-"], '
        '[0, 1, "L", "-"], [3, 5, "L", "-"], [3, 4, "L", "-"], [5, 6, "L", "-"], '
        '[6, 7, "L", "-"], [7, 8, "L", "-"], [8, 9, "L", "-"]]}'
    )
