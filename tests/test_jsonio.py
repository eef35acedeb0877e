import json
import random

import pytest

from dskit import jsonio

# escapes, a DEL, non-ASCII in and beyond the BMP, and control characters
ALPHABET = 'ab Z0"\\/\b\f\n\r\t\x00\x1f\x7fé€ 😀'


def _text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def _leaf(rng):
    return rng.choice([
        lambda: _text(rng),
        lambda: rng.choice([True, False, 1, 0, -1, None]),
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.choice([-1, 1]) * rng.randint(0, 10**60),
    ])()


def _tree(rng, depth):
    kind = rng.random() if depth < 5 else 1.0
    if kind < 0.3:
        return {_text(rng): _tree(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    if kind < 0.45:  # flat int lists take the writer's one join
        return [rng.randint(-10**30, 10**30) for _ in range(rng.randint(0, 5))]
    if kind < 0.65:
        return [_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return _leaf(rng)


def _nodes(tree):
    yield tree
    for child in tree.values() if type(tree) is dict else tree if type(tree) is list else ():
        yield from _nodes(child)


def test_dumps_matches_json_dumps_on_random_trees():
    rng = random.Random(2301)
    kinds = dict.fromkeys(["empty_list", "empty_dict", "bool_next_to_int", "non_ascii_key",
                           "control_value", "big_negative"], 0)
    for _ in range(2000):
        tree = _tree(rng, 0)
        assert jsonio.dumps(tree) == json.dumps(tree, sort_keys=True, indent=2), tree
        nodes = list(_nodes(tree))
        lists = [t for t in nodes if type(t) is list]
        dicts = [t for t in nodes if type(t) is dict]
        kinds["empty_list"] += [] in lists
        kinds["empty_dict"] += {} in dicts
        kinds["bool_next_to_int"] += any(
            any(type(x) is bool for x in t) and any(type(x) is int for x in t) for t in lists)
        kinds["non_ascii_key"] += any(k > "\x7f" for t in dicts for k in t)
        kinds["control_value"] += any(type(t) is str and min(t, default="a") < " " for t in nodes)
        kinds["big_negative"] += any(type(t) is int and t < -10**20 for t in nodes)
    assert min(kinds.values()) >= 50, kinds


def test_dumps_keeps_bools_apart_from_ints():
    for obj in ([True, 1, False, 0], {"t": True, "one": 1}, [1, True], [0, False]):
        assert jsonio.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [
    1.5, (1, 2), [1, 2.0], {"x": (0,)}, {"x": [[1], (2,)]}, {1: 2}, {"a": 1, None: 2}, b"x",
])
def test_dumps_refuses_other_types(obj):
    with pytest.raises(TypeError):
        jsonio.dumps(obj)
