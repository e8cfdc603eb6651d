"""The second-sighting cache that keeps query documents and completion
kernels: admission, its two bounds and least-recently-used eviction."""

from oaswrap.engine.cache import SecondSightingCache


def admitted(cache, key, owner=None, weight=0):
    """Sight key; keep a value for it when the sighting admits it."""
    if cache.sighted(key, owner):
        cache.keep(key, f"value of {key}", weight)
    return cache.get(key)


def test_a_key_is_kept_from_its_second_sighting():
    cache = SecondSightingCache(4)
    assert admitted(cache, "a") is None
    assert admitted(cache, "a") == "value of a"
    assert not cache.sighted("a") and cache.get("a") == "value of a"


def test_repeated_sightings_by_one_owner_count_as_one():
    cache = SecondSightingCache(4)
    assert all(admitted(cache, "a", owner=1) is None for _ in range(5))
    assert admitted(cache, "a", owner=2) == "value of a"


def test_the_entry_bound_evicts_the_least_recently_used_value():
    cache = SecondSightingCache(3)
    for key in "abc":
        admitted(cache, key)
        admitted(cache, key)
    cache.refresh("a")
    for _ in range(2):
        admitted(cache, "d")
    assert len(cache._values) == 3
    assert [cache.get(key) is not None for key in "abcd"] == [True, False, True, True]


def test_the_weight_bound_evicts_the_least_recently_used_values():
    cache = SecondSightingCache(8, max_weight=10)
    for key, weight in (("a", 4), ("b", 4), ("c", 1)):
        admitted(cache, key, weight=weight)
        admitted(cache, key, weight=weight)
    assert cache.weight == 9
    for _ in range(2):
        admitted(cache, "d", weight=6)  # a and b must go for it
    assert [cache.get(key) is not None for key in "abcd"] == [False, False, True, True]
    assert cache.weight == 7


def test_a_value_heavier_than_the_weight_bound_is_never_kept():
    cache = SecondSightingCache(8, max_weight=10)
    for _ in range(2):
        admitted(cache, "a", weight=3)
    for _ in range(3):
        assert admitted(cache, "big", weight=11) is None
    assert len(cache._values) == 1 and cache.weight == 3


def test_keys_seen_once_never_evict_a_kept_value():
    cache = SecondSightingCache(2)
    for _ in range(2):
        admitted(cache, "hot")
    for n in range(100):
        assert admitted(cache, f"once{n}") is None
    assert len(cache._values) == 1 and cache.get("hot") == "value of hot"
    # It remembers only the latest 2 keys seen once.
    assert len(cache._once) == 2
    assert admitted(cache, "once0") is None
    assert admitted(cache, "once99") == "value of once99"
