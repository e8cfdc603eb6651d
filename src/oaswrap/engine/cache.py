"""A bounded map that keeps a value from its key's second sighting: the
service's parsed query documents and the executor's completion kernels."""

from __future__ import annotations

import threading
from collections import OrderedDict
from math import inf
from typing import Any, Hashable

_ABSENT = object()


class SecondSightingCache:
    """At most ``entries`` values of at most ``max_weight`` in all, the least
    recently used evicted first, and the hashes of at most ``entries`` keys
    seen once, in an LRU of their own, so that a key seen once never evicts a
    value. ``get`` and ``refresh`` take no lock; ``refresh`` raises KeyError
    for a key evicted since its ``get``. Writes take the one lock."""

    def __init__(self, entries: int, max_weight: float = inf):
        self.entries, self.max_weight = entries, max_weight
        self.weight = 0  # of the values kept
        self._values: OrderedDict[Hashable, Any] = OrderedDict()
        self._weights: dict[Hashable, int] = {}
        self._once: OrderedDict[int, Any] = OrderedDict()  # key hash -> its sighting's owner
        self._lock = threading.Lock()
        self.get, self.refresh = self._values.get, self._values.move_to_end

    def sighted(self, key: Hashable, owner: Any = None) -> bool:
        """Note a sighting of key; True when it is the second, so the caller
        keeps key's value. The sightings of one owner count as one; each
        sighting without an owner counts on its own."""
        seen = hash(key)
        if owner is not None and self._once.get(seen) == owner:
            return False
        with self._lock:
            first = self._once.pop(seen, _ABSENT)
            if first is not _ABSENT and (owner is None or first != owner):
                return True
            self._once[seen] = owner
            if len(self._once) > self.entries:
                self._once.popitem(last=False)
            return False

    def keep(self, key: Hashable, value: Any, weight: int = 0) -> None:
        """Keep value for key unless key has one or value outweighs the
        bound, evicting the least recently used past either bound."""
        if weight > self.max_weight:
            return
        with self._lock:
            self._once.pop(hash(key), None)
            if key not in self._values:
                self._values[key] = value
                self._weights[key] = weight
                self.weight += weight
            while len(self._values) > self.entries or self.weight > self.max_weight:
                self.weight -= self._weights.pop(self._values.popitem(last=False)[0])
