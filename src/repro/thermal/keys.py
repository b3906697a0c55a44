"""Shared actuator keying and propagator caching for the thermal stack.

Every cache in the thermal layer — the steady-state LU cache, the
Eq. (5) relaxation-factor (beta) cache, the dense matrix-exponential
propagator cache — keys on the same physical fact: ``G(fan, tec)``
depends only on the fan level and the TEC activation vector. The key
(:func:`exact_actuator_key`) is that pair itself: the fan level and the
activation's float64 bytes. It is exact — there is no quantization —
so the key is both the identity and the hash of a setting: a hit is one
dict lookup and always serves the operator built for that very vector,
which keeps cached results bit-identical to the uncached computation.
Equal vectors of any numeric dtype share one key.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs import telemetry as obs


def exact_actuator_key(fan_level: int, tec_activation: np.ndarray) -> tuple:
    """The cache and grouping key of one actuator setting.

    ``(fan_level, float64 bytes of the activation)``: two settings share
    a key exactly when their fan levels and activation values are equal.
    """
    return (fan_level, np.asarray(tec_activation, dtype=np.float64).tobytes())


class ActuatorKeyer:
    """The thermal solvers' key function, :func:`exact_actuator_key`.

    Stateless; it stays a class because solvers hold one as a field and
    pickle it into checkpoints.
    """

    def key(self, fan_level: int, tec_activation: np.ndarray) -> tuple:
        return exact_actuator_key(fan_level, tec_activation)


@dataclass
class PropagatorCache:
    """LRU cache for actuator-keyed thermal operators.

    Keys are exact (:func:`exact_actuator_key`, optionally prefixed by
    the time step), so a hit needs no further check. Hit/miss/eviction
    totals are kept both as instance stats and as obs counters under
    ``<counter_prefix>_hits`` / ``_misses`` / ``_evictions`` (shared by
    every propagator cache in a process, mirroring
    ``thermal.factorizations``).
    """

    max_entries: int = 128
    counter_prefix: str = "thermal.propagator"
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    n_hits: int = 0
    n_misses: int = 0
    n_evictions: int = 0

    # Like the LU cache, entries are pure memoization: pickling for a
    # worker process ships an empty cache and the worker re-derives on
    # demand (keeps spawn payloads small and SuperLU-style semantics
    # uniform across the thermal caches).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_entries"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple):
        """Cached value for ``key``, or None on a miss."""
        value = self._entries.get(key)
        if value is None:
            self.n_misses += 1
            obs.incr(f"{self.counter_prefix}_misses")
            return None
        self._entries.move_to_end(key)
        self.n_hits += 1
        obs.incr(f"{self.counter_prefix}_hits")
        return value

    def insert(self, key: tuple, value):
        """Store ``value`` under ``key`` as the most recent entry."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.n_evictions += 1
            obs.incr(f"{self.counter_prefix}_evictions")
        return value

    def clear(self) -> None:
        """Drop every cached operator (stats are kept)."""
        self._entries.clear()
