"""Actuator keys and the propagator cache shared by the thermal stack.

Cache hits must be bit-identical to the uncached computation, so a
quantized-key collision between two different activations has to
degrade to a miss, never serve the other setting's operator.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.thermal.keys import (
    ActuatorKeyer,
    PropagatorCache,
    exact_actuator_key,
    tec_key,
)


def test_tec_key_quantizes_to_1_over_256():
    assert tec_key(np.array([0.0, 1.0])) == tec_key(np.array([0.001, 1.0]))
    assert tec_key(np.array([0.0, 1.0])) != tec_key(np.array([0.5, 1.0]))


def test_actuator_keyer_fast_paths_match_generic():
    keyer = ActuatorKeyer()
    off, on = np.zeros(3), np.ones(3)
    assert keyer.key(2, off) == (2, tec_key(off))
    assert keyer.key(2, on) == (2, tec_key(on))
    assert keyer.key(3, np.array([0.5, 0, 1])) == (
        3,
        tec_key(np.array([0.5, 0, 1])),
    )


def test_exact_actuator_key_distinguishes_sub_quantum_activations():
    a, b = np.array([0.0, 0.001]), np.array([0.0, 0.0])
    assert tec_key(a) == tec_key(b)
    assert exact_actuator_key(1, a) != exact_actuator_key(1, b)


def test_propagator_cache_guard_demotes_collisions_to_misses():
    cache = PropagatorCache(max_entries=4)
    a, b = np.array([0.0, 0.001]), np.array([0.0, 0.0])
    key = (2, tec_key(a))  # == (2, tec_key(b)): quantized collision
    cache.insert(key, "value-for-a", exact=a)
    assert cache.lookup(key, exact=a) == "value-for-a"
    assert cache.lookup(key, exact=b) is None  # guard refuses
    assert cache.n_hits == 1 and cache.n_misses == 1


def test_propagator_cache_lru_eviction_and_stats():
    cache = PropagatorCache(max_entries=2)
    for i in range(3):
        cache.insert((i,), i)
    assert len(cache) == 2
    assert cache.n_evictions == 1
    assert cache.lookup((0,)) is None  # oldest evicted
    assert cache.lookup((2,)) == 2


def test_propagator_cache_pickles_empty_like_lu_cache():
    cache = PropagatorCache()
    cache.insert((1,), np.arange(3))
    cache.lookup((1,))
    clone = pickle.loads(pickle.dumps(cache))
    assert len(clone) == 0
    assert clone.n_hits == cache.n_hits  # stats survive
