"""Actuator keys and the propagator cache shared by the thermal stack.

Every thermal cache keys on the exact actuator setting, so a hit serves
the operator built for that very activation vector: two activations
that differ by less than any quantum still get entries of their own,
each bit-identical to the uncached computation.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.thermal.keys import ActuatorKeyer, PropagatorCache, exact_actuator_key
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import PaperTransient


def test_actuator_keyer_key_is_exact():
    keyer = ActuatorKeyer()
    for tec in (np.zeros(3), np.ones(3), np.array([0.5, 0, 1])):
        assert keyer.key(2, tec) == exact_actuator_key(2, tec)
    assert keyer.key(2, np.zeros(3)) != keyer.key(3, np.zeros(3))


def test_exact_actuator_key_distinguishes_sub_quantum_activations():
    a, b = np.array([0.0, 0.001]), np.array([0.0, 0.0])
    assert exact_actuator_key(1, a) != exact_actuator_key(1, b)


def test_exact_actuator_key_is_dtype_blind():
    assert exact_actuator_key(1, np.array([0, 1])) == exact_actuator_key(
        1, np.array([0.0, 1.0])
    )


def test_sub_quantum_activations_get_separate_lu_and_beta_entries(system2):
    """0.0 and 0.001 once shared a 1/256 key; now each has its own entry."""
    model = system2.cond
    n = system2.n_tec_devices
    p = np.full(system2.nodes.n_components, 0.5)
    lo = np.zeros(n)
    hi = lo.copy()
    hi[0] = 0.001
    solver = SteadyStateSolver(model)
    transient = PaperTransient(model)
    cached = {}
    for _ in range(2):  # the second round is served from the caches
        for tec in (lo, hi):
            cached[tec.tobytes()] = (
                solver.solve(p, 2, tec),
                transient.betas(0.002, 2, tec),
            )
    assert solver.n_factorizations == 2
    assert len(solver._lu_cache) == 2
    assert len(transient._beta_cache) == 2
    for tec in (lo, hi):
        t_cached, beta_cached = cached[tec.tobytes()]
        t_fresh = SteadyStateSolver(model).solve(p, 2, tec)
        beta_fresh = PaperTransient(model).betas(0.002, 2, tec)
        assert t_cached.tobytes() == t_fresh.tobytes()
        assert beta_cached.tobytes() == beta_fresh.tobytes()
    assert cached[lo.tobytes()][0].tobytes() != cached[hi.tobytes()][0].tobytes()


def test_int_and_float_activations_share_one_entry(system2):
    n = system2.n_tec_devices
    as_int = np.zeros(n, dtype=int)
    as_int[::2] = 1
    as_float = as_int.astype(float)
    solver = SteadyStateSolver(system2.cond)
    transient = PaperTransient(system2.cond)
    assert solver.factorization(1, as_int) is solver.factorization(1, as_float)
    assert solver.n_factorizations == 1
    assert transient.betas(0.002, 1, as_int) is transient.betas(
        0.002, 1, as_float
    )
    assert len(transient._beta_cache) == 1


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
