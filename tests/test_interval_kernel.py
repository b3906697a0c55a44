"""Closed-form k-interval advance of the transient model.

``PaperTransient.interpolate`` evaluated at ``dt * (1..k)`` must agree
with ``k`` sequential ``PaperTransient.step`` calls of length ``dt``
within 1e-9 K, for any fan level, TEC pattern and start/steady fields.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.transient import PaperTransient


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=64),
    fan=st.integers(min_value=1, max_value=6),
    dt_ms=st.floats(min_value=0.5, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fast_forward_matches_sequential_steps(system2, k, fan, dt_ms, seed):
    dt = dt_ms * 1e-3
    rng = np.random.default_rng(seed)
    tr = PaperTransient(system2.cond)
    n = system2.cond.n_nodes
    tec = (rng.random(system2.n_tec_devices) > 0.5).astype(float)
    t0 = 300.0 + 60.0 * rng.random(n)
    ts = 300.0 + 60.0 * rng.random(n)
    stepped = t0
    for _ in range(k):
        stepped = tr.step(stepped, ts, dt, fan, tec)
    closed = tr.interpolate(t0, ts, dt * np.arange(1, k + 1), fan, tec)
    assert np.max(np.abs(closed[-1] - stepped)) <= 1e-9
