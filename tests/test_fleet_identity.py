"""Fleet run identity: a fleet run is one serial loop.

Sharding and the pooled, journaled fleet path were removed; the two
arguments that once selected them are kept only to refuse any value
but the serial one, so a caller never gets a silently different run.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.fleet import FleetConfig, run_fleet


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: FleetConfig(n_nodes=4, duration_s=60, shards=0),
                     id="shards-0"),
        pytest.param(lambda: FleetConfig(n_nodes=4, duration_s=60, shards=2),
                     id="shards-2"),
        pytest.param(
            lambda: run_fleet(FleetConfig(n_nodes=4, duration_s=60), jobs=2),
            id="jobs-2",
        ),
    ],
)
def test_fleet_rejects_sharding(make):
    with pytest.raises(ConfigurationError, match="sharding was removed"):
        make()
