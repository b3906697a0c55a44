"""Fleet run identity: a result depends on the config, nothing else.

A pinned shard count makes the worker count irrelevant (serial and
pooled runs digest-equal), and a crash-recovery journal only resumes a
run whose every `FleetConfig` knob matches the one that wrote it.
"""

import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.fleet import FleetConfig, run_fleet
from repro.server.platform import build_server_system
from repro.parallel import WorkerPool


@pytest.fixture(scope="module")
def platform():
    return build_server_system()


@pytest.mark.slow
def test_fleet_shards_pooled_matches_serial(platform):
    """Interval tier: pinned shard count => worker count is irrelevant."""
    cfg = FleetConfig(
        n_nodes=8,
        duration_s=120,
        trace="diurnal",
        router="round-robin",
        stepper="batched",
        shards=2,
    )
    serial = run_fleet(cfg, platform=platform, jobs=1)
    with WorkerPool(2) as pool:
        pool.prime()
        pooled = run_fleet(cfg, platform=platform, pool=pool)
    assert serial.shard_digests == pooled.shard_digests
    assert serial.digest == pooled.digest


def test_fleet_default_shards_ignore_jobs(platform):
    """Unset ``shards`` means one shard, whatever the worker count."""
    cfg = FleetConfig(n_nodes=4, duration_s=60)
    serial = run_fleet(cfg, platform=platform, jobs=1)
    pooled = run_fleet(cfg, platform=platform, jobs=2)
    assert serial.shards == pooled.shards == 1
    assert serial.digest == pooled.digest


def test_fleet_rejects_zero_shards():
    with pytest.raises(ConfigurationError, match="shard"):
        FleetConfig(n_nodes=4, duration_s=60, shards=0)


def test_fleet_journal_rejects_changed_config(platform, tmp_path):
    """Knobs outside the old hand-listed header (here `scale`) count too."""
    journal = tmp_path / "fleet.tfj"
    cfg = FleetConfig(n_nodes=4, duration_s=60, shards=2, scale=1.0)
    first = run_fleet(cfg, platform=platform, jobs=1, journal_path=journal)
    # Same config: every shard replays from the journal.
    again = run_fleet(cfg, platform=platform, jobs=1, journal_path=journal)
    assert again.digest == first.digest
    scaled = FleetConfig(n_nodes=4, duration_s=60, shards=2, scale=1.3)
    with pytest.raises(CheckpointError, match="scale"):
        run_fleet(scaled, platform=platform, jobs=1, journal_path=journal)
