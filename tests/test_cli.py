"""CLI entry points (fast subcommands only)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


def test_hwcost_runs(capsys):
    assert main(["hwcost"]) == 0
    out = capsys.readouterr().out
    assert "multipliers" in out
    assert "54" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_quick_runs(capsys):
    assert main(["quick"]) == 0
    out = capsys.readouterr().out
    assert "TECfan" in out
    assert "threshold" in out


@pytest.mark.parametrize("scale", ["nan", "-1"])
def test_fleet_rejects_bad_scale(capsys, scale):
    assert main(["fleet", "--nodes", "2", "--seconds", "10", "--scale", scale]) == 2
    assert "scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "hours, message", [("0", "duration must be >= 1 s"), ("nan", "--hours")]
)
def test_fleet_rejects_a_zero_or_non_finite_horizon(capsys, hours, message):
    """``--hours 0`` is a zero horizon, not "unset": refused, exit 2."""
    assert main(["fleet", "--nodes", "2", "--hours", hours]) == 2
    assert message in capsys.readouterr().err


def test_fleet_hours_sets_the_horizon(capsys):
    assert main(["fleet", "--nodes", "2", "--hours", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "sim_time_s: 1800.0" in out


def test_fleet_has_no_shard_or_pool_flags(capsys):
    with pytest.raises(SystemExit):
        main(["fleet", "--help"])
    out = capsys.readouterr().out
    for flag in ("--shards", "--journal", "--jobs"):
        assert flag not in out


@pytest.mark.parametrize("flag, bad, valid", [
    ("--router", "nearest", ("round-robin", "least-loaded", "thermal")),
    ("--trace", "poisson", ("diurnal", "wikipedia")),
])
def test_fleet_rejects_unknown_names_listing_the_valid_ones(
    capsys, flag, bad, valid
):
    with pytest.raises(SystemExit) as exc:
        main(["fleet", flag, bad])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert bad in err
    for name in valid:
        assert name in err


def test_help_imports_no_numpy():
    """Building the parser (every subcommand's choices included) loads
    neither numpy nor scipy, so ``tecfan watch --help`` starts fast."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys\n"
        "from repro.cli import main\n"
        "for argv in (['watch', '--help'], ['--help']):\n"
        "    try:\n"
        "        main(argv)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"
