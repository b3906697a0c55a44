"""Deterministic checkpoint/restore of mid-flight simulations.

A checkpoint is one pickled payload dict: the engine's
:class:`~repro.core.engine.LoopState` under ``"loop"`` (temperature
field, actuators, clocks, TEC engagement memory, fan window and
run-long integrals), the trace recorded so far, the controller and
estimator, the fault scheduler with its latched values and RNG stream,
the sensor bank's noise stream, and the telemetry counters. The
solver's LU cache is not saved: it is exact memoization, so the resumed
run refactorizes on demand and gets the same bits.
Pickling every piece in a single payload preserves object-identity
sharing (``config.faults`` is the same object the guards hold, the
estimator references the same ``CMPSystem``), so a restored run wires
up exactly like the live one.

Determinism contract: resuming from a checkpoint written at any
interval boundary produces a :class:`~repro.core.engine.SimulationResult`
bit-identical, field by field, to the uninterrupted run — on the
classic and hardened engines. Taking checkpoints is
side-effect-free (RNG states are copied, never advanced), so the
checkpoint cadence itself cannot perturb a run.

Writes are crash-safe: the payload lands in ``<path>.tmp``, is fsynced,
and renamed over the final path, so a kill mid-write leaves either the
previous complete checkpoint or none — never a torn file.
"""

from __future__ import annotations

import hashlib
import os
import pickle

import numpy as np

from repro import __version__
from repro.exceptions import CheckpointError
from repro.obs import telemetry as obs

#: Version of the snapshot payload layout. Bump on any incompatible
#: change to the keys or their meaning; loaders reject other versions.
#: Schema 3 carries the whole loop as one ``LoopState`` under ``"loop"``
#: and no solver state; schema 4 pickles the estimators as one class
#: family and ``TECfanController`` without its ``batched`` field.
CHECKPOINT_SCHEMA = 4


def atomic_write_bytes(path, blob: bytes) -> str:
    """Crash-safe byte write: ``<path>.tmp`` + fsync + rename.

    A reader polling ``path`` concurrently sees either the previous
    complete file or the new one — never a torn intermediate. Shared by
    checkpoints and the live status sidecar
    (:mod:`repro.obs.live`).
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def write_checkpoint(path, payload: dict) -> str:
    """Atomically write one checkpoint payload; returns the final path.

    The caller provides the payload dict; this function stamps the
    schema version and package version, pickles once (protocol
    HIGHEST), and performs the write-tmp/fsync/rename dance so readers
    never observe a partial file.
    """
    path = os.fspath(path)
    payload = dict(payload)
    payload.setdefault("schema", CHECKPOINT_SCHEMA)
    payload.setdefault("repro_version", __version__)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(path, blob)
    obs.incr("checkpoint.writes")
    obs.incr("checkpoint.bytes", len(blob))
    return path


def load_checkpoint(path, kind: str | None = None) -> dict:
    """Load and validate a checkpoint payload.

    Raises :class:`~repro.exceptions.CheckpointError` when the file is
    unreadable, carries an unsupported schema version, or (when
    ``kind`` is given) snapshots something other than the expected
    kind.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint {path} is not a snapshot payload"
        )
    schema = payload.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has schema {schema!r}; this build "
            f"supports {CHECKPOINT_SCHEMA}"
        )
    if kind is not None and payload.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path} snapshots {payload.get('kind')!r}, "
            f"expected {kind!r}"
        )
    return payload


def resume_engine_run(path):
    """Resume an interrupted engine run from its latest checkpoint.

    Returns the completed :class:`~repro.core.engine.SimulationResult`,
    bit-identical to what the uninterrupted run would have produced.
    """
    from repro.core.engine import SimulationEngine

    ck = load_checkpoint(path, kind="engine-run")
    engine = SimulationEngine(
        system=ck["system"], problem=ck["problem"], config=ck["config"]
    )
    return engine.resume(ck)


def result_digest(result) -> str:
    """Stable hex digest of every field of a ``SimulationResult``.

    Hashes the raw bytes of all trace columns, the metrics repr, and
    the final actuator state — two runs digest equal iff they are
    bit-identical field by field. Used by the crash-recovery smoke
    gate to compare a resumed run against an uninterrupted one across
    process boundaries.
    """
    h = hashlib.sha256()
    for name in (
        "time_s",
        "dt_s",
        "peak_temp_c",
        "p_chip_w",
        "p_cores_w",
        "p_tec_w",
        "p_fan_w",
        "ips_chip",
        "tec_on",
        "fan_level",
        "mean_dvfs_level",
    ):
        h.update(name.encode())
        h.update(np.ascontiguousarray(getattr(result.trace, name)).tobytes())
    h.update(repr(result.metrics).encode())
    st = result.final_state
    h.update(np.ascontiguousarray(st.tec, dtype=float).tobytes())
    h.update(np.ascontiguousarray(st.dvfs, dtype=int).tobytes())
    h.update(str(int(st.fan_level)).encode())
    h.update(np.ascontiguousarray(result.avg_p_components_w).tobytes())
    h.update(np.ascontiguousarray(result.avg_tec).tobytes())
    return h.hexdigest()
