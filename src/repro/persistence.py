"""JSON serialisation of engine checkpoints.

A checkpoint (``TERiDSEngine.save_checkpoint``) stores the windows' imputed
records, the entity result set and the runtime counters; the ingest driver
adds its pending elements.  This module holds the record and match
serialisers those checkpoints use, the repository serialisers a grown
repository is carried across a restart with, and the versioned checkpoint
envelope.  Rules and pivots are not persisted: the engine recomputes both
from its repository (Algorithm 1's pre-computation), so they follow from
the repository a restart is given.

Only standard-library ``json`` is used; every ``*_to_dict`` function has a
matching ``*_from_dict`` inverse.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Union

from repro.core.matching import MatchPair
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.imputation.repository import DataRepository

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Records and repositories
# ---------------------------------------------------------------------------
def record_to_dict(record: Record) -> Dict:
    """Serialise one record (missing attributes stay ``None``)."""
    return {
        "rid": record.rid,
        "source": record.source,
        "timestamp": record.timestamp,
        "values": dict(record.values),
    }


def record_from_dict(data: Dict) -> Record:
    """Inverse of :func:`record_to_dict`."""
    return Record(rid=data["rid"], values=data.get("values", {}),
                  source=data.get("source", "stream-0"),
                  timestamp=data.get("timestamp", -1))


def imputed_record_to_dict(record: ImputedRecord) -> Dict:
    """Serialise an imputed record (base tuple + candidate distributions).

    The enumerated instances are *not* persisted: they are a deterministic
    function of the candidate distributions and are re-derived lazily after
    :func:`imputed_record_from_dict`.
    """
    return {
        "base": record_to_dict(record.base),
        "candidates": {attribute: dict(distribution)
                       for attribute, distribution in record.candidates.items()},
    }


def imputed_record_from_dict(data: Dict, schema: Schema) -> ImputedRecord:
    """Inverse of :func:`imputed_record_to_dict`."""
    return ImputedRecord(
        base=record_from_dict(data["base"]),
        schema=schema,
        candidates={attribute: dict(distribution)
                    for attribute, distribution in data.get("candidates", {}).items()},
    )


def repository_to_dict(repository: DataRepository) -> Dict:
    """Serialise a repository together with its schema."""
    return {
        "schema": list(repository.schema),
        "samples": [record_to_dict(sample) for sample in repository.samples],
    }


def repository_from_dict(data: Dict) -> DataRepository:
    """Inverse of :func:`repository_to_dict`."""
    schema = Schema(attributes=tuple(data["schema"]))
    samples = [record_from_dict(row) for row in data.get("samples", [])]
    return DataRepository(schema=schema, samples=samples)


# ---------------------------------------------------------------------------
# Match results
# ---------------------------------------------------------------------------
def match_to_dict(pair: MatchPair) -> Dict:
    """Serialise one reported match pair."""
    return {
        "left_rid": pair.left_rid,
        "left_source": pair.left_source,
        "right_rid": pair.right_rid,
        "right_source": pair.right_source,
        "probability": pair.probability,
        "timestamp": pair.timestamp,
    }


def match_from_dict(data: Dict) -> MatchPair:
    """Inverse of :func:`match_to_dict`."""
    return MatchPair(
        left_rid=data["left_rid"], left_source=data["left_source"],
        right_rid=data["right_rid"], right_source=data["right_source"],
        probability=data["probability"], timestamp=data.get("timestamp", -1),
    )


# ---------------------------------------------------------------------------
# Engine checkpoints
# ---------------------------------------------------------------------------
CHECKPOINT_FORMAT = "ter-ids-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file cannot be loaded; the message names the file and
    says why (unreadable JSON, wrong shape, foreign format, old version)."""


def save_checkpoint(state: Dict, path: PathLike) -> None:
    """Write an engine-state checkpoint (see ``repro.runtime.checkpoint``).

    The state dict is produced by ``TERiDSEngine.checkpoint()``; this helper
    wraps it in a format/version envelope, writes the JSON to a sibling
    temporary file and renames that over ``path`` — so a process killed
    mid-write leaves the previous checkpoint, never a truncated one.
    """
    payload = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
               "state": state}
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(json.dumps(payload, indent=2))
    os.replace(scratch, path)


def load_checkpoint(path: PathLike) -> Dict:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` for every way the file can be damaged.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as error:  # JSONDecodeError, undecodable bytes
        raise CheckpointError(
            f"{path} is not readable JSON (truncated or corrupt checkpoint?): "
            f"{error}") from error
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"{path} is not a TER-iDS checkpoint: expected a JSON object, "
            f"found {type(payload).__name__}")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a TER-iDS checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version "
            f"{payload.get('version')!r} (this build reads "
            f"{CHECKPOINT_VERSION})")
    if not isinstance(payload.get("state"), dict):
        raise CheckpointError(f"{path}: checkpoint envelope has no 'state'")
    return payload["state"]
