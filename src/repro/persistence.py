"""JSON persistence for rules, records, match results and workloads.

A downstream deployment of TER-iDS mines CDD rules and selects pivots
*offline* (Algorithm 1's pre-computation phase) and then runs the online
operator possibly on a different machine or at a later time.  This module
provides the serialisation layer for that hand-off: mined rules, pivot
tables, repositories and reported match pairs can be written to and read
back from plain JSON files.

Only standard-library ``json`` is used; every ``*_to_dict`` function has a
matching ``*_from_dict`` inverse and round-tripping is covered by tests.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.core.matching import MatchPair
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.imputation.cdd import (
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
    CONSTRAINT_MISSING,
    AttributeConstraint,
    CDDRule,
)
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import PivotTable

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
# CDD rules
# ---------------------------------------------------------------------------
def _constraint_to_dict(constraint: AttributeConstraint) -> Dict:
    return {
        "attribute": constraint.attribute,
        "kind": constraint.kind,
        "interval": list(constraint.interval),
        "constant": constraint.constant,
    }


def _constraint_from_dict(data: Dict) -> AttributeConstraint:
    kind = data["kind"]
    if kind not in (CONSTRAINT_CONSTANT, CONSTRAINT_INTERVAL, CONSTRAINT_MISSING):
        raise ValueError(f"unknown constraint kind {kind!r}")
    return AttributeConstraint(
        attribute=data["attribute"],
        kind=kind,
        interval=tuple(data.get("interval", (0.0, 1.0))),
        constant=data.get("constant"),
    )


def rule_to_dict(rule: CDDRule) -> Dict:
    """Serialise one CDD rule."""
    return {
        "determinants": [_constraint_to_dict(c) for c in rule.determinants],
        "dependent": rule.dependent,
        "dependent_interval": list(rule.dependent_interval),
        "support": rule.support,
        "rule_id": rule.rule_id,
    }


def rule_from_dict(data: Dict) -> CDDRule:
    """Inverse of :func:`rule_to_dict`."""
    return CDDRule(
        determinants=tuple(_constraint_from_dict(c) for c in data["determinants"]),
        dependent=data["dependent"],
        dependent_interval=tuple(data["dependent_interval"]),
        support=data.get("support", 0),
        rule_id=data.get("rule_id", ""),
    )


def save_rules(rules: Sequence[CDDRule], path: PathLike) -> None:
    """Write mined CDD rules to a JSON file."""
    payload = {"rules": [rule_to_dict(rule) for rule in rules]}
    Path(path).write_text(json.dumps(payload, indent=2))


def load_rules(path: PathLike) -> List[CDDRule]:
    """Read CDD rules written by :func:`save_rules`."""
    payload = json.loads(Path(path).read_text())
    return [rule_from_dict(row) for row in payload.get("rules", [])]


# ---------------------------------------------------------------------------
# Pivot tables
# ---------------------------------------------------------------------------
def pivots_to_dict(pivots: PivotTable) -> Dict:
    """Serialise a pivot table (selection reports are not persisted)."""
    return {
        "schema": list(pivots.schema),
        "pivots": {attribute: list(values)
                   for attribute, values in pivots.pivots.items()},
    }


def pivots_from_dict(data: Dict) -> PivotTable:
    """Inverse of :func:`pivots_to_dict`."""
    schema = Schema(attributes=tuple(data["schema"]))
    return PivotTable(schema=schema,
                      pivots={attribute: list(values)
                              for attribute, values in data["pivots"].items()})


def save_pivots(pivots: PivotTable, path: PathLike) -> None:
    """Write a pivot table to a JSON file."""
    Path(path).write_text(json.dumps(pivots_to_dict(pivots), indent=2))


def load_pivots(path: PathLike) -> PivotTable:
    """Read a pivot table written by :func:`save_pivots`."""
    return pivots_from_dict(json.loads(Path(path).read_text()))


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


def save_matches(pairs: Iterable[MatchPair], path: PathLike) -> None:
    """Write reported match pairs to a JSON file."""
    payload = {"matches": [match_to_dict(pair) for pair in pairs]}
    Path(path).write_text(json.dumps(payload, indent=2))


def load_matches(path: PathLike) -> List[MatchPair]:
    """Read match pairs written by :func:`save_matches`."""
    payload = json.loads(Path(path).read_text())
    return [match_from_dict(row) for row in payload.get("matches", [])]


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


def save_repository(repository: DataRepository, path: PathLike) -> None:
    """Write a data repository to a JSON file."""
    Path(path).write_text(json.dumps(repository_to_dict(repository), indent=2))


def load_repository(path: PathLike) -> DataRepository:
    """Read a data repository written by :func:`save_repository`."""
    return repository_from_dict(json.loads(Path(path).read_text()))
