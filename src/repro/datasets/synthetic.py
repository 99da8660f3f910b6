"""Synthetic dataset generators emulating the paper's five real datasets.

The evaluation of the paper (Table 4) uses Citations, Anime, Bikes, EBooks
and Songs — two-source entity-matching corpora with known duplicate pairs.
Those corpora cannot be bundled here, so :func:`generate_dataset` produces
seeded synthetic equivalents with the structural properties the TER-iDS
evaluation depends on:

* two sources (two incomplete data streams) with a controlled number of
  duplicated entities (the ground truth);
* textual attributes whose values are token strings; duplicated entities
  appear in both sources with perturbed token sets (high but not perfect
  Jaccard similarity), non-duplicates are drawn independently;
* topic-clustered vocabularies so that topic keywords select a subset of the
  entities (the "topic-aware" part of TER-iDS);
* a complete historical *repository* drawn from the same distribution;
* per-attribute token-length profiles (EBooks has a long ``description``
  attribute, mirroring the paper's observation that it dominates the cost);
* a configurable missing rate ``ξ`` and number of missing attributes ``m``.

Scales are reduced relative to the originals so the pure-Python pipeline
stays laptop-friendly; the ``scale`` argument rescales them when needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.tuples import Record, Schema
from repro.datasets.vocab import BASE_VOCABULARY, DOMAIN_SCHEMAS, TOPIC_CLUSTERS
from repro.imputation.repository import DataRepository
from repro.metrics.accuracy import PairKey, pair_key


@dataclass(frozen=True)
class DatasetProfile:
    """Shape of one synthetic dataset (scaled-down analogue of Table 4)."""

    name: str
    domain: str
    source_a_size: int
    source_b_size: int
    match_count: int
    tokens_per_attribute: Tuple[Tuple[int, int], ...]
    perturbation: float = 0.2
    description: str = ""

    @property
    def attributes(self) -> Tuple[str, ...]:
        return DOMAIN_SCHEMAS[self.domain]

    @property
    def schema(self) -> Schema:
        return Schema(attributes=self.attributes)


#: Scaled-down analogues of the paper's Table 4 datasets.  Relative ordering
#: of sizes and token-length profiles mirrors the originals: Songs is the
#: largest, EBooks has by far the longest textual attribute.
DATASET_PROFILES: Dict[str, DatasetProfile] = {
    "citations": DatasetProfile(
        name="citations", domain="citations",
        source_a_size=90, source_b_size=80, match_count=40,
        tokens_per_attribute=((5, 9), (3, 6), (2, 4), (1, 2)),
        perturbation=0.15,
        description="DBLP-ACM citation pairs (scaled synthetic analogue)",
    ),
    "anime": DatasetProfile(
        name="anime", domain="anime",
        source_a_size=110, source_b_size=110, match_count=55,
        tokens_per_attribute=((3, 6), (2, 4), (1, 3), (6, 10)),
        perturbation=0.15,
        description="MyAnimeList-AnimePlanet pairs (scaled synthetic analogue)",
    ),
    "bikes": DatasetProfile(
        name="bikes", domain="bikes",
        source_a_size=120, source_b_size=150, match_count=60,
        tokens_per_attribute=((2, 4), (1, 2), (4, 7), (6, 10)),
        perturbation=0.15,
        description="Bikedekho-Bikewale pairs (scaled synthetic analogue)",
    ),
    "ebooks": DatasetProfile(
        name="ebooks", domain="ebooks",
        source_a_size=110, source_b_size=150, match_count=60,
        tokens_per_attribute=((3, 6), (2, 3), (1, 3), (14, 22)),
        perturbation=0.15,
        description="iTunes-eBooks pairs; long description attribute",
    ),
    "songs": DatasetProfile(
        name="songs", domain="songs",
        source_a_size=170, source_b_size=170, match_count=80,
        tokens_per_attribute=((3, 6), (2, 4), (2, 4), (3, 6)),
        perturbation=0.15,
        description="Million-song self-join (scaled synthetic analogue)",
    ),
    "health": DatasetProfile(
        name="health", domain="health",
        source_a_size=80, source_b_size=80, match_count=40,
        tokens_per_attribute=((1, 1), (3, 6), (1, 2), (2, 4)),
        perturbation=0.15,
        description="Online health community posts (the paper's Example 1)",
    ),
}


@dataclass
class Workload:
    """Everything one experiment run needs."""

    profile: DatasetProfile
    schema: Schema
    stream_a: List[Record]
    stream_b: List[Record]
    repository: DataRepository
    ground_truth: Set[PairKey]
    keywords: FrozenSet[str]
    topic_entities: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.profile.name

    def interleaved_records(self) -> List[Record]:
        """Round-robin interleaving of both streams (arrival order)."""
        merged: List[Record] = []
        for index in range(max(len(self.stream_a), len(self.stream_b))):
            if index < len(self.stream_a):
                merged.append(self.stream_a[index])
            if index < len(self.stream_b):
                merged.append(self.stream_b[index])
        return merged


class _EntityFactory:
    """Generates entities and their (perturbed) record views."""

    def __init__(self, profile: DatasetProfile, rng: random.Random) -> None:
        self.profile = profile
        self.rng = rng
        self.clusters = TOPIC_CLUSTERS[profile.domain]
        self.topics = list(self.clusters)

    def _attribute_tokens(self, topic: str, attribute_index: int,
                          signature: List[str]) -> List[str]:
        low, high = self.profile.tokens_per_attribute[attribute_index]
        length = self.rng.randint(low, high)
        topic_tokens = list(self.clusters[topic])
        tokens: List[str] = []
        # The first token is usually the topic keyword, one token is an
        # entity-specific signature token (real records repeat the entity
        # name / model across attributes, which is what makes one attribute
        # predictive of another and CDD rules tight), the rest mixes topic
        # and filler vocabulary.
        for position in range(length):
            if position == 0 and self.rng.random() < 0.8:
                tokens.append(topic)
            elif position == 1 or (length == 1 and self.rng.random() < 0.5):
                tokens.append(self.rng.choice(signature))
            elif self.rng.random() < 0.5:
                tokens.append(self.rng.choice(topic_tokens))
            else:
                tokens.append(self.rng.choice(BASE_VOCABULARY))
        return tokens

    def make_entity(self, entity_id: int) -> Tuple[str, Dict[str, List[str]]]:
        """One latent entity: its topic and per-attribute token lists."""
        topic = self.topics[entity_id % len(self.topics)]
        signature = [f"ent{entity_id}sig{j}" for j in range(2)]
        values = {
            attribute: self._attribute_tokens(topic, index, signature)
            for index, attribute in enumerate(self.profile.attributes)
        }
        return topic, values

    def perturb(self, tokens: Sequence[str]) -> List[str]:
        """A noisy copy of a token list (drop / substitute a few tokens)."""
        out: List[str] = []
        for token in tokens:
            roll = self.rng.random()
            if roll < self.profile.perturbation / 2:
                continue  # drop
            if roll < self.profile.perturbation:
                out.append(self.rng.choice(BASE_VOCABULARY))  # substitute
            else:
                out.append(token)
        if not out:
            out = [tokens[0]]
        return out

    def record_from(self, rid: str, values: Dict[str, List[str]], source: str,
                    perturbed: bool) -> Record:
        rendered = {}
        for attribute, tokens in values.items():
            chosen = self.perturb(tokens) if perturbed else list(tokens)
            rendered[attribute] = " ".join(chosen)
        return Record(rid=rid, values=rendered, source=source)


def _scaled(value: int, scale: float) -> int:
    return max(2, int(round(value * scale)))


def generate_clean_sources(
    profile: DatasetProfile, scale: float, rng: random.Random
) -> Tuple[List[Record], List[Record], Set[PairKey], Dict[str, str],
           _EntityFactory, List[Dict[str, List[str]]]]:
    """Two complete sources with overlapping entities and their ground truth.

    Also returns the pool of latent entity value dictionaries, which the
    repository builder reuses: the paper's data repository is "collected /
    inferred by historical stream data" (Section 2.2), so a share of the
    repository samples are historical (perturbed) views of stream entities.
    """
    factory = _EntityFactory(profile, rng)
    size_a = _scaled(profile.source_a_size, scale)
    size_b = _scaled(profile.source_b_size, scale)
    matches = min(_scaled(profile.match_count, scale), size_a, size_b)

    source_a: List[Optional[Record]] = [None] * size_a
    source_b: List[Optional[Record]] = [None] * size_b
    ground_truth: Set[PairKey] = set()
    record_topics: Dict[str, str] = {}
    entity_pool: List[Dict[str, List[str]]] = []

    # Matched entities appear in both sources *at the same stream position*,
    # so that the round-robin interleaving delivers the two views of an
    # entity close together in time and they co-reside in the sliding
    # windows (the streaming analogue of the original datasets, where both
    # sources enumerate roughly the same entity population).
    shared_positions = rng.sample(range(min(size_a, size_b)), matches)
    entity_counter = 0
    for match_index, position in enumerate(shared_positions):
        topic, values = factory.make_entity(entity_counter)
        entity_pool.append(values)
        entity_counter += 1
        rid_a = f"a{match_index}"
        rid_b = f"b{match_index}"
        source_a[position] = factory.record_from(rid_a, values, "stream-a",
                                                 perturbed=False)
        source_b[position] = factory.record_from(rid_b, values, "stream-b",
                                                 perturbed=True)
        ground_truth.add(pair_key("stream-a", rid_a, "stream-b", rid_b))
        record_topics[f"stream-a/{rid_a}"] = topic
        record_topics[f"stream-b/{rid_b}"] = topic

    # Source-exclusive entities fill the remaining positions.
    exclusive_index = matches
    for position in range(size_a):
        if source_a[position] is not None:
            continue
        topic, values = factory.make_entity(entity_counter)
        entity_pool.append(values)
        entity_counter += 1
        rid = f"a{exclusive_index}"
        exclusive_index += 1
        source_a[position] = factory.record_from(rid, values, "stream-a",
                                                 perturbed=False)
        record_topics[f"stream-a/{rid}"] = topic
    for position in range(size_b):
        if source_b[position] is not None:
            continue
        topic, values = factory.make_entity(entity_counter)
        entity_pool.append(values)
        entity_counter += 1
        rid = f"b{exclusive_index}"
        exclusive_index += 1
        source_b[position] = factory.record_from(rid, values, "stream-b",
                                                 perturbed=False)
        record_topics[f"stream-b/{rid}"] = topic

    completed_a = [record for record in source_a if record is not None]
    completed_b = [record for record in source_b if record is not None]
    return (completed_a, completed_b, ground_truth, record_topics, factory,
            entity_pool)


def inject_missing_values(
    records: Sequence[Record],
    schema: Schema,
    missing_rate: float,
    missing_attributes: int,
    rng: random.Random,
) -> List[Record]:
    """Mark ``missing_attributes`` random attributes missing in ``ξ`` of the records."""
    if not 0.0 <= missing_rate <= 1.0:
        raise ValueError(f"missing_rate must be in [0, 1], got {missing_rate}")
    if not 1 <= missing_attributes <= len(schema):
        raise ValueError(
            f"missing_attributes must be in [1, {len(schema)}], got {missing_attributes}")
    out: List[Record] = []
    attribute_names = list(schema)
    for record in records:
        if rng.random() < missing_rate:
            chosen = rng.sample(attribute_names, missing_attributes)
            values = dict(record.values)
            for attribute in chosen:
                values[attribute] = None
            out.append(Record(rid=record.rid, values=values, source=record.source,
                              timestamp=record.timestamp))
        else:
            out.append(record)
    return out


def build_repository(
    factory: _EntityFactory,
    schema: Schema,
    size: int,
    rng: random.Random,
    entity_pool: Optional[Sequence[Dict[str, List[str]]]] = None,
) -> DataRepository:
    """A repository of complete historical records.

    Section 2.2 of the paper assumes the repository is collected/inferred
    from historical stream data, so (when an ``entity_pool`` is supplied)
    half of the samples are perturbed historical views of stream entities;
    the remainder are fresh entities from the same topic distribution.  This is what lets CDD imputation recover values close to
    the true missing ones.
    """
    samples: List[Record] = []
    for index in range(size):
        if entity_pool and rng.random() < 0.5:
            values = rng.choice(list(entity_pool))
            samples.append(factory.record_from(f"rep{index}", values,
                                               "repository", perturbed=True))
        else:
            _, values = factory.make_entity(10_000 + index)
            samples.append(factory.record_from(f"rep{index}", values,
                                               "repository", perturbed=False))
    return DataRepository(schema=schema, samples=samples)


def generate_dataset(
    name: str,
    missing_rate: float = 0.3,
    missing_attributes: int = 1,
    repository_ratio: float = 0.3,
    keyword_count: int = 2,
    scale: float = 1.0,
    seed: int = 7,
) -> Workload:
    """Generate one complete TER-iDS workload.

    Parameters mirror Table 5 of the paper: ``missing_rate`` is ``ξ``,
    ``missing_attributes`` is ``m`` and ``repository_ratio`` is ``η`` (the
    repository holds ``η`` times the total stream size in complete records).
    ``keyword_count`` topics are chosen as the query keyword set ``K``.
    """
    if name not in DATASET_PROFILES:
        raise KeyError(f"unknown dataset profile {name!r}; "
                       f"available: {sorted(DATASET_PROFILES)}")
    profile = DATASET_PROFILES[name]
    schema = profile.schema
    # Independent random streams so that varying one knob (e.g. the
    # repository ratio η) does not perturb the others (stream content,
    # missing-value pattern) — the parameter sweeps then vary exactly one
    # thing at a time, as in the paper's experiments.
    rng_sources = random.Random(seed)
    rng_repository = random.Random(seed + 7919)
    rng_missing = random.Random(seed + 104729)

    (source_a, source_b, ground_truth, record_topics, factory,
     entity_pool) = generate_clean_sources(profile, scale, rng_sources)

    repository_size = max(4, int(round(
        (len(source_a) + len(source_b)) * repository_ratio)))
    factory.rng = rng_repository
    repository = build_repository(factory, schema, repository_size,
                                  rng_repository, entity_pool=entity_pool)

    stream_a = inject_missing_values(source_a, schema, missing_rate,
                                     missing_attributes, rng_missing)
    stream_b = inject_missing_values(source_b, schema, missing_rate,
                                     missing_attributes, rng_missing)

    topics = list(TOPIC_CLUSTERS[profile.domain])
    keywords = frozenset(topics[:max(1, keyword_count)])
    topic_entities = {
        key for key, topic in record_topics.items() if topic in keywords
    }
    # Ground truth for *topic-aware* ER: only pairs where at least one side
    # belongs to a query topic should be reported (problem statement).
    topical_truth = {
        key for key in ground_truth
        if (f"{key[0][0]}/{key[0][1]}" in topic_entities
            or f"{key[1][0]}/{key[1][1]}" in topic_entities)
    }

    return Workload(
        profile=profile,
        schema=schema,
        stream_a=stream_a,
        stream_b=stream_b,
        repository=repository,
        ground_truth=topical_truth,
        keywords=keywords,
        topic_entities=topic_entities,
    )


def dataset_statistics(workload: Workload) -> Dict[str, object]:
    """Table 4-style statistics of one generated workload."""
    return {
        "dataset": workload.name,
        "source_a_tuples": len(workload.stream_a),
        "source_b_tuples": len(workload.stream_b),
        "repository_tuples": len(workload.repository),
        "topic_ground_truth_matches": len(workload.ground_truth),
        "keywords": sorted(workload.keywords),
        "attributes": list(workload.schema),
    }
