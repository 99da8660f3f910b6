"""Vocabularies used by the synthetic dataset generators.

The paper evaluates on five real entity-matching datasets (Citations, Anime,
Bikes, EBooks, Songs).  Those corpora are not redistributable here, so the
generators in :mod:`repro.datasets.synthetic` build structurally equivalent
synthetic corpora: two sources with overlapping entities, textual attributes
whose values are token strings drawn from topic-clustered vocabularies, and
per-attribute token-length profiles that mimic the originals (e.g. EBooks'
long ``description`` attribute).

This module holds the word material: a base vocabulary of filler tokens and
per-domain topic clusters whose *topic tokens* double as query keywords.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Generic filler tokens shared by every domain (they create realistic token
#: overlap between non-matching records).
BASE_VOCABULARY: Tuple[str, ...] = (
    "alpha", "bravo", "carbon", "delta", "ember", "fable", "gamma", "harbor",
    "indigo", "jasper", "kernel", "lumen", "meadow", "nectar", "onyx",
    "prism", "quartz", "raven", "saffron", "timber", "umber", "velvet",
    "willow", "xenon", "yonder", "zephyr", "anchor", "breeze", "cascade",
    "drift", "echo", "flint", "grove", "halcyon", "iris", "juniper",
    "keystone", "lattice", "mosaic", "nimbus", "orchid", "pebble", "quiver",
    "ripple", "summit", "thistle", "undertow", "vertex", "wander", "zenith",
    "copper", "marble", "cedar", "violet", "amber", "slate", "coral",
    "ivory", "crimson", "sable", "plume", "vista", "haven", "ridge",
    "meridian", "solstice", "aurora", "basalt", "cobalt", "dune",
)

#: Topic clusters per dataset domain.  Each cluster maps a *topic keyword*
#: (usable as a TER-iDS query keyword) to tokens characteristic of entities
#: about that topic.
TOPIC_CLUSTERS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "citations": {
        "databases": ("query", "index", "transaction", "storage", "relational",
                      "sql", "optimizer", "join", "schema", "warehouse"),
        "learning": ("neural", "training", "gradient", "classifier", "embedding",
                     "model", "feature", "label", "inference", "network"),
        "streams": ("window", "sliding", "online", "continuous", "arrival",
                    "latency", "synopsis", "sketch", "sampling", "velocity"),
        "graphs": ("vertex", "edge", "traversal", "community", "pagerank",
                   "subgraph", "motif", "clique", "partition", "centrality"),
    },
    "anime": {
        "mecha": ("robot", "pilot", "colony", "gundam", "armor", "squadron",
                  "reactor", "hangar", "battle", "frontier"),
        "fantasy": ("guild", "dungeon", "dragon", "mage", "quest", "sword",
                    "kingdom", "prophecy", "relic", "portal"),
        "romance": ("school", "confession", "festival", "letter", "club",
                    "senpai", "classroom", "promise", "summer", "diary"),
        "sports": ("tournament", "coach", "stadium", "rival", "training",
                   "championship", "team", "serve", "sprint", "finals"),
    },
    "bikes": {
        "cruiser": ("chrome", "saddle", "lowrider", "torque", "highway",
                    "exhaust", "leather", "vtwin", "chopper", "boulevard"),
        "sport": ("fairing", "supersport", "litre", "slipper", "quickshifter",
                  "redline", "apex", "track", "aero", "telemetry"),
        "commuter": ("mileage", "scooter", "urban", "fuel", "economy",
                     "storage", "traffic", "practical", "budget", "daily"),
        "offroad": ("trail", "enduro", "knobby", "suspension", "motocross",
                    "terrain", "mudguard", "rally", "dirt", "crosser"),
    },
    "ebooks": {
        "mystery": ("detective", "alibi", "suspect", "clue", "inspector",
                    "murder", "witness", "archive", "cipher", "confession"),
        "scifi": ("starship", "colony", "android", "terraform", "warp",
                  "asteroid", "protocol", "singularity", "orbit", "beacon"),
        "history": ("empire", "dynasty", "archive", "treaty", "expedition",
                    "manuscript", "chronicle", "siege", "monarch", "frontier"),
        "selfhelp": ("habit", "mindset", "routine", "focus", "productivity",
                     "journal", "gratitude", "discipline", "momentum", "clarity"),
    },
    "songs": {
        "rock": ("guitar", "riff", "amplifier", "drummer", "anthem", "stage",
                 "chorus", "distortion", "vinyl", "tour"),
        "electronic": ("synth", "bassline", "drop", "sampler", "remix",
                       "sequencer", "club", "tempo", "filter", "modular"),
        "folk": ("banjo", "ballad", "harvest", "river", "porch", "acoustic",
                 "lantern", "hollow", "caravan", "prairie"),
        "jazz": ("saxophone", "swing", "quartet", "improvisation", "brass",
                 "lounge", "standard", "bebop", "trumpet", "midnight"),
    },
    "health": {
        "diabetes": ("diabetes", "insulin", "glucose", "bloodsugar", "dietary",
                     "metformin", "thirst", "fatigue", "weightloss", "vision"),
        "flu": ("flu", "fever", "cough", "congestion", "rest", "fluids",
                "chills", "ache", "virus", "season"),
        "allergy": ("allergy", "pollen", "antihistamine", "rash", "itchy",
                    "sneeze", "eyedrop", "dust", "hives", "swelling"),
        "cardio": ("heart", "pressure", "cholesterol", "statin", "exercise",
                   "palpitation", "artery", "monitor", "sodium", "stress"),
    },
}

#: Extra "long-tail" topic clusters added to every domain.  The paper's topic
#: keyword set selects only a small fraction of the stream tuples (which is
#: why topic-keyword pruning removes the bulk of candidate pairs in Figure
#: 4); giving every domain additional minority topics reproduces that shape.
_EXTRA_CLUSTER_SUFFIXES: Tuple[str, ...] = (
    "field", "works", "corner", "signal", "digest", "circle", "review", "notes",
)


def _extra_clusters(domain: str, count: int = 4) -> Dict[str, Tuple[str, ...]]:
    clusters: Dict[str, Tuple[str, ...]] = {}
    for index in range(count):
        name = f"{domain}misc{index}"
        clusters[name] = tuple(
            f"{domain}{index}{suffix}" for suffix in _EXTRA_CLUSTER_SUFFIXES)
    return clusters


for _domain in list(TOPIC_CLUSTERS):
    TOPIC_CLUSTERS[_domain].update(_extra_clusters(_domain))


#: Attribute schemas per dataset domain (identifier column excluded).
DOMAIN_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "citations": ("title", "authors", "venue", "year_terms"),
    "anime": ("title", "genres", "studio", "synopsis"),
    "bikes": ("model", "brand", "specs", "description"),
    "ebooks": ("title", "author", "publisher", "description"),
    "songs": ("title", "artist", "album", "tags"),
    "health": ("gender", "symptom", "diagnosis", "treatment"),
}
