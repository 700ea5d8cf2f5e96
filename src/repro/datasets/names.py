"""Shared name/word pools for the dataset generators.

Short STRING values (titles, person names, item names) are assembled
from these pools, so substring workloads have meaningful shared
substrings ("The", "Star", "son", ...) with non-trivial selectivities.
"""

from __future__ import annotations

import random
from typing import Sequence

_COMMON_FIRST: Sequence[str] = (
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
    "Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Nikos",
    "Minos", "Yannis", "Neoklis", "Sofia", "Elena", "Marco", "Lucia",
    "Pierre", "Claire", "Hans", "Greta", "Akira", "Yuki", "Raj", "Priya",
)

_COMMON_LAST: Sequence[str] = (
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Anderson", "Taylor", "Thomas",
    "Jackson", "White", "Harrison", "Martin", "Thompson", "Robinson",
    "Polyzotis", "Garofalakis", "Ioannidis", "Papadimitriou", "Stavros",
    "Nakamura", "Tanaka", "Gupta", "Patel", "Mueller", "Schneider",
)

_NAME_STEMS: Sequence[str] = (
    "Al", "Bar", "Cal", "Dor", "El", "Far", "Gar", "Hal", "Il", "Jor",
    "Kal", "Lor", "Mar", "Nor", "Or", "Par", "Quin", "Ros", "Sal", "Tor",
)
_NAME_MIDDLES: Sequence[str] = (
    "an", "ber", "den", "din", "go", "lan", "len", "mon", "ran", "ren",
    "son", "ten", "ti", "van", "vin", "wen",
)
_NAME_ENDINGS: Sequence[str] = (
    "a", "as", "ez", "i", "ino", "is", "o", "os", "ov", "sen", "ski", "son",
)


def _synthetic_names(count: int, offset: int) -> tuple:
    """Deterministic pool of pronounceable synthetic surnames.

    Real name collections are far more diverse than a handful of common
    names; a large pool keeps substring summaries from trivially indexing
    every distinct name, so pruned suffix trees face realistic pressure.
    """
    names = []
    index = offset
    while len(names) < count:
        stem = _NAME_STEMS[index % len(_NAME_STEMS)]
        middle = _NAME_MIDDLES[(index // len(_NAME_STEMS)) % len(_NAME_MIDDLES)]
        ending = _NAME_ENDINGS[
            (index // (len(_NAME_STEMS) * len(_NAME_MIDDLES))) % len(_NAME_ENDINGS)
        ]
        names.append(stem + middle + ending)
        index += 1
    return tuple(names)


FIRST_NAMES: Sequence[str] = _COMMON_FIRST + _synthetic_names(220, 0)
LAST_NAMES: Sequence[str] = _COMMON_LAST + _synthetic_names(800, 7)

GENRES: Sequence[str] = (
    "Action", "Comedy", "Drama", "Horror", "Romance", "Thriller",
    "Documentary", "Animation", "Fantasy", "ScienceFiction", "Western",
    "Mystery",
)

CITIES: Sequence[str] = (
    "Athens", "Berlin", "Cairo", "Denver", "Edinburgh", "Florence",
    "Geneva", "Helsinki", "Istanbul", "Jakarta", "Kyoto", "Lisbon",
    "Madrid", "Nairobi", "Oslo", "Prague", "Quito", "Rome", "Santiago",
    "Tokyo", "Utrecht", "Vienna", "Warsaw", "Zagreb",
)

EDUCATION_LEVELS: Sequence[str] = (
    "HighSchool", "College", "Graduate", "PostGraduate", "Other",
)

ITEM_ADJECTIVES: Sequence[str] = (
    "Vintage", "Antique", "Modern", "Rare", "Classic", "Deluxe", "Mini",
    "Grand", "Portable", "Handmade", "Refurbished", "Original",
)

ITEM_NOUNS: Sequence[str] = (
    "Clock", "Lamp", "Table", "Guitar", "Camera", "Watch", "Vase",
    "Mirror", "Radio", "Bicycle", "Painting", "Telescope", "Typewriter",
    "Globe", "Compass", "Chessboard",
)


def person_name(rng: random.Random) -> str:
    """A ``First Last`` person name."""
    return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"


def item_name(rng: random.Random) -> str:
    """An auction item name like ``Vintage Brass Clock``."""
    return f"{rng.choice(ITEM_ADJECTIVES)} {rng.choice(ITEM_NOUNS)}"


def email_address(rng: random.Random) -> str:
    """A synthetic e-mail address for XMark people."""
    first = rng.choice(FIRST_NAMES).lower()
    last = rng.choice(LAST_NAMES).lower()
    host = rng.choice(("example.org", "mail.net", "auctions.com"))
    return f"{first}.{last}@{host}"
