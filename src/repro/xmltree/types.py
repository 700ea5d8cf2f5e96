"""Value types for XML element content.

The paper's data model (Section 2) assigns each element a value of one of
four types:

* ``NULL`` — the element carries no value (pure structure);
* ``NUMERIC`` — an integer from a domain ``{0 .. M-1}``;
* ``STRING`` — a short string queried with substring (``contains``)
  predicates;
* ``TEXT`` — free text modeled as a Boolean term vector over a term
  dictionary, queried with IR-style ``ftcontains`` predicates.
"""

from __future__ import annotations

import enum
import re
from typing import FrozenSet, Union

#: A TEXT value is a set of terms (the Boolean-vector IR model of the
#: paper: entry ``t`` is 1 iff term ``t`` occurs in the free text).
TermSet = FrozenSet[str]

#: The union of concrete Python types an element value may take.
ElementValue = Union[int, str, TermSet, None]


class ValueType(enum.Enum):
    """The data type of an XML element's value (paper Section 2)."""

    NULL = "null"
    NUMERIC = "numeric"
    STRING = "string"
    TEXT = "text"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def infer_value_type(value: ElementValue) -> ValueType:
    """Infer the :class:`ValueType` of a raw element value.

    ``int`` maps to NUMERIC, ``str`` to STRING, and any set of strings to
    TEXT.  ``None`` maps to NULL.

    Raises:
        TypeError: if ``value`` is of an unsupported type.
    """
    if value is None:
        return ValueType.NULL
    if isinstance(value, bool):
        raise TypeError("bool is not a supported XML element value")
    if isinstance(value, int):
        return ValueType.NUMERIC
    if isinstance(value, str):
        return ValueType.STRING
    if isinstance(value, (set, frozenset)):
        if not all(isinstance(term, str) for term in value):
            raise TypeError("TEXT values must be sets of string terms")
        return ValueType.TEXT
    raise TypeError(f"unsupported element value type: {type(value).__name__}")


def normalize_value(value: ElementValue) -> ElementValue:
    """Return ``value`` in canonical form (TEXT values become frozensets)."""
    if isinstance(value, set):
        return frozenset(value)
    return value


#: Maximal runs of alphanumeric characters.  ``\w`` is exactly
#: ``str.isalnum`` plus the underscore, so ``[^\W_]`` matches the same
#: character class the old per-character ``isalnum`` scan accepted —
#: including non-ASCII letters and digits.
_TERM_RE = re.compile(r"[^\W_]+")


def tokenize_text_ordered(text: str) -> list:
    """Distinct text terms in first-occurrence order.

    Exactly the insertion sequence :func:`tokenize_text` feeds its set,
    with duplicates dropped (a repeated ``set.add`` is a no-op, so the
    deduplicated sequence rebuilds a layout-identical set).  The
    columnar store keeps this order so it can reconstruct term sets
    bit-compatible with the object parser's.  Runs as two C-level
    passes: one regex scan, one ``dict.fromkeys`` dedup.
    """
    return list(dict.fromkeys(_TERM_RE.findall(text.lower())))


def tokenize_text(text: str) -> TermSet:
    """Tokenize free text into the Boolean term set of the IR model.

    Lower-cases, splits on non-alphanumeric characters, and drops empty
    tokens; this is the canonical text-to-term-vector mapping used by the
    parser, the datasets, and the exact evaluator alike so that all layers
    agree on term identity.  The interim ``set`` keeps the frozenset's
    insertion sequence identical to the historical ``set.add`` loop, so
    stored term-set layouts are unchanged.
    """
    return frozenset(set(tokenize_text_ordered(text)))
