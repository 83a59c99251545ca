"""Record text extraction, tokenization, and term-frequency vectors."""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .exceptions import ConfigError, RecordValidationError
from .records import MetadataRecord, dc_values

#: Dublin Core elements whose values feed the term vectors by default.
DEFAULT_FIELDS = ("title", "description", "subject", "creator")

#: Tokens shorter than this are dropped.
MIN_TOKEN_LENGTH = 2

# Runs of Unicode letters/digits; underscore and punctuation split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_default_stopwords: frozenset[str] | None = None


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword file (one word per line, '#' comments, blanks ignored).

    With no path, returns the packaged default list (cached). A file that
    cannot be read raises ConfigError.
    """
    global _default_stopwords
    if path is None:
        if _default_stopwords is None:
            text = (
                resources.files("simharvest")
                .joinpath("data/stopwords.txt")
                .read_text(encoding="utf-8")
            )
            _default_stopwords = _parse_stopwords(text)
        return _default_stopwords
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigError(f"cannot read stopword file {path}: {error}") from error
    return _parse_stopwords(text)


def _parse_stopwords(text: str) -> frozenset[str]:
    words = set()
    for line in text.splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


def extract_text(
    record: MetadataRecord, fields: Sequence[str] = DEFAULT_FIELDS
) -> str:
    """Join the selected DC field values of a record in document order; a
    deleted record carries none, so its text is empty."""
    return " ".join(dc_values(record, fields))


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Lowercase, split on any non-alphanumeric run, drop short and stop words.

    Purely numeric tokens are kept. No stemming is applied.
    """
    if stopwords is None:
        stopwords = load_stopwords()
    return [
        token
        for token in _TOKEN_RE.findall(text.lower())
        if len(token) >= MIN_TOKEN_LENGTH and token not in stopwords
    ]


@dataclass(frozen=True)
class TermFrequencyVector:
    """Raw term counts for one document, keyed by term in sorted order."""

    identifier: str
    counts: Mapping[str, int]

    def __post_init__(self):
        if not isinstance(self.identifier, str) or not self.identifier:
            raise RecordValidationError("identifier must be a non-empty string")
        normalized: dict[str, int] = {}
        for term in sorted(self.counts):
            count = self.counts[term]
            if not isinstance(term, str) or not term:
                raise RecordValidationError("terms must be non-empty strings")
            if term != term.lower() or term.split() != [term]:
                raise RecordValidationError(
                    f"term {term!r} must be lowercase with no whitespace"
                )
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise RecordValidationError(
                    f"count for {term!r} must be a positive integer"
                )
            normalized[term] = count
        object.__setattr__(self, "counts", normalized)


def term_frequencies(identifier: str, terms: Iterable[str]) -> TermFrequencyVector:
    """Count term multiplicities in a token stream."""
    counts: dict[str, int] = {}
    for term in terms:
        counts[term] = counts.get(term, 0) + 1
    return TermFrequencyVector(identifier, counts)


def record_to_tf(
    record: MetadataRecord,
    fields: Sequence[str] = DEFAULT_FIELDS,
    stopwords: frozenset[str] | None = None,
) -> TermFrequencyVector:
    """Full pipeline for one record: extract, tokenize, count.

    A deleted record has no text, so it gets an empty vector: every stored
    record has a term-vector counterpart.
    """
    terms = tokenize(extract_text(record, fields), stopwords)
    return term_frequencies(record.identifier, terms)
