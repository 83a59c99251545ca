"""Seeded benchmark inputs: Dublin Core corpora, their updates, upstream pages.

Every word a record's indexed fields contain is either a vocabulary term
(lowercase letters and digits, at least two characters, not a stopword) or a
filler the program must drop (a stopword, a one-letter initial, punctuation).
The generator therefore knows each record's term counts without calling the
program's text pipeline. Upstream pages are rendered here as plain text, not
with the program's serializer, so the harvester is fed independent XML.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from xml.sax.saxutils import escape, quoteattr

import numpy as np

OAI_NS = "http://www.openarchives.org/OAI/2.0/"
OAI_DC_NS = "http://www.openarchives.org/OAI/2.0/oai_dc/"
DC_NS = "http://purl.org/dc/elements/1.1/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
PROVENANCE_NS = "http://www.openarchives.org/OAI/2.0/provenance"
ORIGIN_BASE_URL = "http://ntrs.example/oai"

INDEXED_FIELDS = ("title", "creator", "subject", "description")
UPSTREAM_PAGE_SIZE = 100
_FILLERS = ("the", "of", "and", "in", "for", "on", "with", "to", "by", "from", "at")
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SETS = ("aero", "struct", "space", "fluids", "materials", "propulsion",
         "computing", "instruments", "earth", "life")
_SERIES = ("TM", "CR", "TP", "AIAA", "CP")
_TYPES = ("Technical Report", "Conference Paper", "Journal Article", "Preprint")
_EPOCH_1995 = 788918400  # 1995-01-01T00:00:00Z
_EPOCH_2007 = 1167609600  # 2007-01-01T00:00:00Z


def load_stopwords(src: str) -> frozenset[str]:
    """The packaged stopword list (a data file), read as plain text."""
    path = os.path.join(src, "simharvest", "data", "stopwords.txt")
    with open(path, encoding="utf-8") as handle:
        return frozenset(
            line.strip().lower()
            for line in handle
            if line.strip() and not line.startswith("#")
        )


@dataclass(frozen=True)
class Record:
    identifier: str
    datestamp: str
    sets: tuple[str, ...]
    fields: tuple[tuple[str, str], ...]  # Dublin Core (element, value), in order
    counts: dict = field(compare=False)  # expected terms of the indexed fields
    origin: str | None = None  # identifier this record is a copy of
    origin_datestamp: str | None = None

    def provenance_xml(self) -> str | None:
        if self.origin is None:
            return None
        return (
            f'<provenance xmlns="{PROVENANCE_NS}" xmlns:xsi="{XSI_NS}" '
            f'xsi:schemaLocation="{PROVENANCE_NS} {PROVENANCE_NS}.xsd">'
            '<originDescription harvestDate="2006-06-01T00:00:00Z" altered="true">'
            f"<baseURL>{ORIGIN_BASE_URL}</baseURL>"
            f"<identifier>{escape(self.origin)}</identifier>"
            f"<datestamp>{self.origin_datestamp}</datestamp>"
            f"<metadataNamespace>{OAI_DC_NS}</metadataNamespace>"
            "</originDescription></provenance>"
        )


@dataclass
class Corpus:
    """versions[0] is the first upstream state; versions[u] follows u updates."""

    kind: str
    versions: list[list[Record]]
    duplicates: list[tuple[str, str]]  # (original, injected copy)


def _stamp(seconds: int) -> str:
    return datetime.fromtimestamp(int(seconds), tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _pseudo_words(rng, count: int, syllables: tuple[int, int], stopwords) -> list[str]:
    """Distinct lowercase words built from consonant-vowel syllables."""
    pool = [c + v for c in _CONSONANTS for v in _VOWELS]
    pool += [c + v + e for c in "bdgklmnprst" for v in _VOWELS for e in "nrs"]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        lengths = rng.integers(syllables[0], syllables[1] + 1, size=count)
        picks = rng.integers(0, len(pool), size=(count, syllables[1]))
        for length, row in zip(lengths, picks):
            word = "".join(pool[i] for i in row[:length])
            if word not in seen and word not in stopwords:
                seen.add(word)
                words.append(word)
                if len(words) == count:
                    break
    return words


class _Writer:
    """Draws term sequences and renders them as field text with fillers."""

    def __init__(self, rng, vocabulary, weights, fillers):
        self.rng = rng
        self.vocabulary = vocabulary
        self.cumulative = None if weights is None else np.cumsum(weights)
        self.fillers = fillers

    def terms(self, count: int) -> list[str]:
        if count <= 0:
            return []
        if self.cumulative is None:
            picks = self.rng.integers(0, len(self.vocabulary), size=count)
        else:
            draws = self.rng.random(count) * self.cumulative[-1]
            picks = np.searchsorted(self.cumulative, draws, side="right")
        return [self.vocabulary[i] for i in picks]

    def text(self, terms: list[str], capitalize: bool) -> str:
        """Join terms with stopword fillers and punctuation the tokenizer drops."""
        rng = self.rng
        out: list[str] = []
        for position, term in enumerate(terms):
            if rng.random() < 0.2:
                out.append(self.fillers[int(rng.integers(len(self.fillers)))])
            out.append(term.capitalize() if capitalize and rng.random() < 0.5 else term)
            roll = rng.random()
            if roll < 0.06 and position + 1 < len(terms):
                out[-1] += ","
            elif roll < 0.09 and position + 1 < len(terms):
                out[-1] += "."
            elif roll < 0.1:
                out.append("&")
            elif roll < 0.11:
                out[-1] += "-x"  # a one-letter token, too short to index
        return " ".join(out)


@dataclass
class _Shape:
    vocabulary_size: int
    zipf: bool
    creators: int
    title: tuple[int, int]
    description_median: float
    description_bounds: tuple[int, int]


ZIPF = _Shape(30000, True, 2500, (4, 14), 55.0, (0, 300))
DENSE = _Shape(300, False, 25, (5, 8), 40.0, (20, 60))


class Generator:
    def __init__(self, kind: str, seed: int, stopwords: frozenset[str]):
        self.shape = ZIPF if kind == "zipf" else DENSE
        self.rng = np.random.default_rng([seed, 1 if kind == "zipf" else 2])
        rng = self.rng
        shape = self.shape
        vocabulary = _pseudo_words(rng, shape.vocabulary_size, (1, 4), stopwords)
        if shape.zipf:
            # a few numbers and designations, kept whole by the tokenizer
            extra = {str(v) for v in rng.integers(10, 99999, size=600)}
            extra |= {f"{c}{v}" for c, v in zip(rng.choice(list("xfbmas"), 400),
                                                 rng.integers(1, 999, size=400))}
            vocabulary += sorted(extra - set(vocabulary) - stopwords)
            order = rng.permutation(len(vocabulary))
            vocabulary = [vocabulary[i] for i in order]
            ranks = np.arange(1, len(vocabulary) + 1, dtype=float)
            weights = 1.0 / (ranks + 8.0) ** 1.05
        else:
            weights = None
        fillers = tuple(word for word in _FILLERS if word in stopwords)
        self.writer = _Writer(rng, vocabulary, weights, fillers)
        surnames = _pseudo_words(rng, shape.creators, (2, 3), stopwords)
        self.surnames = [name.capitalize() for name in surnames]
        ranks = np.arange(1, len(self.surnames) + 1, dtype=float)
        self.surname_cumulative = np.cumsum(1.0 / ranks)
        self.serial = 0

    # -- one record -------------------------------------------------------

    def _description_length(self) -> int:
        shape = self.shape
        if shape.zipf and self.rng.random() < 0.1:
            return 0
        length = int(self.rng.lognormal(np.log(shape.description_median), 0.7))
        return min(max(length, shape.description_bounds[0]), shape.description_bounds[1])

    def _creator(self) -> tuple[str, str]:
        draw = self.rng.random() * self.surname_cumulative[-1]
        surname = self.surnames[int(np.searchsorted(self.surname_cumulative, draw, side="right"))]
        initial = chr(ord("A") + int(self.rng.integers(26)))
        return f"{surname}, {initial}.", surname.lower()

    def stamp_between(self, low: int, high: int) -> str:
        return _stamp(int(self.rng.integers(low, high)))

    def _sets(self) -> tuple[str, ...]:
        weights = 1.0 / np.arange(1, len(_SETS) + 1)
        weights /= weights.sum()
        first = int(self.rng.choice(len(_SETS), p=weights))
        specs = {_SETS[first]}
        if self.rng.random() < 0.15:
            specs.add(_SETS[int(self.rng.integers(len(_SETS)))])
        return tuple(sorted(specs))

    def _text_fields(self) -> tuple[list[tuple[str, str]], list[tuple[str, str]], dict]:
        """(leading fields, description field, counts) of a fresh record."""
        writer = self.writer
        rng = self.rng
        counts: dict[str, int] = {}

        def add(terms):
            for term in terms:
                counts[term] = counts.get(term, 0) + 1

        title_terms = writer.terms(int(rng.integers(*self.shape.title)) + 1)
        add(title_terms)
        leading = [("title", writer.text(title_terms, capitalize=True))]
        for _ in range(int(rng.integers(1, 5))):
            creator, surname = self._creator()
            leading.append(("creator", creator))
            add([surname])
        for _ in range(int(rng.integers(0, 4))):
            terms = writer.terms(int(rng.integers(1, 4)))
            add(terms)
            leading.append(("subject", " -- ".join(terms)))
        description = []
        terms = writer.terms(self._description_length())
        if terms:
            add(terms)
            description.append(("description", writer.text(terms, capitalize=False)))
        return leading, description, counts

    def _trailing(self, identifier: str, datestamp: str, host: str) -> list[tuple[str, str]]:
        local = identifier.rsplit(":", 1)[1]
        return [
            ("publisher", "NASA Center for AeroSpace Information"),
            ("date", datestamp[:10]),
            ("type", _TYPES[int(self.rng.integers(len(_TYPES)))]),
            ("format", "application/pdf"),
            ("identifier", f"http://{host}/docs/{local}.pdf"),
            ("language", "en"),
        ]

    def fresh(self, datestamp: str | None = None) -> Record:
        self.serial += 1
        stamp = datestamp or self.stamp_between(_EPOCH_1995, _EPOCH_2007)
        series = _SERIES[int(self.rng.integers(len(_SERIES)))]
        identifier = f"oai:ntrs.example:NASA-{series}-{stamp[:4]}-{self.serial:06d}"
        leading, description, counts = self._text_fields()
        fields = leading + description + self._trailing(identifier, stamp, "ntrs.example")
        return Record(identifier, stamp, self._sets(), tuple(fields), counts)

    def copy_of(self, original: Record) -> Record:
        """A near-duplicate from a mirror whose provenance names the original."""
        rng = self.rng
        local = original.identifier.rsplit(":", 1)[1]
        identifier = f"oai:mirror.example:{local}"
        stamp = self.stamp_between(_EPOCH_1995, _EPOCH_2007)
        counts = dict(original.counts)
        fields = []
        for name, value in original.fields:
            if name == "description":
                value, counts = self._perturb(value, counts)
            elif name == "identifier":
                value = f"http://mirror.example/docs/{local}.pdf"
            elif name == "date":
                value = stamp[:10]
            fields.append((name, value))
        return Record(identifier, stamp, original.sets, tuple(fields), counts,
                      original.identifier, original.datestamp)

    def _perturb(self, text: str, counts: dict) -> tuple[str, dict]:
        """Swap about one in twenty description terms for other vocabulary."""
        words = text.split(" ")
        positions = [i for i, word in enumerate(words)
                     if word.rstrip(",.") in counts and word == word.lower()]
        swaps = len(positions) // 20
        if swaps == 0:
            return text, counts
        counts = dict(counts)
        chosen = self.rng.choice(len(positions), size=swaps, replace=False)
        for pick, term in zip(chosen, self.writer.terms(swaps)):
            index = positions[int(pick)]
            word = words[index]
            old = word.rstrip(",.")
            counts[old] -= 1
            if counts[old] == 0:
                del counts[old]
            counts[term] = counts.get(term, 0) + 1
            words[index] = term + word[len(old):]
        return " ".join(words), counts

    def changed(self, record: Record, update: int) -> Record:
        """The record as an upstream revises it: new description, new stamp."""
        low = _EPOCH_2007 + update * 30 * 86400
        stamp = self.stamp_between(low, low + 30 * 86400)
        counts = {t: c for t, c in record.counts.items()}
        for name, value in record.fields:
            if name == "description":
                for term in _indexed_terms(value, counts):
                    counts[term] -= 1
                    if counts[term] == 0:
                        del counts[term]
        terms = self.writer.terms(max(self._description_length(), 10))
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
        description = ("description", self.writer.text(terms, capitalize=False))
        fields = [f for f in record.fields if f[0] != "description"]
        cut = max(i for i, f in enumerate(fields) if f[0] in INDEXED_FIELDS) + 1
        fields = fields[:cut] + [description] + fields[cut:]
        fields = [(n, stamp[:10] if n == "date" else v) for n, v in fields]
        return replace(record, datestamp=stamp, fields=tuple(fields), counts=counts)


def _indexed_terms(text: str, counts: dict) -> list[str]:
    """The vocabulary terms of a generated field value (fillers left out)."""
    terms = []
    for word in text.replace("-x", " ").split(" "):
        word = word.rstrip(",.").lower()
        if word in counts:
            terms.append(word)
    return terms


def generate(kind: str, records: int, seed: int, updates: int, src: str) -> Corpus:
    """A corpus of ``records`` records (a few percent near-duplicate copies)
    plus ``updates`` successive upstream revisions of it."""
    generator = Generator(kind, seed, load_stopwords(src))
    copies = max(1, records * 3 // 100)
    originals = [generator.fresh() for _ in range(records - copies)]
    picks = generator.rng.choice(len(originals), size=copies, replace=False)
    duplicates = []
    current = list(originals)
    for pick in sorted(int(p) for p in picks):
        copy = generator.copy_of(originals[pick])
        duplicates.append((originals[pick].identifier, copy.identifier))
        current.append(copy)
    order = generator.rng.permutation(len(current))
    versions = [[current[i] for i in order]]
    for update in range(1, updates + 1):
        state = list(versions[-1])
        changed = generator.rng.choice(len(state), size=max(1, len(state) // 25), replace=False)
        for index in changed:
            state[int(index)] = generator.changed(state[int(index)], update)
        low = _EPOCH_2007 + update * 30 * 86400
        for _ in range(max(1, len(state) // 50)):
            state.append(generator.fresh(generator.stamp_between(low, low + 30 * 86400)))
        versions.append(state)
    return Corpus(kind, versions, duplicates)


# -- upstream pages -------------------------------------------------------


def _record_xml(record: Record) -> str:
    header = [f"<header><identifier>{escape(record.identifier)}</identifier>"
              f"<datestamp>{record.datestamp}</datestamp>"]
    header += [f"<setSpec>{spec}</setSpec>" for spec in record.sets]
    header.append("</header>")
    dc = "".join(f"<dc:{name}>{escape(value)}</dc:{name}>" for name, value in record.fields)
    metadata = (
        f'<metadata><oai_dc:dc xmlns:oai_dc="{OAI_DC_NS}" xmlns:dc="{DC_NS}" '
        f'xsi:schemaLocation="{OAI_DC_NS} http://www.openarchives.org/OAI/2.0/oai_dc.xsd">'
        f"{dc}</oai_dc:dc></metadata>"
    )
    provenance = record.provenance_xml()
    about = f"<about>{provenance}</about>" if provenance else ""
    return f"<record>{''.join(header)}{metadata}{about}</record>\n"


def render_pages(records: list[Record], directory: str) -> int:
    """Write ListRecords pages page-N.xml; tokens are 'pN'. Returns page count."""
    os.makedirs(directory, exist_ok=True)
    total = len(records)
    pages = max(1, -(-total // UPSTREAM_PAGE_SIZE))
    for page in range(pages):
        start = page * UPSTREAM_PAGE_SIZE
        chunk = records[start : start + UPSTREAM_PAGE_SIZE]
        if page == 0:
            request = '<request verb="ListRecords" metadataPrefix="oai_dc">'
        else:
            request = f'<request verb="ListRecords" resumptionToken="p{page}">'
        next_token = f"p{page + 1}" if page + 1 < pages else ""
        token = (f'<resumptionToken completeListSize="{total}" cursor="{start}">'
                 f"{next_token}</resumptionToken>")
        body = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<OAI-PMH xmlns="{OAI_NS}" xmlns:xsi="{XSI_NS}" '
            f'xsi:schemaLocation={quoteattr(OAI_NS + " " + OAI_NS + "OAI-PMH.xsd")}>\n'
            "<responseDate>2007-06-01T00:00:00Z</responseDate>\n"
            f"{request}{ORIGIN_BASE_URL}</request>\n<ListRecords>\n"
            + "".join(_record_xml(record) for record in chunk)
            + f"{token}\n</ListRecords>\n</OAI-PMH>\n"
        )
        with open(os.path.join(directory, f"page-{page}.xml"), "w", encoding="utf-8") as handle:
            handle.write(body)
    return pages
