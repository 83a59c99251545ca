"""Independent dense oracle for the similarity engine, plus corpus builders.

The oracle recomputes tf-idf/cosine with numpy over dense matrices, sharing
no code with the engine under test, so agreement between the two is a real
cross-check rather than a tautology. top_k is the plain full-sort ranking
that the engine's bounded heaps must reproduce, and parse_duration reads the
rendered runtime projections back into seconds.
"""

from __future__ import annotations

import random

import numpy as np

from simharvest.records import MetadataRecord, SimilarityMatch
from simharvest.similarity import VectorSpaceModel, cosine_similarity
from simharvest.textpipe import TermFrequencyVector

WORDS = (
    "pressure tire friction runway landing gear shuttle orbiter nose wheel "
    "velocity yaw angle test track surface wet dry concrete cornering force "
    "model wind tunnel mach flow boundary layer transition turbulent laminar "
    "heating thermal protection system reentry trajectory control actuator "
    "aileron rudder elevator flap spoiler lift drag moment pitch roll "
    "structure composite aluminum titanium fatigue crack growth fracture "
    "panel stiffener buckling load spectrum engine turbine compressor blade "
    "combustor nozzle inlet fan rotor stator propulsion fuel hydrogen "
    "oxygen cryogenic tank insulation acoustic noise vibration flutter "
    "damping stiffness sensor telemetry antenna radar lidar measurement "
    "calibration uncertainty algorithm simulation numerical finite element "
    "grid solver convergence residual experiment instrument camera image "
    "spectrum data archive report memorandum appendix figure table analysis"
).split()


def random_counts(rng: random.Random, vocabulary, low: int, high: int) -> dict:
    counts: dict[str, int] = {}
    for _ in range(rng.randint(low, high)):
        term = rng.choice(vocabulary)
        counts[term] = counts.get(term, 0) + 1
    return counts


def random_corpus(
    rng: random.Random,
    n_docs: int,
    vocab_size: int = 120,
    low: int = 5,
    high: int = 40,
    id_prefix: str = "oai:corpus.example:doc",
) -> list[TermFrequencyVector]:
    vocabulary = [f"term{i:04d}" for i in range(vocab_size)]
    return [
        TermFrequencyVector(
            f"{id_prefix}{i:05d}", random_counts(rng, vocabulary, low, high)
        )
        for i in range(n_docs)
    ]


def synthetic_records(
    rng: random.Random,
    n_docs: int,
    id_prefix: str = "oai:repo.example:item",
    words_per_doc: int = 24,
    set_choices: tuple[str, ...] = (),
    origin_url: str | None = None,
) -> list[MetadataRecord]:
    """Plausible Dublin Core records with random English-ish text."""
    records = []
    for i in range(n_docs):
        title = " ".join(rng.choice(WORDS) for _ in range(6))
        description = " ".join(rng.choice(WORDS) for _ in range(words_per_doc - 6))
        day = rng.randint(1, 28)
        month = rng.randint(1, 12)
        fields = [
            ("title", title.capitalize()),
            ("creator", f"Author {rng.randint(1, 200):03d}"),
            ("description", description),
            ("date", f"200{rng.randint(0, 6)}-{month:02d}-{day:02d}"),
            ("identifier", f"{id_prefix}{i:05d}"),
        ]
        provenance = ()
        if origin_url is not None:
            provenance = (
                '<provenance xmlns="http://www.openarchives.org/OAI/2.0/provenance">'
                f'<originDescription harvestDate="2006-01-01T00:00:00Z" altered="false">'
                f"<baseURL>{origin_url}</baseURL>"
                f"<identifier>{id_prefix}{i:05d}</identifier>"
                "</originDescription></provenance>",
            )
        records.append(
            MetadataRecord(
                identifier=f"{id_prefix}{i:05d}",
                datestamp=f"200{rng.randint(0, 6)}-{month:02d}-{day:02d}T"
                f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}Z",
                set_specs=(rng.choice(set_choices),) if set_choices else (),
                dc_fields=tuple(fields),
                provenance=provenance,
            )
        )
    return records


def dense_similarity(corpus) -> tuple[list[str], np.ndarray]:
    """Reference all-pairs cosine matrix: dense tf-idf, ln idf, row-normalized."""
    ids = sorted(tf.identifier for tf in corpus)
    by_id = {tf.identifier: tf for tf in corpus}
    vocabulary = sorted({term for tf in corpus for term in tf.counts})
    column = {term: j for j, term in enumerate(vocabulary)}
    counts = np.zeros((len(ids), len(vocabulary)))
    for row, identifier in enumerate(ids):
        for term, count in by_id[identifier].counts.items():
            counts[row, column[term]] = count
    present = counts > 0
    df = present.sum(axis=0)
    idf = np.log(len(ids) / df)
    weights = counts * idf
    norms = np.linalg.norm(weights, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = weights / safe[:, None]
    scores = np.clip(unit @ unit.T, 0.0, 1.0)
    return ids, scores


def oracle_pairs(corpus) -> list[tuple[str, str, float]]:
    """Upper-triangle (id_a, id_b, score) rows in the engine's order."""
    ids, scores = dense_similarity(corpus)
    rows = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            rows.append((ids[i], ids[j], float(scores[i, j])))
    return rows


def oracle_top_k(corpus, identifier: str, k: int) -> list[tuple[str, float]]:
    ids, scores = dense_similarity(corpus)
    row = ids.index(identifier)
    candidates = [
        (ids[j], float(scores[row, j])) for j in range(len(ids)) if j != row
    ]
    candidates.sort(key=lambda item: (-item[1], item[0]))
    return candidates[:k]


def top_k(model: VectorSpaceModel, identifier: str, k: int) -> list[SimilarityMatch]:
    """The k best matches of one fitted document by full sort: score
    descending, then identifier ascending, the document itself excluded."""
    subject = model.vectors_[identifier]
    scored = sorted(
        (-cosine_similarity(subject, model.vectors_[other]), other)
        for other in model.identifiers_
        if other != identifier
    )
    return [SimilarityMatch(other, -negated) for negated, other in scored[:k]]


def parse_duration(text: str) -> int:
    """Inverse of format_duration: total whole seconds of a rendered duration."""
    sizes = {
        "year": 365 * 86400,
        "day": 86400,
        "hour": 3600,
        "minute": 60,
        "second": 1,
    }
    total = 0
    for part in text.split("-"):
        number, unit = part.strip().split(" ", 1)
        total += int(number) * sizes[unit.rstrip("s")]
    return total
