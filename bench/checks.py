"""Checks of the program's outputs against computations made apart from it.

The oracle recomputes every tf-idf cosine with scipy.sparse from the
generator's own term counts; stored trees are read as plain files and XML is
parsed with ``xml.etree`` only. No check imports the program. Each function
returns a list of failure messages, empty when the output is right.
"""

from __future__ import annotations

import os
from urllib.parse import unquote

import numpy as np
import scipy.sparse as sp
import xml.etree.ElementTree as ET

from corpus import ORIGIN_BASE_URL

OAI = "{http://www.openarchives.org/OAI/2.0/}"
OAI_DC = "{http://www.openarchives.org/OAI/2.0/oai_dc/}"
PROVENANCE = "{http://www.openarchives.org/OAI/2.0/provenance}"
SIMILARITY = "{urn:simharvest:similarity}"
# Scores are rendered with four decimals; allow the rounding plus float noise.
TOLERANCE = 0.5e-4 + 1e-9


class Oracle:
    """All-pairs tf-idf cosine (weight = tf * ln(N/df)) of generated records."""

    def __init__(self, records):
        self.records = {record.identifier: record for record in records}
        self.ids = sorted(self.records)
        self.index = {identifier: i for i, identifier in enumerate(self.ids)}
        columns: dict[str, int] = {}
        rows, cols, values = [], [], []
        for i, identifier in enumerate(self.ids):
            for term, count in self.records[identifier].counts.items():
                rows.append(i)
                cols.append(columns.setdefault(term, len(columns)))
                values.append(count)
        n = len(self.ids)
        counts = sp.csr_matrix(
            (np.array(values, dtype=float), (rows, cols)), shape=(n, len(columns))
        )
        df = np.bincount(np.array(cols), minlength=len(columns))
        weights = counts @ sp.diags(np.log(n / df))
        norms = np.sqrt(np.asarray(weights.multiply(weights).sum(axis=1)).ravel())
        inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        unit = sp.diags(inverse) @ weights
        self.scores = np.clip((unit @ unit.T).toarray(), 0.0, 1.0)

    def best(self, identifier: str, k: int) -> np.ndarray:
        i = self.index[identifier]
        row = np.delete(self.scores[i], i)
        return np.sort(row)[::-1][:k]

    def ranked_failures(self, subject: str, matches, k: int) -> list[str]:
        """matches: [(identifier, score)] must be the k best, non-increasing."""
        failures = []
        want = min(k, len(self.ids) - 1)
        if len(matches) != want:
            failures.append(f"{subject}: {len(matches)} matches, expected {want}")
        row = self.scores[self.index[subject]]
        seen = set()
        previous = 2.0
        for other, score in matches:
            if other == subject or other in seen or other not in self.index:
                failures.append(f"{subject}: bad or repeated match {other}")
                continue
            seen.add(other)
            if score > previous:
                failures.append(f"{subject}: scores increase at {other}")
            previous = score
            if abs(score - row[self.index[other]]) > TOLERANCE:
                failures.append(
                    f"{subject}~{other}: score {score} but oracle {row[self.index[other]]:.6f}"
                )
        listed = np.sort(np.array([score for _, score in matches]))[::-1]
        best = self.best(subject, want)
        if len(listed) == len(best) and np.any(np.abs(listed - best) > TOLERANCE):
            failures.append(f"{subject}: matches are not the oracle's {want} best")
        return failures


# -- store trees --------------------------------------------------------------


def signature(element: ET.Element):
    """Element content with insignificant whitespace left out."""
    return (
        element.tag,
        tuple(sorted(element.attrib.items())),
        (element.text or "").strip(),
        tuple(signature(child) for child in element),
    )


def parse_record(element: ET.Element) -> dict:
    header = element.find(f"{OAI}header")
    fields = []
    dc = element.find(f"{OAI}metadata/{OAI_DC}dc")
    if dc is not None:
        fields = [(child.tag.split("}", 1)[1], child.text or "") for child in dc]
    abouts = [child for about in element.findall(f"{OAI}about") for child in about]
    return {
        "identifier": (header.findtext(f"{OAI}identifier") or "").strip(),
        "datestamp": (header.findtext(f"{OAI}datestamp") or "").strip(),
        "sets": tuple((s.text or "").strip() for s in header.findall(f"{OAI}setSpec")),
        "fields": tuple(fields),
        "provenance": [signature(a) for a in abouts if a.tag == f"{PROVENANCE}provenance"],
        "similarity": [a for a in abouts if a.tag == f"{SIMILARITY}similarity"],
    }


def record_failures(parsed: dict, record) -> list[str]:
    """A parsed record against its generated source."""
    failures = []
    for key, want in (
        ("identifier", record.identifier),
        ("datestamp", record.datestamp),
        ("sets", record.sets),
        ("fields", record.fields),
    ):
        if parsed[key] != want:
            failures.append(f"{record.identifier}: {key} differs from the source")
    provenance = record.provenance_xml()
    want = [signature(ET.fromstring(provenance))] if provenance else []
    if parsed["provenance"] != want:
        failures.append(f"{record.identifier}: provenance differs from the source")
    return failures


def _mirrored_files(root: str, tree: str, suffix: str) -> dict[str, str]:
    """relative path without suffix -> file path, for one store tree."""
    base = os.path.join(root, tree)
    found = {}
    for bucket in sorted(os.listdir(base)):
        directory = os.path.join(base, bucket)
        if not os.path.isdir(directory):
            continue
        for name in os.listdir(directory):
            if name.endswith(suffix):
                found[f"{bucket}/{name[: -len(suffix)]}"] = os.path.join(directory, name)
    return found


def records_failures(root: str, records) -> list[str]:
    """The records tree holds exactly the generated records, each equal to
    its source."""
    failures = []
    by_id = {record.identifier: record for record in records}
    seen = set()
    for relpath, path in _mirrored_files(root, "records", ".xml").items():
        parsed = parse_record(ET.parse(path).getroot())
        identifier = parsed["identifier"]
        if identifier not in by_id or identifier in seen:
            failures.append(f"records/{relpath}: unexpected identifier {identifier}")
            continue
        seen.add(identifier)
        failures += record_failures(parsed, by_id[identifier])
    missing = set(by_id) - seen
    if missing:
        failures.append(f"store lacks {len(missing)} records, e.g. {sorted(missing)[0]}")
    return failures


def tf_failures(root: str, records) -> list[str]:
    """The tf tree mirrors the records tree, each file holding the generator's
    term counts for the record at the same path."""
    failures = []
    by_id = {record.identifier: record for record in records}
    record_files = _mirrored_files(root, "records", ".xml")
    tf_files = _mirrored_files(root, "tf_metadata", ".tf")
    if set(tf_files) != set(record_files):
        failures.append("tf_metadata/ does not mirror records/")
    for relpath, path in record_files.items():
        identifier = parse_record(ET.parse(path).getroot())["identifier"]
        counts = {}
        if relpath in tf_files:
            with open(tf_files[relpath], encoding="utf-8") as handle:
                for line in handle:
                    term, _, count = line.rstrip("\n").partition("\t")
                    counts[term] = int(count)
        if identifier in by_id and counts != by_id[identifier].counts:
            failures.append(f"tf_metadata/{relpath}: counts differ from the generator's")
    return failures


def pair_file_failures(path: str, oracle: Oracle) -> list[str]:
    """n(n-1)/2 lines in upper-triangle identifier order, oracle scores."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    ids = oracle.ids
    n = len(ids)
    expected = n * (n - 1) // 2
    lines = text.count("\n")
    if lines != expected or (text and not text.endswith("\n")):
        return [f"similarities.txt has {lines} lines, expected {expected}"]
    cells = text[:-1].replace("\n", "\t").split("\t") if text else []
    if len(cells) != 3 * expected:
        return ["similarities.txt lines do not all have three fields"]
    firsts = [ids[i] for i in range(n) for _ in range(n - 1 - i)]
    seconds = [ids[j] for i in range(n) for j in range(i + 1, n)]
    failures = []
    for column, want, name in ((cells[0::3], firsts, "first"), (cells[1::3], seconds, "second")):
        if column != want:
            line = next(i for i, (a, b) in enumerate(zip(column, want)) if a != b)
            failures.append(f"similarities.txt line {line + 1}: {name} identifier out of order")
    rendered = cells[2::3]
    malformed = [i for i, s in enumerate(rendered) if len(s) != 6 or s[1] != "."]
    if malformed:
        failures.append(f"similarities.txt line {malformed[0] + 1}: score not four-decimal")
        return failures
    scores = np.array(rendered, dtype=float)
    truth = oracle.scores[np.triu_indices(n, 1)]
    wrong = np.flatnonzero(np.abs(scores - truth) > TOLERANCE)
    if len(wrong):
        i = int(wrong[0])
        failures.append(
            f"similarities.txt line {i + 1}: score {rendered[i]} but oracle {truth[i]:.6f}"
            f" ({len(wrong)} lines wrong)"
        )
    return failures


def top_matches_failures(root: str, oracle: Oracle, k: int) -> list[str]:
    directory = os.path.join(root, "top_matches")
    names = {unquote(name): name for name in os.listdir(directory)}
    failures = []
    if set(names) != set(oracle.ids):
        failures.append("top_matches/ does not hold one file per record")
    for identifier, name in names.items():
        if identifier not in oracle.index:
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            matches = []
            for line in handle:
                other, _, score = line.rstrip("\n").partition("\t")
                matches.append((other, float(score)))
        failures += oracle.ranked_failures(identifier, matches, k)
    return failures


def expected_linked(a, b) -> bool:
    """The documented rule: one names the other, or both name one origin."""
    named_a = {a.origin} if a.origin else set()
    named_b = {b.origin} if b.origin else set()
    urls_a = {ORIGIN_BASE_URL} if a.origin else set()
    urls_b = {ORIGIN_BASE_URL} if b.origin else set()
    return b.identifier in named_a or a.identifier in named_b or bool(urls_a & urls_b)


def duplicate_report_failures(path: str, oracle: Oracle, duplicates, threshold: float) -> list[str]:
    """Every injected copy is reported and flagged; nothing below threshold is;
    every pair the oracle puts clearly above it is; best first."""
    failures = []
    reported = {}
    previous = 2.0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            id_a, id_b, score, linked = line.rstrip("\n").split("\t")
            score = float(score)
            if score > previous:
                failures.append(f"duplicate report not best-first at {id_a} {id_b}")
            previous = score
            reported[tuple(sorted((id_a, id_b)))] = (score, linked == "1")
    records = oracle.records
    for pair, (score, linked) in reported.items():
        if pair[0] not in oracle.index or pair[1] not in oracle.index:
            failures.append(f"duplicate report names unknown records {pair}")
            continue
        truth = oracle.scores[oracle.index[pair[0]], oracle.index[pair[1]]]
        if truth < threshold - TOLERANCE or abs(truth - score) > TOLERANCE:
            failures.append(f"duplicate report {pair}: {score} but oracle {truth:.6f}")
        if linked != expected_linked(records[pair[0]], records[pair[1]]):
            failures.append(f"duplicate report {pair}: wrong provenance flag")
    for original, copy in duplicates:
        entry = reported.get(tuple(sorted((original, copy))))
        if entry is None or not entry[1]:
            failures.append(f"injected duplicate {copy} of {original} not reported as linked")
    upper = np.triu(oracle.scores, 1)
    for i, j in zip(*np.nonzero(upper >= threshold + TOLERANCE)):
        if (oracle.ids[i], oracle.ids[j]) not in reported:
            failures.append(f"pair {oracle.ids[i]} {oracle.ids[j]} above threshold not reported")
            break
    return failures


# -- served responses --------------------------------------------------------


def parse_response(body: bytes):
    """(root element, error codes, verb payload element or None)."""
    root = ET.fromstring(body)
    errors = [error.get("code") for error in root.findall(f"{OAI}error")]
    payload = None
    for child in root:
        if child.tag not in (f"{OAI}responseDate", f"{OAI}request", f"{OAI}error"):
            payload = child
    return root, errors, payload


def get_record_failures(body: bytes, record, oracle: Oracle | None, k: int) -> list[str]:
    """The served record equals its source; with an oracle (fresh results) its
    <about> similarity holds the k best matches, without one it is absent."""
    _, errors, payload = parse_response(body)
    if errors or payload is None or payload.tag != f"{OAI}GetRecord":
        return [f"GetRecord {record.identifier}: errors {errors}"]
    parsed = parse_record(payload.find(f"{OAI}record"))
    failures = record_failures(parsed, record)
    similarity = parsed["similarity"]
    if oracle is None:
        if similarity:
            failures.append(f"GetRecord {record.identifier}: stale result carries <about>")
        return failures
    if len(similarity) != 1:
        return failures + [f"GetRecord {record.identifier}: no similarity <about>"]
    element = similarity[0]
    if element.get("subject") != record.identifier:
        failures.append(f"GetRecord {record.identifier}: similarity subject differs")
    matches = [
        (match.get("identifier"), float(match.get("score")))
        for match in element.findall(f"{SIMILARITY}match")
    ]
    return failures + oracle.ranked_failures(record.identifier, matches, k)


def list_page(body: bytes, verb: str):
    """(error codes, [parsed record or header], token, completeListSize, cursor).

    The token is None when the page has no resumptionToken element and ""
    when the element is empty, as on the last page of a list."""
    _, errors, payload = parse_response(body)
    if errors:
        return errors, [], None, None, None
    if payload is None or payload.tag != f"{OAI}{verb}":
        return ["wrong payload"], [], None, None, None
    if verb == "ListRecords":
        items = [parse_record(element) for element in payload.findall(f"{OAI}record")]
    else:
        items = [
            {"identifier": (h.findtext(f"{OAI}identifier") or "").strip(),
             "datestamp": (h.findtext(f"{OAI}datestamp") or "").strip()}
            for h in payload.findall(f"{OAI}header")
        ]
    token = payload.find(f"{OAI}resumptionToken")
    if token is None:
        return [], items, None, None, None
    size = token.get("completeListSize")
    cursor = token.get("cursor")
    return (
        [],
        items,
        (token.text or "").strip(),
        int(size) if size is not None else None,
        int(cursor) if cursor is not None else None,
    )


def walk_failures(pages, verb: str, expected_ids, current: dict) -> tuple[list[str], bool]:
    """Check one complete list walk, given its pages as list_page parsed them.

    Every page that hands out a token must carry completeListSize and cursor;
    the size must equal the expected count and the cursor the number of items
    before the page. The walk must return each expected identifier once, and
    each item must agree with its source in ``current``. Returns the failures
    and whether a multi-page walk ended without the empty token that OAI-PMH
    asks for on its last page (the program omits it; see CHANGES.md)."""
    failures: list[str] = []
    seen: list[str] = []
    sized = False
    for errors, items, token, size, cursor in pages:
        if errors:
            return [f"{verb} walk: errors {errors}"], False
        if token is not None:
            if token and (size is None or cursor is None):
                failures.append(f"{verb} walk: a resumptionToken lacks completeListSize or cursor")
            if size is not None:
                sized = True
                if size != len(expected_ids):
                    failures.append(f"{verb} walk: completeListSize {size}, expected {len(expected_ids)}")
            if cursor is not None and cursor != len(seen):
                failures.append(f"{verb} walk: cursor {cursor} after {len(seen)} items")
        for item in items:
            seen.append(item["identifier"])
            record = current.get(item["identifier"])
            if record is None:
                continue
            if verb == "ListRecords":
                failures += record_failures(item, record)
            elif item["datestamp"] != record.datestamp:
                failures.append(f"{verb}: datestamp of {record.identifier} differs")
    if len(pages) > 1 and not sized:
        failures.append(f"{verb} walk: {len(pages)} pages, none with completeListSize")
    if len(seen) != len(set(seen)) or sorted(seen) != list(expected_ids):
        failures.append(f"{verb} walk: {len(seen)} items, not each expected one once")
    unterminated = len(pages) > 1 and pages[-1][2] is None
    return failures, unterminated
