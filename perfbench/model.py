"""The benchmark's own record of what the file system should answer.

Nothing here imports the program: names are sets of ``TAG/value`` strings,
full text is a word count per document (the vocabulary is built so the
analyzer maps every word to itself), and BM25 is recomputed from those
counts with the program's documented parameters (k1=1.5, b=0.75, the
``log(1 + (N - df + .5) / (df + .5))`` idf).  The ``check_*`` functions
compare one answer against it and return a reason string on mismatch,
``None`` when the answer is right.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

K1 = 1.5
B = 0.75
SCORE_TOL = 1e-9


class Model:
    """Names, contents and term counts of every live document, by oid."""

    def __init__(self) -> None:
        self.content: Dict[int, bytes] = {}
        self.names: Dict[int, Set[str]] = {}
        self.tf: Dict[int, Counter] = {}
        self.length: Dict[int, int] = {}
        self.postings: Dict[str, Set[int]] = {}  # "TAG/value" -> oids
        #: manual FULLTEXT terms, counted as one more token each; they
        #: survive a re-index of the content
        self.manual: Dict[int, Counter] = {}
        self.total_tokens = 0

    # -- mutations -----------------------------------------------------------

    def _name(self, oid: int, pair: str, present: bool) -> None:
        holders = self.postings.setdefault(pair, set())
        if present:
            holders.add(oid)
            self.names[oid].add(pair)
        else:
            holders.discard(oid)
            self.names[oid].discard(pair)

    def _index(self, oid: int, text: bytes) -> None:
        for term in self.tf.get(oid, ()):
            self._name(oid, f"FULLTEXT/{term}", False)
        self.total_tokens -= self.length.get(oid, 0)
        words = text.decode().split()
        manual = self.manual.get(oid, Counter())
        self.tf[oid] = Counter(words) + manual
        self.length[oid] = len(words) + sum(manual.values())
        self.total_tokens += self.length[oid]
        for term in self.tf[oid]:
            self._name(oid, f"FULLTEXT/{term}", True)

    def create(self, oid: int, doc) -> None:
        self.content[oid] = doc.content
        self.names[oid] = set()
        pairs = [f"USER/{doc.owner}"] + [f"UDEF/{t}" for t in doc.tags]
        pairs += [f"UDEF/{a}" for a in doc.annotations]
        if doc.application:
            pairs.append(f"APP/{doc.application}")
        for pair in pairs:
            self._name(oid, pair, True)
        self._index(oid, doc.content)

    def append(self, oid: int, data: bytes) -> None:
        self.content[oid] += data
        self._index(oid, self.content[oid])

    def delete(self, oid: int) -> None:
        for pair in list(self.names.pop(oid)):
            self.postings[pair].discard(oid)
        self.total_tokens -= self.length.pop(oid)
        del self.tf[oid], self.content[oid]
        self.manual.pop(oid, None)

    def tag(self, oid: int, pair: str) -> None:
        self._name(oid, pair, True)

    def add_term(self, oid: int, term: str) -> None:
        """A manual FULLTEXT term the program kept: one more occurrence of
        ``term`` in the document, which later content re-indexes keep."""
        self.manual.setdefault(oid, Counter())[term] += 1
        self._index(oid, self.content[oid])

    def untag(self, oid: int, pair: str) -> bool:
        had = pair in self.names[oid]
        self._name(oid, pair, False)
        return had

    # -- answers -------------------------------------------------------------

    def holders(self, pair: str) -> Set[int]:
        return self.postings.get(pair, set())

    def find(self, pairs: Sequence[str]) -> Set[int]:
        result = set(self.holders(pairs[0]))
        for pair in pairs[1:]:
            result &= self.holders(pair)
        return result

    def query(self, spec: Tuple) -> Set[int]:
        first = self.holders(spec[1])
        if spec[0] == "and":
            return first & self.holders(spec[2])
        if spec[0] == "and_or":
            return first & (self.holders(spec[2]) | self.holders(spec[3]))
        return first - self.holders(spec[2])

    def scores(self, text: str, visible: Optional[Set[int]] = None) -> Dict[int, float]:
        """BM25 of every matching document, over ``visible`` docs (all if None)."""
        docs = self.length if visible is None else {o: self.length[o] for o in visible}
        if not docs:
            return {}
        total = len(docs)
        average = sum(docs.values()) / total
        scores: Dict[int, float] = {}
        for term in text.split():
            matching = [o for o in self.holders(f"FULLTEXT/{term}") if o in docs]
            if not matching:
                continue
            df = len(matching)
            idf = math.log(1.0 + (total - df + 0.5) / (df + 0.5))
            for oid in matching:
                tf = self.tf[oid][term]
                norm = tf + K1 * (1 - B + B * (docs[oid] or 1) / average)
                scores[oid] = scores.get(oid, 0.0) + idf * (tf * (K1 + 1)) / norm
        return scores


# -- checkers ------------------------------------------------------------------


def check_set(kind: str, answer: Iterable[int], expected: Set[int]) -> Optional[str]:
    got = list(answer)
    if len(got) != len(set(got)):
        return f"{kind}: duplicate oids in answer"
    missing = expected - set(got)
    extra = set(got) - expected
    if missing or extra:
        return (f"{kind}: missing {sorted(missing)[:5]} extra {sorted(extra)[:5]} "
                f"({len(got)} answered, {len(expected)} expected)")
    return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_TOL * max(1.0, abs(a), abs(b))


def check_rank(hits: Sequence[Tuple[int, float]], scores: Dict[int, float],
               limit: int) -> Optional[str]:
    """Top-``limit`` BM25: right length, right scores, non-increasing, and no
    document scoring above the k-th answer left out (ties at k are free)."""
    if len(hits) != min(limit, len(scores)):
        return f"rank: {len(hits)} hits, expected {min(limit, len(scores))}"
    for i, (oid, score) in enumerate(hits):
        if oid not in scores:
            return f"rank: oid {oid} does not match the query"
        if not _close(score, scores[oid]):
            return f"rank: oid {oid} scored {score}, expected {scores[oid]}"
        if i and score > hits[i - 1][1] and not _close(score, hits[i - 1][1]):
            return f"rank: scores not in descending order at {i}"
    if hits:
        floor = hits[-1][1]
        chosen = {oid for oid, _ in hits}
        for oid, score in scores.items():
            if oid not in chosen and score > floor and not _close(score, floor):
                return f"rank: oid {oid} ({score}) outranks the answer's last hit"
    return None


def check_read(oid: int, data: bytes, expected: bytes) -> Optional[str]:
    if data != expected:
        return f"read {oid}: {len(data)} bytes differ from the {len(expected)} written"
    return None


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (sorted here)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]
