"""Seeded input generation for the hFAD benchmark.

Everything a run feeds the file system is made here, from ``--seed``, before
set-up is timed.  The program only ever sees the generated bytes, tags and
query strings.

Vocabulary: every word is a consonant-vowel triple (``bakedo``) over
consonants that never spell an English suffix and ending in a vowel, so the
analyzer's stop-word list and light stemmer map each word to itself.  Probe
words (``x...``) and probe-document words (``q...``) use letters the main
vocabulary never starts with, so no other answer depends on them.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

CONSONANTS = "bdfgklmnprtvz"
VOWELS = "aiou"
VOCAB_SIZE = 4000
ZIPF_S = 1.0
#: query terms come from this band of the Zipf ranks: words that a few to a
#: few tens of percent of documents contain, so no query hits nearly all of
#: them and per-query cost varies smoothly rather than in two modes
QUERY_BAND = (20, 400)
USERS = [f"user{c}" for c in "abcdefgh"]
APPS = ["mailer", "editor", "scanner"]
TAG_VALUES = 60
FOLDERS = ["inbox", "sent", "work", "home", "travel", "bills"]

#: round make-up per workload: how many operations of each kind one round
#: attempts.  A run always ends on a round boundary, so every share below is
#: exact in every run.
INGEST_ROUND = {"create": 17, "append": 2, "delete": 1}
SEARCH_ROUND = {"find": 12, "query": 12, "rank": 12, "read": 9,
                "tag": 1, "untag": 1, "create": 2, "delete": 2, "probe": 1}
SERVED_ROUND = {"create": 10, "find": 3, "query": 3, "rank": 2, "read": 2}  # writer | reader

#: ingest formats a fresh device every this many rounds, so the store a
#: create meets grows over the same range in every run, however fast it is
INGEST_CYCLE_ROUNDS = 12
INGEST_CYCLES = 4  # distinct cycles per run, taken in turn
SEARCH_CORPUS_DOCS = 300
SERVED_CORPUS_DOCS = 40
PROBE_DOCS = 8
#: distinct find / query / rank requests each workload draws from
SEARCH_POOL = 2000
SERVED_POOL = 600
POOL_ZIPF_S = 0.5
#: creates after a checkpoint and before a power cut: the tail a timed mount
#: replays (ingest: every cycle; search and served: the set-up image they
#: mount during the loop), all of one length so every seed replays alike
INGEST_TAIL = 3
IMAGE_TAIL = 3
TAIL_WORDS = (75, 75)
#: served: creates after the loop's closing checkpoint, before the audited crash
SERVED_TAIL = 4
AUDIT_QUERIES = 125  # per kind (find/query/rank) on search's and served's remounted copy
INGEST_AUDIT_QUERIES = 300  # per kind, on every ingest cycle's remounted copy
#: served: the pair of requests waits a seeded 0..10 ms before it is sent
#: (the idle-flush interval), so a lone create's wait for the next flush
#: tick is spread evenly instead of locking onto one phase of the tick
SERVED_THINK_S = 0.010


def _words(first_letters: str, count: int, rng: random.Random) -> List[str]:
    pool = sorted({a + v1 + b + v2 + c + v3
                   for a in first_letters for b in CONSONANTS for c in CONSONANTS
                   for v1 in VOWELS for v2 in VOWELS for v3 in VOWELS})
    return rng.sample(pool, count)


#: the fixed vocabularies (seed-independent; the seed only picks frequencies).
MAIN_WORDS = _words(CONSONANTS, VOCAB_SIZE, random.Random(12))
PROBE_DOC_WORDS = _words("q", 40, random.Random(13))
PROBE_WORDS = _words("x", 4000, random.Random(14))


class Zipf:
    """Draw items with probability proportional to 1 / rank**s."""

    def __init__(self, items: List, s: float, rng: random.Random) -> None:
        self.items = items
        self.rng = rng
        self.cum = list(itertools.accumulate(1.0 / (k + 1) ** s
                                             for k in range(len(items))))

    def draw(self):
        return self.items[bisect.bisect_left(self.cum,
                                             self.rng.random() * self.cum[-1])]


@dataclass
class Doc:
    """One document the benchmark creates, as the program is told it."""

    content: bytes
    owner: str
    tags: List[str]            # UDEF values
    path: Optional[str] = None
    application: Optional[str] = None
    annotations: List[str] = field(default_factory=list)


class Generator:
    """All seeded draws of one run."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        ranked = list(MAIN_WORDS)
        self.rng.shuffle(ranked)
        self.words = Zipf(ranked, ZIPF_S, self.rng)
        self.query_words = ranked[QUERY_BAND[0]:QUERY_BAND[1]]
        tags = [f"tag{i}" for i in range(TAG_VALUES)]
        self.rng.shuffle(tags)
        self.tags = Zipf(tags, ZIPF_S, self.rng)
        self.serial = 0

    def text(self, low: int, high: int) -> bytes:
        count = self.rng.randint(low, high)
        return " ".join(self.words.draw() for _ in range(count)).encode()

    def doc(self, low: int = 30, high: int = 120) -> Doc:
        self.serial += 1
        tags = sorted({self.tags.draw() for _ in range(self.rng.randint(1, 2))})
        return Doc(
            content=self.text(low, high),
            owner=self.rng.choice(USERS),
            tags=tags,
            path=f"/mail/{self.rng.choice(FOLDERS)}/{self.serial}.eml",
            application=self.rng.choice(APPS),
            annotations=[self.rng.choice(("urgent", "later", "keep"))],
        )

    # -- query specs: ("pairs", [...]) for find, a tree for query, terms for rank

    def pair(self, text_share: float = 0.4) -> str:
        roll = self.rng.random()
        if roll < text_share:
            return f"FULLTEXT/{self.rng.choice(self.query_words)}"
        if roll < text_share + 0.15:
            return f"USER/{self.rng.choice(USERS)}"
        return f"UDEF/{self.tags.draw()}"

    def find_spec(self) -> List[str]:
        pairs = {self.pair()}
        while len(pairs) < self.rng.randint(1, 2):
            pairs.add(self.pair())
        return sorted(pairs)

    def query_spec(self) -> Tuple:
        a, b, c = self.pair(), self.pair(0.6), self.pair(0.6)
        shape = self.rng.randrange(3)
        if shape == 0:
            return ("and", a, b)
        if shape == 1:
            return ("and_or", a, b, c)
        return ("and_not", a, b)

    def rank_spec(self) -> str:
        terms: List[str] = []
        while len(terms) < self.rng.randint(1, 3):
            word = self.rng.choice(self.query_words)
            if word not in terms:
                terms.append(word)
        return " ".join(terms)


def query_text(spec: Tuple) -> str:
    """The textual boolean query for a spec from :meth:`Generator.query_spec`."""
    if spec[0] == "and":
        return f"{spec[1]} AND {spec[2]}"
    if spec[0] == "and_or":
        return f"{spec[1]} AND ({spec[2]} OR {spec[3]})"
    return f"{spec[1]} AND NOT {spec[2]}"


def popular(make, gen: Generator, distinct: int) -> Zipf:
    """A Zipf-popular pool of ``distinct`` specs made by ``make()``, so some
    requests repeat (the query and ranked caches see real hits)."""
    return Zipf([make() for _ in range(distinct)], POOL_ZIPF_S, gen.rng)


def _targets_exist(kinds: List[str], live: int) -> bool:
    for kind in kinds:
        if kind != "create" and live == 0:
            return False
        live += {"create": 1, "delete": -1}.get(kind, 0)
    return True


def ingest_round(gen: Generator, live: List[int], next_index: List[int]) -> List[Tuple]:
    """One ingest round: creates with a minority of appends and deletes.

    Targets are creation indices (mapped to oids at run time); ``live``
    tracks which indices exist, so no append or delete misses.
    """
    kinds = [k for k, n in INGEST_ROUND.items() for _ in range(n)]
    gen.rng.shuffle(kinds)
    # a round starts with a create, and no append or delete meets an empty store
    while kinds[0] != "create" or not _targets_exist(kinds, len(live)):
        gen.rng.shuffle(kinds)
    ops: List[Tuple] = []
    for kind in kinds:
        if kind == "create":
            ops.append(("create", next_index[0], gen.doc()))
            live.append(next_index[0])
            next_index[0] += 1
        elif kind == "append":
            ops.append(("append", gen.rng.choice(live), b" " + gen.text(3, 12)))
        else:
            victim = live.pop(gen.rng.randrange(len(live)))
            ops.append(("delete", victim))
    return ops


def search_round(gen: Generator, pools: Dict[str, Zipf], corpus: int,
                 next_new: List[int], probe_serial: List[int]) -> List[Tuple]:
    """One search round: ~9 in 10 reads, the rest tag/untag/create/delete/probe.

    ``corpus`` documents exist from set-up (creation indices 0..corpus-1);
    new documents are numbered from ``next_new``.  The round's creates are
    transient: it ends by deleting them, so the store every round meets has
    the same size however many rounds a run gets through.  A read names a
    corpus document or one of the round's creates made before it.  ``tag``
    adds a Zipf-drawn UDEF value to a corpus document and the round's
    ``untag`` removes it again (a no-op answering False when it comes
    first), so finds and queries see the naming change.
    """
    kinds = [k for k, n in SEARCH_ROUND.items() if k != "delete" for _ in range(n)]
    gen.rng.shuffle(kinds)
    ops: List[Tuple] = []
    tagged: List[Tuple[int, str]] = []
    made: List[int] = []
    for kind in kinds:
        if kind == "find":
            ops.append(("find", pools["find"].draw()))
        elif kind == "query":
            ops.append(("query", pools["query"].draw()))
        elif kind == "rank":
            ops.append(("rank", pools["rank"].draw()))
        elif kind == "read":
            pick = gen.rng.randrange(corpus + len(made))
            ops.append(("read", pick if pick < corpus else made[pick - corpus]))
        elif kind == "create":
            made.append(next_new[0])
            ops.append(("create", next_new[0], gen.doc(8, 20)))
            next_new[0] += 1
        elif kind == "tag":
            target = gen.rng.randrange(corpus)
            value = gen.tags.draw()
            tagged.append((target, value))
            ops.append(("tag", target, value))
        elif kind == "untag":
            ops.append(("untag_pending",))
        else:
            # probes are seed-independent: fixed document, fixed fresh word
            serial = probe_serial[0]
            probe_serial[0] += 1
            ops.append(("probe", serial % PROBE_DOCS, PROBE_WORDS[serial % len(PROBE_WORDS)],
                        f" {PROBE_DOC_WORDS[serial % len(PROBE_DOC_WORDS)]}".encode()))
    # An untag removes the round's tag; placed before its tag it is a no-op
    # that must answer False, which the checker verifies just the same.
    pending = list(tagged)
    for i, op in enumerate(ops):
        if op[0] == "untag_pending":
            target, value = pending.pop(0)
            ops[i] = ("untag", target, value)
    return ops + [("delete", index) for index in made]


def probe_doc(index: int) -> Doc:
    words = [PROBE_DOC_WORDS[(index * 7 + k) % len(PROBE_DOC_WORDS)] for k in range(12)]
    return Doc(content=" ".join(words).encode(), owner="prober", tags=["probe"])


def served_round(gen: Generator, pools: Dict[str, Zipf]
                 ) -> Tuple[List[Tuple], List[Tuple], List[float]]:
    """One served round: the writer connection's creates, the reader
    connection's finds, queries, ranks and reads, as many of each, and the
    think time before each pair."""
    writes = [("create", gen.doc(10, 30)) for _ in range(SERVED_ROUND["create"])]
    kinds = [k for k, n in SERVED_ROUND.items() if k != "create" for _ in range(n)]
    gen.rng.shuffle(kinds)
    reads: List[Tuple] = []
    for kind in kinds:
        if kind == "read":
            reads.append(("read", gen.rng.random()))  # scaled to the live count at run time
        else:
            reads.append((kind, pools[kind].draw()))
    thinks = [gen.rng.uniform(0.0, SERVED_THINK_S) for _ in writes]
    return writes, reads, thinks
