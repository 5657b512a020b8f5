"""The three workloads: ``ingest``, ``search`` and ``served``.

Each runs in the production configuration (on-device B+-trees,
``durability="wal"``, telemetry on) and returns a :class:`Run`: latencies per
operation kind, counters read from ``fs.stats()`` outside timed windows, the
number of operations attempted and failed, and every check that did not
hold.  ``report.py`` turns a Run into the printed metrics.
"""

from __future__ import annotations

import asyncio
import base64
import bisect
import gc
import itertools
import os
import random
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import inputs
from inputs import Generator
from model import Model, check_rank, check_read, check_set

SETUPS = {"ingest": 41, "search": 3, "served": 5}
#: search and served mount their crashed set-up image once every this many
#: seconds of the measured loop, so mount_ms is sampled across the run
MOUNT_EVERY_S = 1.0
#: generous round budgets per second of run; a run that exhausts its
#: pre-generated rounds ends early and says so on stderr.
ROUNDS_PER_SECOND = {"search": 40, "served": 25}


@dataclass
class Run:
    workload: str
    latencies: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    setup_s: float = 0.0
    busy_s: float = 0.0          # summed latency of the measured loop's ops
    loop_ops: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    mount_s: List[float] = field(default_factory=list)
    user_bytes: int = 0
    device_bytes_written: int = 0
    space_amp: float = 0.0
    #: fs.stats() deltas summed over the measured phases, and op counts.
    stats: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: traced runs: op kind -> [traced latencies], [untraced latencies]
    traced: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    plain: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    tracer: object = None
    mount_tracer: object = None
    replayed_pages: List[int] = field(default_factory=list)
    wall_s: float = 0.0
    problems: int = 0            # checks that did not hold

    def fail(self, reason: Optional[str]) -> None:
        """Record a check that did not hold (``None`` means it held)."""
        if reason is None:
            return
        self.problems += 1
        if len(self.errors) < 20:
            self.errors.append(reason)


def _fs(**knobs):
    from repro import HFADFileSystem
    return HFADFileSystem(btree_on_device=True, durability="wal", **knobs)


def _quiesce() -> None:
    """Collect, then freeze what survives: the benchmark's inputs, model and
    device copies stay out of the collections timed operations trigger.
    (Unfrozen first, so what an earlier phase froze can still be freed.)"""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def _timed_setups(build: Callable, teardown: Callable, times: int):
    """Run ``build`` ``times`` times; keep the last, report the median time."""
    durations, built = [], None
    for _ in range(times):
        if built is not None:
            teardown(built)
            built = None
        _quiesce()
        started = perf_counter()
        built = build()
        durations.append(perf_counter() - started)
    return built, statistics.median(durations)


def _create(fs, doc) -> int:
    return fs.create(doc.content, path=doc.path, owner=doc.owner,
                     application=doc.application,
                     tags=[("UDEF", t) for t in doc.tags],
                     annotations=doc.annotations)


# -- fs.stats() counters -------------------------------------------------------


def _counters(fs) -> Dict[str, float]:
    """The flat counters the per-layer report needs (read outside timing)."""
    from repro.telemetry import to_jsonable

    s = to_jsonable(fs.stats())
    # stats() reports an empty (len 0) pool or cache as None
    pool = (s["buffer_pool"] or {}).get("totals", {"hits": 0, "misses": 0})
    query = s["query_cache"] or {"hits": 0, "misses": 0}
    ranked = s["ranked_cache"] or {"hits": 0, "misses": 0}
    rec = s["recovery"]
    hists = s["telemetry"]["histograms"]
    attribution = s["telemetry"]["attribution"]
    out = {
        "pool_hits": pool["hits"], "pool_misses": pool["misses"],
        "query_hits": query["hits"], "query_misses": query["misses"],
        "ranked_hits": ranked["hits"], "ranked_misses": ranked["misses"],
        "docs_scored": s["ranked"]["documents_scored"],
        "pruned": s["ranked"]["candidates_pruned"],
        "postings_scanned": s["fulltext_postings_scanned"],
        "kv_scanned": s["keyvalue_entries_scanned"],
        "blocks_read": s["device"]["blocks_read"],
        "blocks_written": s["device"]["blocks_written"],
        "checkpoints": rec["checkpoints"],
        "syncs": rec["journal_syncs"],
        "idle_flushes": rec["idle_flushes"],
        "batch_sum": hists["wal.group_commit.batch_size"]["sum"],
        "batch_count": hists["wal.group_commit.batch_size"]["count"],
        "verifications": s["integrity"]["checksum_verifications"],
        "txn_wait_us": sum(h["sum"] for name, h in hists.items()
                           if name.startswith("lock.wal.txn.") and name.endswith(".wait_us")),
        "create_wal_bytes": sum(rec_["wal_bytes"] for kind, rec_ in attribution.items()
                                if kind in ("create", "serve.create")),
    }
    return out


def _add_delta(run: Run, before: Dict[str, float], after: Dict[str, float]) -> None:
    for key, value in after.items():
        run.stats[key] += value - before[key]


# -- crash, mount, audit ---------------------------------------------------------


def _copy(device):
    """A power cut: the device's blocks as they are, without close()."""
    from repro.storage import BlockDevice

    copy = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    copy.load(device.dump())
    return copy


def _mount(run: Run, image, timed: bool = True):
    """A power cut: mount a copy of the device ``image`` as it is, without
    close() (pool pages and unsynced log are lost).  The mount must replay
    a committed tail; ``timed`` mounts count in ``mount_ms`` (and are traced
    in a traced run)."""
    from repro import HFADFileSystem
    from layers import Tracer

    copy = _copy(image)
    trace = timed and run.tracer is not None
    if trace and run.mount_tracer is None:
        run.mount_tracer = Tracer()
    _quiesce()
    if trace:
        run.mount_tracer.install()
    try:
        started = perf_counter()
        mounted = HFADFileSystem.mount(copy)
        elapsed = perf_counter() - started
    finally:
        if trace:
            run.mount_tracer.remove()
    recovery = mounted.stats()["recovery"]
    if recovery["replayed_transactions"] <= 0:
        run.fail("mount replayed no committed tail")
    if timed:
        run.mount_s.append(elapsed)
        run.replayed_pages.append(recovery["replayed_pages"])
    return mounted


def _crash_image(fs, docs) -> Tuple[object, List[int]]:
    """Checkpoint, create ``docs`` (a fixed tail, so every mount of the
    image replays the same log) and copy the device: the set-up image that
    search and served mount during their loop.  Returns (image, oids)."""
    _checkpoint(fs)
    oids = [_create(fs, doc) for doc in docs]
    fs.recovery.flush_commits()  # group-committed creates are durable first
    return _copy(fs.device), oids


def _mounter(run: Run, image) -> Callable[[], float]:
    """Between rounds: mount ``image`` once every MOUNT_EVERY_S seconds
    (the first time at once).  Returns the seconds it spent."""
    due = [0.0]

    def between() -> float:
        if perf_counter() < due[0]:
            return 0.0
        started = perf_counter()
        _mount(run, image)
        _quiesce()  # the dropped mount is collected here, not in a timed op
        due[0] = perf_counter() + MOUNT_EVERY_S
        return perf_counter() - started
    return between


class _Ops:
    """Times one operation kind at a time, traced or not, in process."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.tracing = False
        self.recording = True

    def call(self, kind: str, fn: Callable, loop: bool = True):
        if not self.recording:
            return fn()
        tracer = self.run.tracer
        scope = tracer.op(kind) if self.tracing else nullcontext()
        with scope:
            started = perf_counter()
            answer = fn()
            elapsed = perf_counter() - started
        self.run.latencies[kind].append(elapsed)
        if tracer is not None:
            (self.run.traced if self.tracing else self.run.plain)[kind].append(elapsed)
        self.run.counts[kind] += 1
        if loop:
            self.run.busy_s += elapsed
            self.run.loop_ops += 1
        return answer

    @contextmanager
    def phase(self, traced: bool):
        """Install the tracer for one round (or audit block) when asked."""
        self.tracing = traced and self.run.tracer is not None
        if self.tracing:
            self.run.tracer.install()
        try:
            yield
        finally:
            if self.tracing:
                self.run.tracer.remove()
                self.tracing = False


def _checkpoint(fs) -> None:
    """The recovery manager's checkpoint, as the automatic ones run it.

    Not ``fs.checkpoint()``: that first persists every pending access time
    in one transaction, which overflows the journal once a few hundred
    objects were read since the last checkpoint.
    """
    fs.recovery.checkpoint()


def _rounds(run: Run, ops: _Ops, fs, rounds: List[List[Tuple]],
            do: Callable[[Tuple], None], deadline: Optional[float] = None,
            between: Callable[[], None] = lambda: None) -> None:
    """Whole rounds, until ``deadline`` (a perf_counter time) if one is
    given, calling ``between`` before each; traced rounds alternate with
    untraced ones.  Device writes and ``fs.stats()`` deltas are added to
    the run."""
    before = _counters(fs)
    device_before = fs.device.stats.blocks_written
    _quiesce()
    for number, ops_of_round in enumerate(rounds):
        if deadline is not None and perf_counter() >= deadline:
            break
        between()
        with ops.phase(traced=number % 2 == 0):
            for op in ops_of_round:
                run.attempted += 1
                do(op)
    else:
        if deadline is not None:
            print(f"{run.workload}: pre-generated rounds exhausted", file=sys.stderr)
    run.device_bytes_written += ((fs.device.stats.blocks_written - device_before)
                                 * fs.device.block_size)
    _add_delta(run, before, _counters(fs))


def _tail(run: Run, ops: _Ops, fs, tail: List[Tuple], do: Callable[[Tuple], None]) -> None:
    """A checkpoint, then the fixed, untimed ``tail``: the crash that
    follows always finds exactly that tail to replay."""
    _checkpoint(fs)
    ops.recording = False
    user_bytes = run.user_bytes
    for op in tail:
        run.attempted += 1
        do(op)
    ops.recording = True
    run.user_bytes = user_bytes


def _audit_queries(run: Run, ops: _Ops, fs, model: Model, specs, reads: List[int],
                   timed: bool) -> None:
    """Check reads and find/query/rank answers of ``fs`` against ``model``;
    with ``timed`` their latencies count as this workload's samples."""
    from repro.index.tags import TagValue

    work: List[Tuple] = ([("read", oid) for oid in reads]
                         + [(kind, spec) for kind in ("find", "query", "rank")
                            for spec in specs[kind]])
    random.Random(len(work)).shuffle(work)  # kinds interleaved, not in runs
    before = _counters(fs)
    _quiesce()
    ops.recording = timed
    for block in range(0, len(work), 10):
        with ops.phase(traced=timed and (block // 10) % 2 == 0):
            for kind, arg in work[block:block + 10]:
                if kind == "read":
                    data = ops.call("read", lambda: fs.read(arg), loop=False)
                    run.fail(check_read(arg, data, model.content[arg]))
                elif kind == "find":
                    pairs = [TagValue.parse(p) for p in arg]
                    got = ops.call("find", lambda: fs.find(*pairs), loop=False)
                    run.fail(check_set("find " + " ".join(arg), got, model.find(arg)))
                elif kind == "query":
                    got = ops.call("query", lambda: fs.query(inputs.query_text(arg)),
                                   loop=False)
                    run.fail(check_set("query " + inputs.query_text(arg), got,
                                       model.query(arg)))
                else:
                    hits = ops.call("rank", lambda: fs.rank(arg, limit=10), loop=False)
                    run.fail(check_rank([(h.doc_id, h.score) for h in hits],
                                        model.scores(arg), 10))
    ops.recording = True
    if timed:
        _add_delta(run, before, _counters(fs))


def _audit_specs(gen: Generator, count: int) -> Dict[str, List]:
    return {
        "find": [gen.find_spec() for _ in range(count)],
        "query": [gen.query_spec() for _ in range(count)],
        "rank": [gen.rank_spec() for _ in range(count)],
    }


def _finish_space(run: Run, fs, model: Model) -> None:
    live = sum(len(c) for c in model.content.values())
    run.space_amp = fs.device.used_blocks() * fs.device.block_size / live


# -- ingest ----------------------------------------------------------------------


def ingest(seed: int, seconds: float, tracer) -> Run:
    run = Run("ingest", tracer=tracer)
    gen = Generator(seed)
    # a few distinct cycles, taken in turn, each with its own audit batch,
    # so a run samples many documents and requests of its seed
    cycles, tails, audits = [], [], []
    for _ in range(inputs.INGEST_CYCLES):
        live: List[int] = []
        next_index = [0]
        cycles.append([inputs.ingest_round(gen, live, next_index)
                       for _ in range(inputs.INGEST_CYCLE_ROUNDS)])
        tails.append([("create", next_index[0] + i, gen.doc(*inputs.TAIL_WORDS))
                      for i in range(inputs.INGEST_TAIL)])
        audits.append(_audit_specs(gen, inputs.INGEST_AUDIT_QUERIES))

    fs, run.setup_s = _timed_setups(_fs, lambda old: old.close(), SETUPS["ingest"])
    ops = _Ops(run)

    def do(op: Tuple) -> None:
        if op[0] == "create":
            _, index, doc = op
            oids[index] = ops.call("create", lambda: _create(fs, doc))
            model.create(oids[index], doc)
            run.user_bytes += len(doc.content)
        elif op[0] == "append":
            _, index, data = op
            ops.call("append", lambda: fs.append(oids[index], data))
            model.append(oids[index], data)
            run.user_bytes += len(data)
        else:
            oid = oids.pop(op[1])
            ops.call("delete", lambda: fs.delete(oid))
            model.delete(oid)

    # Whole cycles, each on a freshly formatted device, until the time is
    # up.  Each cycle ends with the tail, a power cut and one mount of the
    # image; the remounted copy reads back every live document byte-exact
    # and answers the audit's finds, queries and ranks, checked against the
    # model and timed as the first requests a recovered store serves.
    started = perf_counter()
    for number in itertools.count():
        model = Model()
        oids: Dict[int, int] = {}
        turn = number % inputs.INGEST_CYCLES
        _rounds(run, ops, fs, cycles[turn], do)
        _tail(run, ops, fs, tails[turn], do)
        mounted = _mount(run, fs.device)
        _audit_queries(run, ops, mounted, model, audits[turn], sorted(model.content),
                       timed=True)
        mounted = None
        if perf_counter() - started >= seconds:
            break
        fs.close()
        fs = _fs()
    _finish_space(run, fs, model)
    return run


# -- search ----------------------------------------------------------------------


def _load(fs, docs) -> List[int]:
    return [_create(fs, doc) for doc in docs]


def search(seed: int, seconds: float, tracer) -> Run:
    from repro.index.tags import TagValue

    run = Run("search", tracer=tracer)
    gen = Generator(seed)
    corpus = [gen.doc() for _ in range(inputs.SEARCH_CORPUS_DOCS)]
    probes = [inputs.probe_doc(i) for i in range(inputs.PROBE_DOCS)]
    pools = {kind: inputs.popular(getattr(gen, f"{kind}_spec"), gen, inputs.SEARCH_POOL)
             for kind in ("find", "query", "rank")}
    next_new, probe_serial = [len(corpus)], [0]
    rounds = [inputs.search_round(gen, pools, len(corpus), next_new, probe_serial)
              for _ in range(int(seconds * ROUNDS_PER_SECOND["search"]) + 1)]
    # the tail is one more whole round, so the failed share stays exact
    tail = inputs.search_round(gen, pools, len(corpus), next_new, probe_serial)
    image_tail = [gen.doc(*inputs.TAIL_WORDS) for _ in range(inputs.IMAGE_TAIL)]
    audit = _audit_specs(Generator(seed + 1), inputs.AUDIT_QUERIES)

    def build():
        fs = _fs()
        return fs, _load(fs, corpus), _load(fs, probes)

    (fs, corpus_oids, probe_oids), run.setup_s = _timed_setups(
        build, lambda old: old[0].close(), SETUPS["search"])
    image, image_oids = _crash_image(fs, image_tail)
    model = Model()
    for oid, doc in zip(corpus_oids + probe_oids + image_oids, corpus + probes + image_tail):
        model.create(oid, doc)
    oids: Dict[int, int] = dict(enumerate(corpus_oids))
    ops = _Ops(run)
    seen: Dict[str, set] = defaultdict(set)
    asked = [0, 0]  # queries, repeats

    def do(op: Tuple) -> None:
        kind = op[0]
        if kind in ("find", "query", "rank") and ops.recording:
            key = repr(op[1])
            asked[0] += 1
            asked[1] += key in seen[kind]
            seen[kind].add(key)
        if kind == "find":
            pairs = [TagValue.parse(p) for p in op[1]]
            got = ops.call("find", lambda: fs.find(*pairs))
            run.fail(check_set("find " + " ".join(op[1]), got, model.find(op[1])))
        elif kind == "query":
            text = inputs.query_text(op[1])
            got = ops.call("query", lambda: fs.query(text))
            run.fail(check_set("query " + text, got, model.query(op[1])))
        elif kind == "rank":
            hits = ops.call("rank", lambda: fs.rank(op[1], limit=10))
            run.fail(check_rank([(h.doc_id, h.score) for h in hits],
                                model.scores(op[1]), 10))
        elif kind == "read":
            oid = oids[op[1]]
            data = ops.call("read", lambda: fs.read(oid))
            run.fail(check_read(oid, data, model.content[oid]))
        elif kind == "create":
            oids[op[1]] = ops.call("create", lambda: _create(fs, op[2]))
            model.create(oids[op[1]], op[2])
            run.user_bytes += len(op[2].content)
        elif kind == "delete":
            oid = oids.pop(op[1])
            ops.call("delete", lambda: fs.delete(oid))
            model.delete(oid)
        elif kind == "tag":
            oid = oids[op[1]]
            ops.call("tag", lambda: fs.tag(oid, "UDEF", op[2]))
            model.tag(oid, f"UDEF/{op[2]}")
        elif kind == "untag":
            oid = oids[op[1]]
            removed = ops.call("untag", lambda: fs.untag(oid, "UDEF", op[2]))
            expected = model.untag(oid, f"UDEF/{op[2]}")
            if removed != expected:
                run.fail(f"untag {oid} UDEF/{op[2]}: {removed}, expected {expected}")
        else:
            _probe(run, ops, fs, model, probe_oids[op[1]], op[2], op[3])

    _rounds(run, ops, fs, rounds, do, deadline=perf_counter() + seconds,
            between=_mounter(run, image))
    _tail(run, ops, fs, tail, do)
    _finish_space(run, fs, model)
    print(f"search: {asked[1]}/{asked[0]} queries repeat an earlier one", file=sys.stderr)
    mounted = _mount(run, fs.device, timed=False)
    _audit_queries(run, ops, mounted, model, audit, sorted(model.content), timed=False)
    return run


def _probe(run: Run, ops: _Ops, fs, model: Model, oid: int, word: str, data: bytes) -> None:
    """The known fault: a manual FULLTEXT term must survive a content edit.

    Counted as one operation; it fails while the re-index drops manual
    terms.  The model follows what the program did to the document's term
    counts (the term kept as one more token, or dropped), so neither the
    fault nor its fix spills into rank checks.
    """
    def probe():
        fs.tag(oid, "FULLTEXT", word)
        fs.append(oid, data)
        return fs.search_text(word)

    got = ops.call("probe", probe)
    model.append(oid, data)
    run.user_bytes += len(data)
    if got == [oid]:
        model.add_term(oid, word)
    else:
        run.failed += 1


# -- served ----------------------------------------------------------------------


def served(seed: int, seconds: float, tracer) -> Run:
    from repro.serve import ServeConfig, serve_in_thread

    run = Run("served", tracer=tracer)
    gen = Generator(seed)
    corpus = [gen.doc() for _ in range(inputs.SERVED_CORPUS_DOCS)]
    pools = {kind: inputs.popular(getattr(gen, f"{kind}_spec"), gen, inputs.SERVED_POOL)
             for kind in ("find", "query", "rank")}
    budget = int(seconds * ROUNDS_PER_SECOND["served"]) + 1
    rounds = [inputs.served_round(gen, pools) for _ in range(budget)]
    tail = [("create", gen.doc(10, 30)) for _ in range(inputs.SERVED_TAIL)]
    image_tail = [gen.doc(*inputs.TAIL_WORDS) for _ in range(inputs.IMAGE_TAIL)]
    audit = _audit_specs(Generator(seed + 1), inputs.AUDIT_QUERIES)
    sock = os.path.join("perfbench", f".sock-{os.getpid()}")

    def build():
        # the `hfad serve` defaults: group_commit=8 with the automatic idle
        # flush, 4 workers, a 2**17-block device
        fs = _fs(num_blocks=1 << 17, group_commit=8)
        oids = _load(fs, corpus)
        if os.path.exists(sock):
            os.unlink(sock)
        handle = serve_in_thread(fs, ServeConfig(unix_path=sock, max_workers=4))
        return fs, oids, handle

    def teardown(old):
        old[2].stop()
        old[0].close()

    (fs, corpus_oids, handle), run.setup_s = _timed_setups(build, teardown, SETUPS["served"])
    try:
        image, image_oids = _crash_image(fs, image_tail)
        corpus_oids += image_oids
        model = Model()
        for oid, doc in zip(corpus_oids, corpus + image_tail):
            model.create(oid, doc)
        log = asyncio.run(_drive(run, fs, handle, rounds, tail, corpus_oids, seconds,
                                 _mounter(run, image)))
        crash = _copy(fs.device)
    finally:
        handle.stop()
        fs.recovery.stop_flusher()
        if os.path.exists(sock):
            os.unlink(sock)
    creates = [entry for entry in log if entry[1] == "create"]
    for entry in creates:
        model.create(entry[5], entry[6])
        if entry[0] != "tail":
            run.user_bytes += len(entry[6].content)
    _check_served(run, log, creates, model, set(corpus_oids))
    _finish_space(run, fs, model)
    mounted = _mount(run, crash, timed=False)
    # every acknowledged create reads back byte-exact after the crash
    _audit_queries(run, _Ops(run), mounted, model, audit, sorted(model.content), timed=False)
    return run


async def _drive(run: Run, fs, handle, rounds, tail, corpus_oids: List[int],
                 seconds: float, between: Callable[[], float]):
    """Two connections in a closed loop: connection 0 creates and
    connection 1 reads, in pairs.  After a seeded think time the pair's
    create is sent, and its read once the create is acknowledged: a read
    that shares the interpreter with a create's engine work takes ~1 ms or
    ~8 ms by how the worker threads hand over the GIL, so overlapping them
    made every read p50 jump between the two from run to run.
    ``between`` runs before each round and its time is left out of the
    loop's wall time.  Then a checkpoint and the fixed tail of creates over
    the writer connection."""
    from repro.serve import AsyncClient

    clients = [await AsyncClient.connect(handle.address) for _ in range(2)]
    #: (conn, kind, send_t, recv_t, arg, answer/oid, doc)
    log: List[Tuple] = []
    acked: List[Tuple[float, int]] = []  # (ack time, oid), in ack order
    executor = handle.server.executor
    tracer = run.tracer
    traced_requests = [0]

    async def connection(index, ops_of_round):
        client = clients[0 if index == "tail" else index]
        for op in ops_of_round:
            kind = op[0]
            run.attempted += 1
            send = perf_counter()
            try:
                if kind == "create":
                    doc = op[1]
                    response = await client.call(
                        "create", data_b64=base64.b64encode(doc.content).decode("ascii"),
                        path=doc.path, owner=doc.owner, application=doc.application,
                        tags=[f"UDEF/{t}" for t in doc.tags], annotations=doc.annotations)
                    answer, arg = response["oid"], doc
                elif kind == "read":
                    visible = corpus_oids + [oid for _, oid in acked]
                    arg = visible[int(op[1] * len(visible))]
                    response = await client.call("read", oid=arg)
                    answer = base64.b64decode(response["data_b64"])
                elif kind == "find":
                    arg = op[1]
                    answer = (await client.call("find", pairs=list(arg)))["results"]
                elif kind == "query":
                    arg = op[1]
                    answer = (await client.call("query", q=inputs.query_text(arg)))["results"]
                else:
                    arg = op[1]
                    hits = (await client.call("rank", text=arg, limit=10))["hits"]
                    answer = [(h["oid"], h["score"]) for h in hits]
            except Exception as exc:  # any refused or failed request is a failure
                run.failed += 1
                run.fail(f"served {kind}: {type(exc).__name__}: {exc}")
                continue
            received = perf_counter()
            if kind == "create":
                acked.append((received, answer))
                log.append((index, kind, send, received, None, answer, arg))
            else:
                log.append((index, kind, send, received, arg, answer, None))
            if index == "tail":
                continue
            elapsed = received - send
            run.latencies[kind].append(elapsed)
            run.counts[kind] += 1
            run.busy_s += elapsed
            run.loop_ops += 1
            if tracer is not None:
                (run.traced if tracing[0] else run.plain)[kind].append(elapsed)
                traced_requests[0] += tracing[0]

    tracing = [False]
    original_submit = executor.submit

    def timed_submit(fn, *args, **kwargs):
        queued = perf_counter()

        def start(*a, **k):
            slot = tracer.waits["serve.executor_wait"]
            slot[0] += perf_counter() - queued
            slot[1] += 1
            return fn(*a, **k)
        return original_submit(start, *args, **kwargs)

    before = _counters(fs)
    device_before = fs.device.stats.blocks_written
    _quiesce()
    started = perf_counter()
    paused = 0.0
    try:
        for number, (writes, reads, thinks) in enumerate(rounds):
            if perf_counter() - started >= seconds:
                break
            paused += between()
            tracing[0] = tracer is not None and number % 2 == 0
            if tracing[0]:
                tracer.install(engine_roots=True)
                executor.submit = timed_submit
            try:
                for write, read, think in zip(writes, reads, thinks):
                    await asyncio.sleep(think)
                    await connection(0, [write])
                    await connection(1, [read])
            finally:
                if tracing[0]:
                    tracer.remove()
                    del executor.submit
        else:
            print("served: pre-generated rounds exhausted", file=sys.stderr)
        run.wall_s = perf_counter() - started - paused
        run.device_bytes_written = ((fs.device.stats.blocks_written - device_before)
                                    * fs.device.block_size)
        _add_delta(run, before, _counters(fs))
        _checkpoint(fs)
        await connection("tail", tail)
    finally:
        for client in clients:
            await client.close()
    run.counts["traced_requests"] = traced_requests[0]
    return log


def _check_served(run: Run, log, creates, model: Model, corpus: set) -> None:
    """Each answer must equal the model over the documents visible to it:
    every create acknowledged before the request was sent, plus any prefix
    of the other connection's creates that were in flight meanwhile."""
    by_ack = sorted(creates, key=lambda e: e[3])
    ack_times = [e[3] for e in by_ack]
    for conn, kind, send, received, arg, answer, _ in log:
        if kind == "create":
            continue
        if kind == "read":
            run.fail(check_read(arg, answer, model.content[arg]))
            continue
        definite = corpus | {e[5] for e in by_ack[:bisect.bisect_left(ack_times, send)]}
        maybe = sorted((e for e in creates
                        if e[0] != conn and e[3] >= send and e[2] < received),
                       key=lambda e: e[2])
        reasons = []
        for k in range(len(maybe) + 1):
            visible = definite | {e[5] for e in maybe[:k]}
            if kind == "find":
                reason = check_set("find " + " ".join(arg), answer, model.find(arg) & visible)
            elif kind == "query":
                reason = check_set("query " + inputs.query_text(arg), answer,
                                   model.query(arg) & visible)
            else:
                reason = check_rank(answer, model.scores(arg, visible), 10)
            if reason is None:
                break
            reasons.append(reason)
        else:
            run.fail(reasons[0])


WORKLOADS = {"ingest": ingest, "search": search, "served": served}
