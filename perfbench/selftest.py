"""Tests of the benchmark's own checkers: each must reject a doctored answer.

    python3 perfbench/selftest.py

Exits 0 when every case holds.  The checkers and the model need nothing
from the program; the vocabulary case also runs the program's analyzer
when the sources are present.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import report  # noqa: E402
from model import Model, check_rank, check_read, check_set  # noqa: E402


def _model():
    gen = inputs.Generator(7)
    model = Model()
    for oid in range(1, 121):
        model.create(oid, gen.doc())
    return gen, model


def case_find_rejects_dropped_and_extra_oid():
    gen, model = _model()
    pair = max((p for p in model.postings if len(model.postings[p]) < len(model.content)),
               key=lambda p: len(model.postings[p]))
    expected = model.find([pair])
    answer = sorted(expected)
    assert check_set("find", answer, expected) is None
    assert check_set("find", answer[1:], expected) is not None, "dropped oid accepted"
    outsider = next(o for o in model.content if o not in expected)
    assert check_set("find", answer + [outsider], expected) is not None, "extra oid accepted"
    assert check_set("find", answer + answer[:1], expected) is not None, "duplicate accepted"


def case_query_algebra():
    gen, model = _model()
    for _ in range(50):
        spec = gen.query_spec()
        got = model.query(spec)
        brute = {o for o, names in model.names.items()
                 if _holds(spec, names)}
        assert got == brute, (spec, got ^ brute)


def _holds(spec, names):
    if spec[0] == "and":
        return spec[1] in names and spec[2] in names
    if spec[0] == "and_or":
        return spec[1] in names and (spec[2] in names or spec[3] in names)
    return spec[1] in names and spec[2] not in names


def case_rank_rejects_swapped_score():
    gen, model = _model()
    text = next(t for t in (gen.rank_spec() for _ in range(200))
                if len(set(round(v, 6) for v in model.scores(t).values())) > 3)
    scores = model.scores(text)
    top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert check_rank(top, scores, 10) is None
    swapped = list(top)
    swapped[0], swapped[1] = (top[0][0], top[1][1]), (top[1][0], top[0][1])
    assert check_rank(swapped, scores, 10) is not None, "swapped scores accepted"
    reordered = [top[1], top[0]] + top[2:]
    assert check_rank(reordered, scores, 10) is not None, "ascending pair accepted"
    assert check_rank(top[:-1], scores, 10) is not None, "short answer accepted"
    outside = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[10:]
    if outside and outside[0][1] < top[0][1]:
        replaced = top[1:] + [outside[-1]]
        replaced.sort(key=lambda kv: -kv[1])
        assert check_rank(replaced, scores, 10) is not None, "better doc left out accepted"


def case_read_rejects_truncation():
    _, model = _model()
    content = model.content[5]
    assert check_read(5, content, content) is None
    assert check_read(5, content[:-1], content) is not None, "truncated read accepted"
    assert check_read(5, content + b"x", content) is not None, "extended read accepted"


def case_model_tracks_appends_and_deletes():
    _, model = _model()
    before = model.total_tokens
    model.append(3, b" zzz zzz")
    assert model.tf[3]["zzz"] == 2 and model.total_tokens == before + 2
    model.delete(3)
    assert 3 not in model.content and not model.holders("FULLTEXT/zzz")


def case_model_counts_a_kept_manual_term():
    _, model = _model()
    before, length = model.total_tokens, model.length[4]
    model.add_term(4, "xzzz")
    assert model.holders("FULLTEXT/xzzz") == {4}
    assert model.tf[4]["xzzz"] == 1 and model.length[4] == length + 1
    assert model.total_tokens == before + 1
    model.append(4, b" qqq")  # a kept manual term survives the re-index
    assert model.tf[4]["xzzz"] == 1 and model.length[4] == length + 2
    assert model.scores("xzzz") and set(model.scores("xzzz")) == {4}
    model.delete(4)
    assert model.total_tokens == before - length and not model.holders("FULLTEXT/xzzz")


def case_rounds_keep_failed_share_fixed():
    gen = inputs.Generator(3)
    pools = {kind: inputs.popular(getattr(gen, f"{kind}_spec"), gen, 20)
             for kind in ("find", "query", "rank")}
    next_new, serial = [50], [0]
    for _ in range(20):
        ops = inputs.search_round(gen, pools, 50, next_new, serial)
        assert len(ops) == sum(inputs.SEARCH_ROUND.values())
        assert sum(op[0] == "probe" for op in ops) == inputs.SEARCH_ROUND["probe"]
        live = set(range(50))
        for op in ops:
            if op[0] == "create":
                live.add(op[1])
            elif op[0] == "delete":
                live.remove(op[1])
            elif op[0] in ("read", "tag", "untag"):
                assert op[1] in live
        assert live == set(range(50)), "a round leaves a create behind"


def case_ingest_rounds_only_touch_live_documents():
    # only a cycle's first round starts on an empty store
    for seed in range(2000):
        alive = set()
        for op in inputs.ingest_round(inputs.Generator(seed), [], [0]):
            if op[0] == "create":
                alive.add(op[1])
            else:
                assert op[1] in alive, (seed, op)
                if op[0] == "delete":
                    alive.remove(op[1])


def case_vocabulary_analyzes_to_itself():
    source = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        return
    sys.path.insert(0, source)
    from repro.fulltext.analyzer import Analyzer

    analyzer = Analyzer()
    words = inputs.MAIN_WORDS + inputs.PROBE_WORDS + inputs.PROBE_DOC_WORDS
    assert len(set(words)) == len(words)
    for word in random.Random(0).sample(words, 2000) + inputs.PROBE_WORDS[:200]:
        assert analyzer.analyze(word) == [word], word


def case_metric_lists_match_benchmark_json():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == report.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == report.PER_LAYER


def main() -> int:
    cases = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("case_")]
    failures = 0
    for name, fn in cases:
        try:
            fn()
            print(f"ok    {name}")
        except Exception as exc:
            failures += 1
            print(f"FAIL  {name}: {exc}")
    print(f"{len(cases) - failures}/{len(cases)} checker cases hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
