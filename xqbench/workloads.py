"""The four workloads: seeded inputs, set-up, one fixed cycle of ops, oracles.

Each workload generates all its inputs from the seed before set-up; the
program only ever sees those inputs.  A cycle is a fixed op sequence whose
writes come in groups that restore the state they change, so every cycle
starts from the same program state and every run of a seed repeats the
same per-op work.

Every op has an oracle that runs outside the timed call:

* ``calc_cold``, ``served_rw`` -- the native calculus interpreter
  (:func:`repro.querycalc.run_query`) on the live model;
* ``search_rw`` -- a phrase counter written here for hit URIs and
  scores, and an unsharded, uncached, index-off evaluation over a
  reference store for KWIC, document and collection text;
* ``docgen`` -- :class:`repro.docgen.NativeDocumentGenerator`.
"""

from __future__ import annotations

import os
import random
import re
from typing import Dict, List, Optional, Tuple

from loop import Op

#: node types of the IT metamodel that calculus queries start from.
START_TYPES = ["User", "Superuser", "Person", "Program", "Server", "Document", "Element", "System"]
RELATIONS = ["has", "uses", "runs", "likes", "favors"]
SORTS = [None, "label", "birthYear", "version"]


def _ids(nodes) -> List[str]:
    return [node.id for node in nodes]


def _calc_check(query, model):
    """Oracle: the native interpreter on the model as it is now."""
    from repro.querycalc import run_query

    def check(item) -> Optional[str]:
        got = _ids(item)
        expected = _ids(run_query(query, model))
        if got != expected:
            return f"ids {got[:5]}... differ from native {expected[:5]}..."
        return None

    return check


def _update_check(statements: int):
    def check(summary) -> Optional[str]:
        if summary["applied"] != statements:
            return f"applied {summary['applied']} of {statements} statements"
        if summary["propagation"]["skipped"]:
            return "cache propagation was skipped"
        return None

    return check


def _restore_group(rng: random.Random, key: str, type_name: str, anchor: str, relation: str, prop: str):
    """Three update scripts that insert a node, rename it and delete it.

    The ids are explicit, so the model after the group equals the model
    before it, and every cycle repeats the same states.
    """
    label = f"xb-{key}-{rng.randrange(1000):03d}"
    renamed = f"xb-{key}-{rng.randrange(1000, 2000)}"
    value = 1950 + rng.randrange(50) if prop == "birthYear" else f'"0.{rng.randrange(10)}"'
    return [
        (
            "insert",
            f'insert node {type_name} id xbn{key} with (label "{label}", {prop} {value});\n'
            f"insert relation {relation} id xbr{key} from {anchor} to xbn{key};",
            2,
        ),
        ("replace", f'replace value of xbn{key}.label with "{renamed}";', 1),
        ("delete", f"delete node xbn{key};", 1),
    ]


class Workload:
    """The interface :class:`loop.Run` drives."""

    name = ""
    #: the read percentile reported as ``read_tail_ms``: the highest one
    #: with at least ten samples beyond it in a run.
    read_tail = 0.99
    setup_repeats = 3
    #: run the front-end and its worker processes on one CPU
    one_cpu = False

    def __init__(self, seed: int):
        self.seed = seed

    def set_up(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed work after the last set-up, such as the oracle's state."""

    def start_cycle(self) -> None:
        """Untimed work before each cycle."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative program counters behind the per-layer ratios."""
        return {}

    def worker_pids(self) -> List[int]:
        return []

    def describe(self) -> str:
        return ""

    def fingerprint(self) -> str:
        """Every generated input, as text: equal seeds give equal text."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`set_up` made (worker processes)."""


# -- calc_cold ---------------------------------------------------------------------


CONCRETE_TYPES = ["SystemBeingDesigned", "User", "Superuser", "Program", "Server", "Document"]


class QueryMaker:
    """Seeded calculus queries whose cost does not depend on the seed.

    The costly choices (shape, start type, relations and their
    directions) are fixed strata; the seed picks only choices of similar
    cost: sort key and direction, dedup, sub-relations, the start node of
    its type, a last hop's target type, filter values.  Runs with
    different seeds then see different queries with the same op mix.
    """

    def __init__(self, rng: random.Random, model):
        from repro.querycalc.ast import Collect, FilterProperty, Follow, Query, Start

        self.rng = rng
        self.Collect, self.FilterProperty, self.Follow = Collect, FilterProperty, Follow
        self.Query, self.Start = Query, Start
        self.ids = {
            t: sorted(n.id for n in model.nodes.values() if n.type_name == t) for t in CONCRETE_TYPES
        }

    def collect(self):
        rng = self.rng
        return self.Collect(
            sort_by=rng.choice(SORTS), descending=rng.random() < 0.5, distinct=rng.random() < 0.8
        )

    def follow(self, relation: str, direction: str, target: Optional[str] = None):
        return self.Follow(
            relation,
            direction=direction,
            target_type=target,
            include_subrelations=self.rng.random() < 0.8,
        )

    def prop_filter(self, kind: str):
        rng = self.rng
        if kind == "year":
            return self.FilterProperty(
                "birthYear", rng.choice(("lt", "le", "gt", "ge", "ne")), str(1965 + rng.randrange(20))
            )
        return self.FilterProperty("label", "contains", rng.choice("aeilnorstu") + rng.choice("aeilnorstu-"))

    def make(self, shape: str, a, b):
        """One query of *shape* in stratum ``(a, b)``."""
        Query, Start = self.Query, self.Start
        if shape == "scan":
            return Query(Start(type=a), [], self.collect())
        if shape == "follow":
            return Query(Start(type=a), [self.follow(*b)], self.collect())
        if shape == "two_hops":
            target = self.rng.choice(CONCRETE_TYPES[1:])
            steps = [self.follow(*b[0]), self.follow(*b[1], target)]
            return Query(Start(type=a), steps, self.collect())
        if shape == "filter":
            return Query(Start(type=a), [self.prop_filter(b)], self.collect())
        if shape == "by_id":
            start = Start(node_id=self.rng.choice(self.ids[a]))
            return Query(start, [self.follow(*b[0]), self.follow(*b[1])], self.collect())
        if shape == "all_nodes":
            return Query(Start(all_nodes=True), [self.follow(*a), self.prop_filter(b)], self.collect())
        raise ValueError(shape)

    def distinct(self, strata: List[Tuple[str, object, object]]):
        """One distinct query per stratum, interleaved by shape."""
        from repro.querycalc.service.plans import normalize_query

        seen = set()
        made: Dict[str, List[tuple]] = {}
        for shape, a, b in strata:
            for _ in range(200):
                query = self.make(shape, a, b)
                key = normalize_query(query)
                if key not in seen:
                    break
            else:
                raise ValueError(f"no distinct query left in stratum {shape} {a} {b}")
            seen.add(key)
            made.setdefault(shape, []).append((shape, query))
        order = sorted(
            ((index + 0.5) / len(queries), rank, query)
            for rank, queries in enumerate(made.values())
            for index, query in enumerate(queries)
        )
        return [query for _, _, query in order]


def cold_strata() -> List[Tuple[str, object, object]]:
    """calc_cold's fixed mix: 136 reads over six shapes.

    Start types, relations and directions are strata, because they set a
    query's cost; the costliest shape (all nodes, then a hop, then a
    filter) is 7% of the reads, so the p99 falls inside it.
    """
    hops = [(r, d) for d in ("forward", "backward") for r in RELATIONS]
    strata = [("scan", t, None) for t in START_TYPES for _ in range(2)]
    strata += [("follow", t, hops[(i * 5 + j) % 10]) for i, t in enumerate(START_TYPES) for j in range(5)]
    strata += [
        ("two_hops", t, (hops[(i * 5 + j) % 10], hops[(i * 5 + j * 3 + 1) % 10]))
        for i, t in enumerate(START_TYPES)
        for j in range(5)
    ]
    strata += [("filter", t, k) for t in ("User", "Superuser", "Person") for k in ("year", "label") for _ in range(3)]
    strata += [("by_id", t, (hops[i % 10], hops[(i + 3) % 10])) for i, t in enumerate(CONCRETE_TYPES * 2)]
    strata += [("all_nodes", hop, ("year", "label")[k % 2]) for k, hop in enumerate(hops)]
    return strata


def served_panel(rng: random.Random):
    """served_rw's warm panel: 16 fixed queries; the seed only flips
    sort directions, which cost the same either way."""
    from repro.querycalc.ast import Collect, FilterProperty, Follow, Query, Start

    def q(start, steps=(), sort_by=None):
        return Query(start, list(steps), Collect(sort_by=sort_by, descending=rng.random() < 0.5))

    return [
        ("scan", q(Start(type="User"))),
        ("scan", q(Start(type="Person"), sort_by="birthYear")),
        ("scan", q(Start(type="Server"))),
        ("scan", q(Start(type="Document"), sort_by="version")),
        ("scan", q(Start(type="Program"))),
        ("scan", q(Start(type="Superuser"))),
        ("scan", q(Start(type="Element"))),
        ("follow", q(Start(type="Person"), [Follow("likes")])),
        ("follow", q(Start(type="User"), [Follow("uses", target_type="Program")])),
        ("follow", q(Start(type="SystemBeingDesigned"), [Follow("has")])),
        ("follow", q(Start(type="Program"), [Follow("runs", direction="backward")])),
        ("follow", q(Start(type="User"), [Follow("favors")])),
        ("two_hops", q(Start(type="User"), [Follow("likes"), Follow("uses")])),
        ("filter", q(Start(type="User"), [FilterProperty("birthYear", "ge", "1975")])),
        ("filter", q(Start(type="Person"), [FilterProperty("label", "contains", "e")])),
        ("all_nodes", q(Start(all_nodes=True), [Follow("has", direction="backward")])),
    ]


class CalcCold(Workload):
    """Distinct cold calculus queries through a thread-mode QueryService.

    Every read is a distinct query and every cycle gets a fresh model and
    service, so the plan and result caches miss (but for two queries per
    cycle that compile to the same XQuery as another).  Writes (six per
    136 reads) move the model generation, so reads after them also pay the
    incremental export, as E18's definition of a cold query asks.
    """

    name = "calc_cold"
    setup_repeats = 11
    SCALE = 48  # 101 nodes: E18's n
    WRITE_EVERY = 22

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.workloads import make_it_model

        rng = random.Random(seed)
        model = make_it_model(scale=self.SCALE, seed=seed)
        self.queries = QueryMaker(rng, model).distinct(cold_strata())
        anchor = model.nodes_of_type("SystemBeingDesigned")[0].id
        self.writes = []
        for group in range(2):
            self.writes += _restore_group(rng, f"c{group}", "Document", anchor, "has", "version")
        self.model = None
        self.service = None

    def set_up(self) -> None:
        from repro.querycalc import QueryService
        from repro.workloads import make_it_model

        self.model = make_it_model(scale=self.SCALE, seed=self.seed)
        self.service = QueryService(self.model)
        self.service._snapshot()  # the export is built during set-up (E18's rule)

    def start_cycle(self) -> None:
        # a fresh model too: a discarded service stays subscribed to its
        # model's change listeners, so reusing the model would make every
        # write notify all the services of earlier cycles
        self.service = self.model = None
        self.set_up()

    def ops(self) -> List[Op]:
        result: List[Op] = []
        writes = list(self.writes)
        for index, (shape, query) in enumerate(self.queries):
            if index % self.WRITE_EVERY == self.WRITE_EVERY // 2 and writes:
                label, script, statements = writes.pop(0)
                result.append(
                    Op("write", label, lambda s=script: self.service.apply_update(s), _update_check(statements))
                )
            result.append(
                Op(
                    "read",
                    shape,
                    lambda q=query: self.service.run(q),
                    lambda item, q=query: _calc_check(q, self.model)(item),
                )
            )
        if writes:
            raise ValueError("the cycle is too short for its writes")
        return result

    def fingerprint(self) -> str:
        from repro.querycalc.service.plans import normalize_query

        return repr(([normalize_query(q) for _, q in self.queries], self.writes))

    def counters(self) -> Dict[str, float]:
        return _service_counters(self.service)

    def describe(self) -> str:
        return f"mode thread  backend algebra  model n={len(self.model.nodes)}"


def _service_counters(service) -> Dict[str, float]:
    metrics = service.metrics()
    counters = {
        "service.hits": metrics["hits"],
        "service.misses": metrics["misses"],
        "service.plan_hits": metrics["plan_hits"],
        "service.plan_misses": metrics["plan_misses"],
    }
    for key in ("kept", "patched", "invalidated"):
        counters[f"service.{key}"] = metrics["propagations"][key]
    if service._pool is not None:
        counters["pool.respawns"] = sum(handle.restarts for handle in service._pool.handles)
    return counters


# -- served_rw ---------------------------------------------------------------------


class ServedRW(Workload):
    """A 95/5 read/write mix on a process-mode QueryService.

    Reads cycle through a warm panel of 16 queries that fits the result
    cache; every block of 20 ops starts with one update script, and the
    19 reads after it cover the whole panel, so post-write misses are a
    fixed share of the reads.
    """

    name = "served_rw"
    setup_repeats = 9
    one_cpu = True
    SCALE = 24
    #: the model is fixed: a cache hit's cost is its result size, and the
    #: seed must not move the sizes the p50 sits between.
    MODEL_SEED = 42
    BLOCK = 20
    GROUPS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.workloads import make_it_model

        rng = random.Random(seed)
        model = make_it_model(scale=self.SCALE, seed=self.MODEL_SEED)
        self.panel = served_panel(rng)
        rng.shuffle(self.panel)  # the order moves no cost: every block reads all 16
        users = [node.id for node in model.nodes_of_type("User")]
        self.writes = []
        for group in range(self.GROUPS):
            self.writes += _restore_group(rng, f"s{group}", "User", rng.choice(users), "likes", "birthYear")
        # one worker on the front-end's CPU: with cpu_count workers a miss
        # waits for the slowest of the parallel shards, and a wakeup on
        # the other, congested CPU; on a shared host either one doubled
        # the scaled latencies from one run to the next
        self.workers = 1
        self.model = None
        self.service = None

    def set_up(self) -> None:
        from repro.querycalc import QueryService
        from repro.workloads import make_it_model

        self.model = make_it_model(scale=self.SCALE, seed=self.MODEL_SEED)
        self.service = QueryService(self.model, mode="process", workers=self.workers)
        self.service._snapshot()

    def fingerprint(self) -> str:
        from repro.querycalc.service.plans import normalize_query

        return repr(([normalize_query(q) for _, q in self.panel], self.writes))

    def ops(self) -> List[Op]:
        result: List[Op] = []
        reads = 0
        for label, script, statements in self.writes:
            result.append(
                Op("write", label, lambda s=script: self.service.apply_update(s), _update_check(statements))
            )
            for _ in range(self.BLOCK - 1):
                shape, query = self.panel[reads % len(self.panel)]
                reads += 1
                result.append(
                    Op(
                        "read",
                        shape,
                        lambda q=query: self.service.run(q),
                        lambda item, q=query: _calc_check(q, self.model)(item),
                    )
                )
        return result

    def counters(self) -> Dict[str, float]:
        return _service_counters(self.service)

    def worker_pids(self) -> List[int]:
        return [handle.process.pid for handle in self.service._pool.handles]

    def describe(self) -> str:
        return f"mode process  workers {self.workers}  model n={len(self.model.nodes)}"

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


# -- search_rw ---------------------------------------------------------------------

COLLECTIONS = ["docs/", "notes/", "wiki/"]
COMMON_WORDS = ["alpha", "beta", "gamma", "delta", "omega", "kappa", "zeta", "čaj", "füße", "京都", "naïve", "señor"]
RARE_WORDS = [f"rare{i}" for i in range(40)]
_TOKEN = re.compile(r"\w+", re.UNICODE)
_ROW = re.compile(r'<(?:hit|kwic) uri="([^"]*)" score="([^"]*)"')


def _tokens(text: str) -> List[str]:
    return [match.group().casefold() for match in _TOKEN.finditer(text)]


def corpus_texts(rng: random.Random, docs: int = 1200) -> Dict[str, str]:
    """E22's corpus shape: three collections, common words, 10% rare ones."""
    texts = {}
    for index in range(docs):
        words = [rng.choice(COMMON_WORDS) for _ in range(rng.randrange(12, 30))]
        if rng.random() < 0.1:
            words.insert(rng.randrange(len(words)), rng.choice(RARE_WORDS))
        texts[f"{COLLECTIONS[index % 3]}d{index:05d}.xml"] = f"<doc>{' '.join(words)}</doc>"
    return texts


class PhraseCounter:
    """The benchmark's own phrase scorer: occurrences of a token run."""

    def __init__(self, texts: Dict[str, str]):
        self.tokens: Dict[str, List[str]] = {}
        for uri, text in texts.items():
            self.put(uri, text)

    def put(self, uri: str, text: str) -> None:
        self.tokens[uri] = _tokens(re.sub(r"<[^>]*>", " ", text))

    def hits(self, collection: str, phrase: str, limit: int) -> List[Tuple[str, int]]:
        wanted = _tokens(phrase)
        size = len(wanted)
        hits = []
        for uri, tokens in self.tokens.items():
            if not uri.startswith(collection) or wanted[0] not in tokens:
                continue
            score = sum(1 for i in range(len(tokens) - size + 1) if tokens[i : i + size] == wanted)
            if score:
                hits.append((uri, score))
        hits.sort(key=lambda hit: (-hit[1], hit[0]))
        return hits[:limit] if limit else hits


class SearchRW(Workload):
    """A 95/5 full-text mix on a process-mode SearchService.

    A cycle holds more than 512 distinct reads, so every cached answer is
    evicted before the next cycle asks again: the working set exceeds the
    result cache and reads run postings intersect, score and KWIC in the
    workers.  Each block of 20 ops starts with a ``put_text`` write; the
    writes come in pairs that put new text and then restore the original.
    """

    name = "search_rw"
    setup_repeats = 7
    one_cpu = True
    BLOCK = 20
    BLOCKS = 30
    #: read strata per cycle: (kind, phrase shape, collections, limits,
    #: count).  Collections and limits rotate through their lists, so
    #: the seed picks only words and documents, which cost alike.
    READS = [
        ("search", "common", ["docs/", "notes/", "wiki/", ""], [5, 10, 15, 20], 120),
        ("search", "pair", ["docs/", "notes/", "wiki/", ""], [0, 10], 130),
        ("search", "rare", ["docs/", "notes/", "wiki/", ""], [0], 100),
        ("kwic", "pair", COLLECTIONS, [5], 100),
        ("kwic", "rare", COLLECTIONS, [0], 50),
        ("doc", None, [""], [0], 40),
        ("collection", None, COLLECTIONS, list(range(1, 21)), 30),
    ]
    WRITE_WORDS = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.collections import SearchRequest

        rng = random.Random(seed)
        self.texts = corpus_texts(rng)
        uris = sorted(self.texts)
        phrases = {
            "common": lambda: rng.choice(COMMON_WORDS),
            "pair": lambda: f"{rng.choice(COMMON_WORDS)} {rng.choice(COMMON_WORDS)}",
            "rare": lambda: rng.choice(RARE_WORDS),
        }
        requests = []
        seen = set()
        for kind, shape, collections, limits, count in self.READS:
            for index in range(count):
                collection = collections[index % len(collections)]
                limit = limits[(index // len(collections)) % len(limits)]
                for _ in range(200):
                    if kind == "doc":
                        request = SearchRequest(kind="doc", uri=rng.choice(uris))
                    elif kind == "collection":
                        request = SearchRequest(kind="collection", collection=collection, limit=limit)
                    else:
                        request = SearchRequest(
                            kind=kind, collection=collection, phrase=phrases[shape](), limit=limit
                        )
                    if request.key() not in seen:
                        break
                else:
                    raise ValueError(f"no distinct {kind} request left for {collection!r}")
                seen.add(request.key())
                requests.append((f"{kind}:{shape}" if shape else kind, request))
        rng.shuffle(requests)
        self.requests = requests
        self.writes = []
        for pair in range(self.BLOCKS // 2):
            uri = rng.choice([u for u in uris if u.startswith(COLLECTIONS[pair % 3])])
            words = " ".join(rng.choice(COMMON_WORDS + RARE_WORDS[:4]) for _ in range(self.WRITE_WORDS))
            self.writes.append((uri, f"<doc>{words}</doc>"))
            self.writes.append((uri, self.texts[uri]))
        # one shard, for the reason served_rw runs one worker
        self.shards = 1
        self.service = None
        self.reference = None
        self.engine = None
        self.counter = None
        self.current: Dict[str, str] = {}
        self._expected: Dict[tuple, object] = {}

    def set_up(self) -> None:
        from repro.collections import DocumentStore, SearchService

        store = DocumentStore()
        for uri, text in self.texts.items():
            store.put_text(uri, text)
        self.service = SearchService(store, shards=self.shards, mode="process")

    def warm(self) -> None:
        from repro.collections import DocumentStore
        from repro.xquery import EngineConfig, XQueryEngine

        self.reference = DocumentStore(use_index=False)
        for uri, text in self.texts.items():
            self.reference.put_text(uri, text)
        self.engine = XQueryEngine(EngineConfig(backend="algebra"))
        self.counter = PhraseCounter(self.texts)

    def ops(self) -> List[Op]:
        result: List[Op] = []
        reads = iter(self.requests)
        for uri, text in self.writes:
            result.append(Op("write", "put_text", lambda u=uri, t=text: self.service.put_text(u, t), self._write_check(uri, text)))
            for _ in range(self.BLOCK - 1):
                label, request = next(reads)
                result.append(
                    Op("read", label, lambda r=request: self.service.run(r), self._read_check(request))
                )
        if next(reads, None) is not None:
            raise ValueError("the cycle has more reads than blocks")
        return result

    def fingerprint(self) -> str:
        return repr(([r.key() for _, r in self.requests], self.writes, sorted(self.texts.items())))

    def _write_check(self, uri: str, text: str):
        def check(_result) -> Optional[str]:
            # the oracle's own copies follow the write
            self.reference.put_text(uri, text)
            self.counter.put(uri, text)
            if text == self.texts[uri]:
                self.current.pop(uri, None)
            else:
                self.current[uri] = text
            if self.service.store.text_of(uri) != text:
                return f"store holds other text for {uri}"
            return None

        return check

    def _reference_text(self, request) -> str:
        """Unsharded, uncached, index-off evaluation; memoized per request
        and corpus state, which every cycle repeats."""
        from repro.xquery import serialize_result

        key = ("text", request.key(), tuple(sorted(self.current.items())))
        text = self._expected.get(key)
        if text is None:
            result = self.engine.compile(request.source()).run(collections=self.reference)
            text = serialize_result(result)
            self._expected[key] = text
        return text

    def _hits(self, request) -> List[Tuple[str, int]]:
        """The phrase counter's answer; memoized per state like the text."""
        key = ("hits", request.key(), tuple(sorted(self.current.items())))
        hits = self._expected.get(key)
        if hits is None:
            hits = self.counter.hits(request.collection, request.phrase, request.limit)
            self._expected[key] = hits
        return hits

    def _read_check(self, request):
        def check(result) -> Optional[str]:
            text = result.text
            if request.kind in ("search", "kwic"):
                rows = [(uri, int(score)) for uri, score in _ROW.findall(text)]
                expected = self._hits(request)
                if rows != expected:
                    return f"hits {rows[:3]} differ from the phrase counter's {expected[:3]}"
                if request.kind == "search":
                    return None
            if text != self._reference_text(request):
                return "text differs from the index-off reference evaluation"
            return None

        return check

    def counters(self) -> Dict[str, float]:
        metrics = self.service.metrics
        return {
            "search.hits": metrics["cache_hits"],
            "search.misses": metrics["cache_misses"],
            "search.scatter": metrics["scatter"],
            "search.single": metrics["single"],
            "fulltext.maintenance_ops": self.service.store.index.maintenance_ops,
        }

    def worker_pids(self) -> List[int]:
        return [worker.process.pid for worker in self.service._workers]

    def describe(self) -> str:
        return f"mode process  shards {self.shards}  documents {len(self.texts)}"

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


# -- docgen ------------------------------------------------------------------------


class Docgen(Workload):
    """The XQuery document generator on its default backend.

    Each document is preceded by a model edit (an update script plus the
    generator's export invalidation): the AWB loop of editing the model
    and regenerating.  Documents rotate through list, table, two ToC and
    one system-context template, so p50 and p90 fall inside template
    classes rather than on the boundary between two of them.
    """

    name = "docgen"
    read_tail = 0.90
    setup_repeats = 9
    SCALE = 3
    GROUPS = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.workloads import (
            make_it_model,
            simple_list_template,
            system_context_template,
            table_template,
            toc_heavy_template,
        )

        rng = random.Random(seed)
        model = make_it_model(scale=self.SCALE, seed=seed)
        # fixed templates: the seed varies the model's relations and the
        # edits, not the documents' size
        self.templates = [
            ("list", simple_list_template("User")),
            ("table", table_template("User", "Program", "uses")),
            ("toc", toc_heavy_template(3)),
            ("toc", toc_heavy_template(3)),
            ("system_context", system_context_template()),
        ]
        anchor = model.nodes_of_type("SystemBeingDesigned")[0].id
        self.writes = []
        for group in range(self.GROUPS):
            self.writes += _restore_group(rng, f"d{group}", "User", anchor, "has", "birthYear")
        self.model = None
        self.generator = None
        self.bytes_copied = 0

    def set_up(self) -> None:
        from repro.docgen import XQueryDocumentGenerator
        from repro.workloads import make_it_model, simple_list_template

        self.model = make_it_model(scale=self.SCALE, seed=self.seed)
        self.generator = XQueryDocumentGenerator(self.model)
        # the first document compiles the five phase programs
        self.generator.generate(simple_list_template("User"))

    def ops(self) -> List[Op]:
        result: List[Op] = []
        for index, (label, script, statements) in enumerate(self.writes):
            result.append(Op("write", label, lambda s=script: self._edit(s), self._edit_check(statements)))
            name, template = self.templates[index % len(self.templates)]
            result.append(
                Op("read", name, lambda t=template: self.generator.generate(t), self._doc_check(template))
            )
        return result

    def fingerprint(self) -> str:
        return repr((self.templates, self.writes))

    def _edit(self, script: str):
        from repro.xquery.updates import apply_script

        result = apply_script(script, self.model)
        self.generator.invalidate_export()
        return result

    def _edit_check(self, statements: int):
        def check(result) -> Optional[str]:
            if result.applied != statements:
                return f"applied {result.applied} of {statements} statements"
            return None

        return check

    def _doc_check(self, template: str):
        from repro.docgen import NativeDocumentGenerator
        from repro.xmlio import serialize

        def normalized(document) -> str:
            return " ".join(serialize(document).split())

        def check(result) -> Optional[str]:
            self.bytes_copied += result.metrics["bytes_copied_total"]
            native = NativeDocumentGenerator(self.model).generate(template)
            if normalized(result.document) != normalized(native.document):
                return "document differs from the native generator's"
            if [(e.level, e.text) for e in result.toc] != [(e.level, e.text) for e in native.toc]:
                return "table of contents differs from the native generator's"
            if sorted(result.visited_node_ids) != sorted(native.visited_node_ids):
                return "visited nodes differ from the native generator's"
            if len(result.problems) != len(native.problems):
                return "problem count differs from the native generator's"
            return None

        return check

    def counters(self) -> Dict[str, float]:
        return {"docgen.bytes_copied": self.bytes_copied}

    def describe(self) -> str:
        return f"backend {self.generator.engine.config.backend}  model n={len(self.model.nodes)}"


WORKLOADS = {cls.name: cls for cls in (CalcCold, ServedRW, SearchRW, Docgen)}
