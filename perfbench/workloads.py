"""The benchmark's workloads: lastfm-train, lastfm-rank and planted-pipeline.

They drive kgcn only through its public modules and `kgcn.cli.main`. Each
workload sets up from raw files several times, checks outputs against the
straight-line oracle in tests/oracle.py (untimed), then repeats its task for
the run's seconds. README.md says why each workload exists and which layer
metric should move which end-to-end metric.
"""

import contextlib
import ctypes
import gc
import hashlib
import importlib.util
import io
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kgcn import cli, data, evaluate, graph, model, numerics, trainer

import gen
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {"setup_s": "s", "task_s": "s", "op_ms_mean": "ms", "op_ms_p90": "ms",
                    "test_auc": "ratio", "peak_rss_mb": "MB"}
RATIOS = (6.0, 2.0, 2.0)
ORACLE_TOL = 1e-12
ORACLE_RECORDS = 8        # seeded records checked against the oracle
ORACLE_RANK_USERS = 2     # users whose whole ranking is rebuilt from oracle scores
TOP = 20

LASTFM_MODEL = model.ModelConfig(d=16, H=2, K=8)
LASTFM_ETA, LASTFM_LAM = 5e-4, 1e-4          # the paper's Last.FM settings
LASTFM_SETUP_GAPS = 8     # a set-up whenever --seconds / 8 has passed
RANK_BLOCK = 20           # users ranked per task
RANK_MIN_USERS = 100      # at least ten latency samples beyond p90

PLANTED_MODEL = model.ModelConfig(d=16, H=1, K=8)
PLANTED_SETUP_GAPS = 15
PLANTED_SETUP_BURST = 3   # set-ups each time one is due: one takes about 30 ms
PREDICTS_PER_PIPELINE = 40
PIPELINE_MIN_RUNS = 3     # 3 x 40 predict commands: at least ten beyond p90
AUC_MARGIN = 0.1          # KGCN must beat MF test AUC by this on planted data
PIPELINE_TRAIN_FLAGS = ["--epochs", "20", "--eta", "5e-3", "--lambda", "1e-5", "--repeat", "3"]


class Run:
    """One benchmark run: its settings, failure counts and tracer."""

    def __init__(self, seed, seconds, trace, work_dir, lastfm=gen.LastfmShape()):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = Path(work_dir)
        self.lastfm = lastfm
        self.tracer = Tracer() if trace else None
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = {}
        self.samples = {}
        self.nonzero_exits = 0
        self.overhead_pct = None

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    @contextlib.contextmanager
    def layers(self):
        """Spans around every wrapped kgcn call, in a traced run only."""
        if self.tracer is None:
            yield
            return
        install_spans(self.tracer)
        self.tracing = True
        try:
            yield
        finally:
            self.tracer.restore()
            self.tracing = False

    def span(self, name):
        return self.tracer.span(name) if self.tracing else contextlib.nullcontext()

    def _repeat(self, task, seconds, min_reps, setups):
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < min_reps or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            task()
            times.append(time.perf_counter() - t0)
            setups.between()
        return times

    def measure(self, task, min_reps, setups):
        """Repeat task for the run's seconds and return its durations.

        Between repetitions, setups takes its set-up samples. A traced run
        spends the first half untraced and the second traced, and records
        the difference of the two mean task times as the tracing overhead.
        """
        if self.tracer is None:
            return self._repeat(task, self.seconds, min_reps, setups)
        plain = self._repeat(task, self.seconds / 2, 1, setups)
        with self.layers():
            traced = self._repeat(task, self.seconds / 2, 1, setups)
        self.overhead_pct = 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
        return traced


# ---- set-up: raw files to a ready scorer ---------------------------------

@dataclass
class Ready:
    split: data.SplitDataset
    num_items: int
    sample: graph.NeighborSample
    scorer: model.KgcnScorer
    counts: dict


def set_up(raw_dir, work_dir, seed, config):
    """What `kgcn preprocess` then `kgcn train` do before the first batch."""
    raw_dir = Path(raw_dir)
    dataset, _, _, stats = data.preprocess(
        raw_dir / "ratings.tsv", raw_dir / "item2entity.tsv", seed=seed)
    final = Path(work_dir) / "final_ratings.txt"
    data.write_final_ratings(final, dataset)
    dataset = data.read_final_ratings(final, num_users=dataset.num_users,
                                      num_items=dataset.num_items)
    split = data.split(dataset, RATIOS, seed)
    triples, kg_entities, num_relations = graph.load_kg(raw_dir / "kg.txt")
    num_entities = max(kg_entities, dataset.num_items)
    adjacency = graph.build_adjacency(triples, num_entities)
    sample = graph.sample_neighborhood(adjacency, config.K, seed, num_relations)
    params = numerics.init_params(dataset.num_users, num_entities, num_relations,
                                  config.d, config.H, config.aggregator, seed)
    counts = {
        "users": dataset.num_users,
        "items": stats["items"],
        "positives": stats["interactions"],
        "entities": num_entities,
        "triples": len(triples),
        "train_records": len(split.train),
        "validation_records": len(split.validation),
        "test_records": len(split.test),
    }
    return Ready(split, dataset.num_items, sample, model.KgcnScorer(params, sample, config), counts)


def _digest(ready):
    h = hashlib.sha256()
    for part in (ready.split.train, ready.split.validation, ready.split.test):
        for a in (part.users, part.items, part.labels):
            h.update(a.tobytes())
    for a in (ready.sample.neighbors, ready.sample.relations, *dict(ready.scorer.params.blocks()).values()):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


try:
    MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):   # not glibc
    MALLOC_TRIM = None


def release_garbage():
    """Collect garbage and hand freed heap back to the OS (glibc only), so
    what comes next starts from the live data alone and not from however
    the previous task left the heap fragmented."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


class SetUps:
    """Set-up samples of one run, and the data they produced.

    One set-up runs before the task; it gives the data the task uses. The
    others are spread over the run: run.measure calls between() after every
    task repetition, and it sets up `burst` times whenever the run's seconds
    / `gaps` have passed since the last set-up, and always after the first
    repetition. The machine's speed drifts over seconds, so set-ups taken
    back to back catch one moment of it and their median jumps from run to
    run; spread ones see the same mix of speeds as the task. Garbage the
    task left is released, untimed, before each set-up: no set-up pays for
    collecting it, and peak RSS does not depend on how training fragmented
    the heap. Every set-up must produce the same data, sample and
    parameters.
    """

    def __init__(self, run, raw_dir, config, gaps, burst=1):
        self.run, self.raw_dir, self.config = run, raw_dir, config
        self.gap, self.burst = run.seconds / gaps, burst
        self.seconds, self.digests = [], set()
        with run.layers():
            self.ready = self._set_up()
        self.last = -math.inf
        run.counts = self.ready.counts

    def _set_up(self):
        release_garbage()
        t0 = time.perf_counter()
        ready = set_up(self.raw_dir, self.run.work_dir, self.run.seed, self.config)
        self.last = time.perf_counter()
        self.seconds.append(self.last - t0)
        self.digests.add(_digest(ready))
        return ready

    def between(self):
        if time.perf_counter() - self.last >= self.gap:
            for _ in range(self.burst):
                self._set_up()

    def median_s(self):
        self.run.check("set-up is deterministic", len(self.digests) == 1)
        return statistics.median(self.seconds)


# ---- oracle checks -------------------------------------------------------

def _tree(sample, item, H):
    """Receptive field of one item, built in plain Python from the sample."""
    layers, relations = [[item]], [[]]
    for _ in range(H):
        layers.append([int(n) for e in layers[-1] for n in sample.neighbors[e]])
        relations.append([int(r) for e in layers[-2] for r in sample.relations[e]])
    return layers, relations


def load_oracle():
    spec = importlib.util.spec_from_file_location("kgcn_oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class OracleScorer:
    """Probabilities from tests/oracle.straight_line_predict."""

    def __init__(self, scorer):
        self.predict = load_oracle().straight_line_predict
        p, self.config, self.sample = scorer.params, scorer.config, scorer.sample
        self.user = p.user
        self.tables = (p.entity.tolist(), p.relation.tolist(),
                       [w.tolist() for w in p.hop_weights], [b.tolist() for b in p.hop_biases])

    def score(self, users, items):
        ent, rel, hw, hb = self.tables
        cfg = self.config
        out = np.empty(len(items))
        for i, (u, v) in enumerate(zip(users, items)):
            layers, relations = _tree(self.sample, int(v), cfg.H)
            out[i] = self.predict(
                self.user[u].tolist(), layers, relations, ent, rel, hw, hb,
                cfg.aggregator, cfg.uniform_weights)
        return out


def check_oracle_records(run, name, scorer, dataset):
    rng = np.random.default_rng(run.seed)
    idx = rng.choice(len(dataset), size=min(ORACLE_RECORDS, len(dataset)), replace=False)
    users, items = dataset.users[idx], dataset.items[idx]
    got = scorer.score(users, items)
    want = OracleScorer(scorer).score(users, items)
    return run.check(name, bool(np.max(np.abs(got - want)) <= ORACLE_TOL))


class CapturingScorer:
    """Passes scores through and keeps what was scored."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.items = self.scores = None

    def score(self, users, items):
        self.items = np.asarray(items).copy()
        self.scores = self.scorer.score(users, items)
        return self.scores


def check_oracle_ranking(run, scorer, user_split, num_items):
    """topk_eval's scores and top-20 for one user equal the oracle's."""
    capture = CapturingScorer(scorer)
    recalls = evaluate.topk_eval(capture, user_split, num_items=num_items)
    tr, te = user_split.train, user_split.test
    candidates = np.setdiff1d(np.arange(num_items), tr.items[tr.labels == 1])
    ok = capture.items is not None and np.array_equal(capture.items, candidates)
    if ok:
        user = int(te.users[0])
        want = OracleScorer(scorer).score(np.full(candidates.size, user), candidates)
        ok = bool(np.max(np.abs(capture.scores - want)) <= ORACLE_TOL)
        got_top = candidates[np.lexsort((candidates, -capture.scores))][:TOP]
        want_top = sorted(range(candidates.size), key=lambda i: (-want[i], candidates[i]))[:TOP]
        want_top = candidates[want_top]
        positives = set(te.items[te.labels == 1].tolist())
        want_recall = sum(int(v) in positives for v in want_top) / len(positives)
        ok = ok and np.array_equal(got_top, want_top) and recalls[TOP] == want_recall
    return run.check("top-20 matches the oracle ranking", ok)


def user_splits(split, users):
    """{user: the split restricted to that user's records}."""
    parts = []
    for part in (split.train, split.validation, split.test):
        order = np.argsort(part.users, kind="stable")
        ordered = part.users[order]
        lo = np.searchsorted(ordered, users, "left")
        hi = np.searchsorted(ordered, users, "right")
        parts.append([part.subset(np.sort(order[a:b])) for a, b in zip(lo, hi)])
    return {int(u): data.SplitDataset(train=tr, validation=va, test=te, seed=split.seed)
            for u, tr, va, te in zip(users, *parts)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(run, setups, task_s, op_s, test_auc, **samples):
    """End-to-end metrics of a run. Op latency is reported as mean and p90:
    the machine's speed alternates between phases, and a median flips
    between them where a mean moves smoothly. The median goes to the record
    with the sample counts and every set-up time."""
    op_ms = np.asarray(op_s) * 1e3
    run.samples = {"setups": len(setups.seconds), "tasks": len(task_s), "ops": op_ms.size,
                   "op_ms_p50": float(np.median(op_ms)), "setup_s_all": setups.seconds, **samples}
    return {"setup_s": setups.median_s(), "task_s": statistics.fmean(task_s),
            "op_ms_mean": float(op_ms.mean()), "op_ms_p90": float(np.percentile(op_ms, 90)),
            "test_auc": test_auc}


@contextlib.contextmanager
def patched(owner, attr, fn):
    raw = getattr(owner, attr)
    setattr(owner, attr, fn)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


# ---- workloads -----------------------------------------------------------

def lastfm_train(run):
    """Train one epoch with validation, then CTR-evaluate the test split.

    The task restarts from the same seeded parameters every time, so every
    repetition does identical work and must give identical results. Only
    each repetition's losses and test AUC are kept, and the last trained
    scorer for the oracle check, so retained memory does not grow with the
    number of repetitions. The latency sample is one minibatch: the time
    between consecutive Adam steps inside one trainer.train call.
    """
    raw = gen.write_lastfm_like(run.work_dir / "raw", run.seed, run.lastfm)
    setups = SetUps(run, raw, LASTFM_MODEL, gaps=LASTFM_SETUP_GAPS)
    ready = setups.ready
    split, sample = ready.split, ready.sample
    check_oracle_records(run, "oracle match before training", ready.scorer, split.test)
    init = ready.scorer.params
    config = trainer.TrainConfig(eta=LASTFM_ETA, lam=LASTFM_LAM, batch_size=128,
                                 max_epochs=1, seed=run.seed)
    stamps, batch_s, results = [], [], []
    best_scorer = None
    adam_step = trainer.adam_step

    def stamped_adam(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    def task():
        nonlocal best_scorer
        stamps.clear()
        scorer = model.KgcnScorer(init.copy(), sample, LASTFM_MODEL)
        best, report = trainer.train(split, scorer, config)
        batch_s.extend(np.diff(stamps).tolist())
        run.attempted += len(stamps)
        best_scorer = model.KgcnScorer(best, sample, LASTFM_MODEL)
        results.append((report.train_loss, evaluate.ctr_eval(best_scorer, split.test)["auc"]))
        run.attempted += 1

    with patched(trainer, "adam_step", stamped_adam):
        task_s = run.measure(task, min_reps=1, setups=setups)
    losses, test_auc = results[-1]
    run.check("training loss is finite", all(np.isfinite(loss) for loss, _ in results))
    run.check("repeated training is bit-identical",
              all(r[0] == losses and r[1] == test_auc for r in results))
    check_oracle_records(run, "oracle match after training", best_scorer, split.test)
    return summary(run, setups, task_s, batch_s, test_auc)


def lastfm_rank(run):
    """Rank seeded users one at a time against the whole catalogue.

    Parameters are the seeded initial ones: ranking cost does not depend on
    training. The task is a block of RANK_BLOCK users; the latency sample is
    one user's topk_eval call.
    """
    raw = gen.write_lastfm_like(run.work_dir / "raw", run.seed, run.lastfm)
    setups = SetUps(run, raw, LASTFM_MODEL, gaps=LASTFM_SETUP_GAPS)
    ready = setups.ready
    split, scorer = ready.split, ready.scorer
    te = split.test
    rng = np.random.default_rng(run.seed)
    users = rng.permutation(np.unique(te.users[te.labels == 1]))
    splits = user_splits(split, users)
    for user in users[:ORACLE_RANK_USERS]:
        check_oracle_ranking(run, scorer, splits[user], ready.num_items)
    user_s = []

    def task():
        for _ in range(RANK_BLOCK):
            one = splits[users[len(user_s) % len(users)]]
            t0 = time.perf_counter()
            evaluate.topk_eval(scorer, one, num_items=ready.num_items)
            user_s.append(time.perf_counter() - t0)
            run.attempted += 1

    task_s = run.measure(task, min_reps=-(-RANK_MIN_USERS // RANK_BLOCK), setups=setups)
    test_auc = evaluate.ctr_eval(scorer, te)["auc"]
    return summary(run, setups, task_s, user_s, test_auc)


def planted_pipeline(run):
    """preprocess -> train (KGCN x3 seeds, MF x3) -> evaluate ctr -> evaluate
    topk -> predict --items all for PREDICTS_PER_PIPELINE users, all through
    kgcn.cli.main in this process. The latency sample is one predict command.
    """
    raw = gen.write_planted(run.work_dir / "raw", run.seed)
    setups = SetUps(run, raw, PLANTED_MODEL, gaps=PLANTED_SETUP_GAPS, burst=PLANTED_SETUP_BURST)
    ready = setups.ready
    check_oracle_records(run, "oracle match on planted data", ready.scorer, ready.split.test)
    rng = np.random.default_rng(run.seed)
    predict_users = rng.choice(ready.counts["users"],
                               size=min(PREDICTS_PER_PIPELINE, ready.counts["users"]), replace=False)
    out = run.work_dir / "pipeline"
    prep, kgcn_dir, mf_dir = out / "prep", out / "kgcn", out / "mf"
    seed = str(run.seed)
    ckpt = str(kgcn_dir / f"checkpoint_seed{seed}.kgcn")
    predict_s = []
    nonzero = []

    def command(name, argv):
        t0 = time.perf_counter()
        with run.span(f"cli.{name}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        run.attempted += 1
        if code != 0:
            run.failed += 1
            nonzero.append((name, code))
        return time.perf_counter() - t0

    def task():
        command("preprocess", ["preprocess", "--ratings", str(raw / "ratings.tsv"),
                               "--kg", str(raw / "kg.txt"),
                               "--item2entity", str(raw / "item2entity.tsv"),
                               "--out-dir", str(prep), "--seed", seed])
        command("train", ["train", "--data-dir", str(prep), "--out-dir", str(kgcn_dir),
                          "--H", "1", "--seed", seed, *PIPELINE_TRAIN_FLAGS])
        command("train", ["train", "--data-dir", str(prep), "--out-dir", str(mf_dir),
                          "--model", "mf", "--seed", seed, *PIPELINE_TRAIN_FLAGS])
        command("evaluate_ctr", ["evaluate", "--checkpoint", ckpt, "--data-dir", str(prep),
                                 "--mode", "ctr"])
        command("evaluate_topk", ["evaluate", "--checkpoint", ckpt, "--data-dir", str(prep),
                                  "--mode", "topk"])
        for user in predict_users:
            predict_s.append(command("predict", [
                "predict", "--checkpoint", ckpt, "--data-dir", str(prep),
                "--user", str(user), "--items", "all"]))

    task_s = run.measure(task, min_reps=PIPELINE_MIN_RUNS, setups=setups)
    run.nonzero_exits = len(nonzero)
    seeds = [run.seed + r for r in range(3)]
    try:
        kgcn_auc = [json.loads((kgcn_dir / f"checkpoint_seed{s}.kgcn.json").read_text())["test_auc"]
                    for s in seeds]
        mf_auc = [json.loads((mf_dir / f"checkpoint_seed{s}.kgcn.json").read_text())["test_auc"]
                  for s in seeds]
    except (OSError, KeyError, ValueError):
        kgcn_auc, mf_auc = [float("nan")], [float("nan")]
    test_auc = statistics.fmean(kgcn_auc)
    run.check("all CLI commands exit 0", not nonzero)
    run.check("KGCN test AUC beats MF by the margin",
              bool(test_auc - statistics.fmean(mf_auc) >= AUC_MARGIN))
    return summary(run, setups, task_s, predict_s, test_auc,
                   kgcn_test_auc=kgcn_auc, mf_test_auc=mf_auc)


WORKLOADS = {
    "lastfm-train": lastfm_train,
    "lastfm-rank": lastfm_rank,
    "planted-pipeline": planted_pipeline,
}


# ---- traced run: spans and per-layer metrics ------------------------------

def install_spans(t):
    def tree_counts(args, result):
        sample, ent_layers = args[0], result[0]
        seen = np.zeros(sample.neighbors.shape[0], dtype=bool)
        for layer in ent_layers:
            seen[layer.ravel()] = True
        t.count("graph.tree_slots", sum(layer.size for layer in ent_layers))
        t.count("graph.distinct_entities", int(seen.sum()))

    def sample_counts(args, result):
        adjacency, K = args[0], args[1]
        degree = np.fromiter(map(len, adjacency), dtype=np.int64, count=len(adjacency))
        t.count("graph.isolated_entities", int(np.sum(degree == 0)))
        t.count("graph.replacement_entities", int(np.sum((degree > 0) & (degree < K))))

    def scatter_rows(args, result):
        state = args[0]
        rows = sum(a.size for a in state.ent_layers) + state.user_idx.size
        if not state.config.uniform_weights:
            rows += sum(a.size for a in state.rel_layers[1:])
        t.count("model.scatter_rows", rows)

    def param_count(args, result):
        t.count("numerics.param_count", sum(a.size for _, a in args[0].blocks()))

    def recall(args, result):
        if TOP in result:
            t.count("evaluate.recall_at_20", float(result[TOP]))

    for owner, attr, name, on_return in (
        (data, "preprocess", "data.preprocess", None),
        (data, "read_final_ratings", "data.read_final_ratings", None),
        (graph, "load_kg", "graph.load_kg", None),
        (cli, "load_kg", "graph.load_kg", None),
        (graph, "sample_neighborhood", "graph.sample_neighborhood", sample_counts),
        (cli, "sample_neighborhood", "graph.sample_neighborhood", sample_counts),
        (model, "batched_layers", "graph.batched_layers", tree_counts),
        (model, "forward_layers", "model.forward", None),
        (model, "backward_layers", "model.backward", scatter_rows),
        (numerics.GradientStore, "zeros_like", "model.zero_grad", None),
        (model, "aggregate", "model.aggregate", None),
        (model, "softmax", "model.softmax", None),
        (model.KgcnScorer, "score", "model.score", None),
        (trainer, "adam_step", "numerics.adam", param_count),
        (cli, "save_checkpoint", "numerics.save_checkpoint", None),
        (cli, "load_checkpoint", "numerics.load_checkpoint", None),
        (trainer, "train", "trainer.train", None),
        (cli, "train", "trainer.train", None),
        (trainer, "batch_loss", "trainer.batch_loss", None),
        (trainer, "ctr_eval", "trainer.validation", None),
        (evaluate, "ctr_eval", "evaluate.ctr_eval", None),
        (evaluate, "auc", "evaluate.auc", None),
        (evaluate, "topk_eval", "evaluate.topk_eval", recall),
    ):
        t.wrap(owner, attr, name, on_return)


ADAM_ARRAYS_TOUCHED = 7   # theta r/w, gradient r, first and second moment r/w


def layer_metrics(run):
    """Per-layer metrics from the spans of a traced run.

    `_ms`/`_s` metrics are the mean per call of the named span unless said
    otherwise; counts are means per call of the span they are taken at.
    """
    t = run.tracer

    def mean_count(name):
        values = t.counts.get(name, [])
        return float(statistics.fmean(values)) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    train_ids = t.ids("trainer.train")
    batches = sum(len(t.children(i, "numerics.adam")) for i in train_ids)
    validation = sum(t.duration(c) for i in train_ids for c in t.children(i, "trainer.validation"))
    train_total = sum(t.duration(i) for i in train_ids)
    train_self = sum(t.self_time(i) for i in train_ids)
    topk_ids = t.ids("evaluate.topk_eval")
    topk_total = sum(t.duration(i) for i in topk_ids)
    topk_score = sum(t.duration(c) for i in topk_ids for c in t.children(i, "model.score"))
    slots = sum(t.counts.get("graph.tree_slots", []))
    distinct = sum(t.counts.get("graph.distinct_entities", []))
    params = mean_count("numerics.param_count")
    last = {name: float(t.counts[name][-1]) if t.counts.get(name) else 0.0
            for name in ("graph.isolated_entities", "graph.replacement_entities")}

    m = {
        "data.preprocess_s": (t.mean("data.preprocess"), "s"),
        "data.read_final_ratings_s": (t.mean("data.read_final_ratings"), "s"),
        "graph.load_kg_s": (t.mean("graph.load_kg"), "s"),
        "graph.sample_neighborhood_s": (t.mean("graph.sample_neighborhood"), "s"),
        "graph.batched_layers_ms": (1e3 * t.mean("graph.batched_layers"), "ms"),
        "graph.tree_slots": (mean_count("graph.tree_slots"), "count"),
        "graph.distinct_entities": (mean_count("graph.distinct_entities"), "count"),
        "graph.distinct_slot_ratio": (ratio(distinct, slots), "ratio"),
        "graph.isolated_entities": (last["graph.isolated_entities"], "count"),
        "graph.replacement_entities": (last["graph.replacement_entities"], "count"),
        "model.forward_ms": (1e3 * t.mean("model.forward"), "ms"),
        "model.backward_ms": (1e3 * t.mean("model.backward"), "ms"),
        "model.zero_grad_ms": (1e3 * t.mean("model.zero_grad"), "ms"),
        "model.aggregate_ms": (1e3 * t.mean("model.aggregate"), "ms"),
        "model.aggregate_calls": (ratio(len(t.ids("model.aggregate")), len(t.ids("model.forward"))), "count"),
        "model.softmax_ms": (1e3 * t.mean("model.softmax"), "ms"),
        "model.scatter_rows": (mean_count("model.scatter_rows"), "count"),
        "model.score_ms": (1e3 * t.mean("model.score"), "ms"),
        "numerics.adam_ms": (1e3 * t.mean("numerics.adam"), "ms"),
        "numerics.param_count": (params, "count"),
        "numerics.adam_bytes": (8.0 * ADAM_ARRAYS_TOUCHED * params, "bytes"),
        "numerics.save_checkpoint_ms": (1e3 * t.mean("numerics.save_checkpoint"), "ms"),
        "numerics.load_checkpoint_ms": (1e3 * t.mean("numerics.load_checkpoint"), "ms"),
        "trainer.batch_loss_ms": (1e3 * t.mean("trainer.batch_loss"), "ms"),
        "trainer.step_ms": (1e3 * ratio(train_total - validation, batches), "ms"),
        "trainer.other_ms": (1e3 * ratio(train_self, batches), "ms"),
        "trainer.validation_s": (t.mean("trainer.validation"), "s"),
        "evaluate.ctr_eval_s": (t.mean("evaluate.ctr_eval"), "s"),
        "evaluate.auc_ms": (1e3 * t.mean("evaluate.auc"), "ms"),
        "evaluate.rank_overhead_ms": (1e3 * ratio(topk_total - topk_score, len(topk_ids)), "ms"),
        "evaluate.score_share": (ratio(topk_score, topk_total), "ratio"),
        "evaluate.recall_at_20": (mean_count("evaluate.recall_at_20"), "ratio"),
        "cli.preprocess_s": (t.mean("cli.preprocess"), "s"),
        "cli.train_s": (t.mean("cli.train"), "s"),
        "cli.evaluate_ctr_s": (t.mean("cli.evaluate_ctr"), "s"),
        "cli.evaluate_topk_s": (t.mean("cli.evaluate_topk"), "s"),
        "cli.predict_s": (t.mean("cli.predict"), "s"),
        "cli.nonzero_exits": (float(run.nonzero_exits), "count"),
        "trace.overhead_pct": (run.overhead_pct, "%"),
    }
    for key in ("users", "items", "positives", "entities", "triples"):
        m[f"data.{key}"] = (float(run.counts.get(key, 0)), "count")
    return m
