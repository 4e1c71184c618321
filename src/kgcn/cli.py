"""Command-line entry point: preprocess, train, evaluate, sweep, predict.

A model setting is checked only by ModelConfig, any other input where it
enters (flag, input file, stats.json, checkpoint, sidecar); the code behind
trusts it. A command runs in three steps: argparse reads and checks each flag;
the command reads and checks its inputs and builds every config it will use;
only then does it create --out-dir and write to it. train and sweep share one
loop, _trained: config i trains at seed --seed + i on the split at --seed.

A data dir's stats.json gives its counts to every command; train and sweep
refuse a kg.txt naming more entities or relations than it counts. train
writes, per seed, a checkpoint (numerics' format: KgcnScorer's three
arguments) and beside it a JSON run-config sidecar, <checkpoint>.json.
predict reads only the checkpoint and stats.json; evaluate also reads
final_ratings.txt and the sidecar's ratios and split_seed, to redraw the
split the checkpoint was trained on.

Logs go to stderr, data (CSV/metrics) to stdout or files. Every CSV table
is written by numerics.write_csv: a float as the shortest decimal that
round-trips (so float() reads back the exact value), and a metric that was
not computed, such as val_auc on an epoch without validation, as nan. Exit
codes: 0 success, 1 a usage error or not enough memory, else the raised error
type's exit_code (errors.py); an OSError is a DataError.
Flags mirror the model hyperparameters (K, d, H, lambda, eta, batch-size)
so published settings can be pasted directly. A numeric flag follows the rule
of the input files: an int is ASCII decimal digits with an optional sign, and
a float holds neither "_" nor a non-ASCII character and is finite.

main(argv) may be called many times in one process, as a test or a benchmark
does: the parser is built on the first call and reused after it, and main
returns the exit code and never calls sys.exit.
"""

import argparse
import functools
import itertools
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import evaluate as eval_mod
from .errors import ConfigError, DataError, KgcnError
from .graph import DECIMAL, INDEX_LIMIT, build_adjacency, load_kg, write_int_table
from .graph import sample_neighborhood  # noqa: F401  unused here; perfbench traces it by name
from .model import KgcnScorer, ModelConfig
from .numerics import AGGREGATORS, load_checkpoint, replacing, save_checkpoint, write_csv
from .trainer import TrainConfig, check_trainable, train_kgcn
from .trainer import train  # noqa: F401  unused here; perfbench traces cli.train by name

log = logging.getLogger("kgcn")

# JSON types of the run-config sidecar keys that evaluate reads and the stats.json keys
# that every command reads; a JSON bool is not an int, and no int there is negative
SIDECAR_TYPES = {"ratios": str, "split_seed": int}
STATS_TYPES = {"users": int, "num_items_prefix": int, "entities": int, "relations": int}


def _int(text):
    """An int flag's value; int() alone also reads "1_0" as 10 and "\u0663" as 3."""
    if not DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"needs a decimal integer, got {text!r}")
    return int(text)


def _at_least(least):
    """The type of an int flag whose value must be >= least."""
    def parse(text):
        value = _int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text!r}")
        return value
    return parse


def _ints(entry):
    """The type of a flag holding one or more comma-separated values of the
    int flag type `entry`; spaces around a value and empty values are skipped."""
    def parse(text):
        try:
            values = [entry(v.strip()) for v in text.split(",") if v.strip()]
        except argparse.ArgumentTypeError as e:
            raise argparse.ArgumentTypeError(f"{text!r}: {e}") from None
        if not values:
            raise argparse.ArgumentTypeError(
                f"needs one or more comma-separated integers, got {text!r}")
        return values
    return parse


def _items(text):
    """A --items value: None for "all", the whole catalogue, else the listed
    item indices."""
    return None if text == "all" else _ints(_int)(text)


def _float(text):
    """A finite float flag's value, refused as a rating is: float() alone
    reads "1_0" as 10.0 and "\u0661" as 1.0."""
    if text.isascii() and "_" not in text:
        try:
            if math.isfinite(value := float(text)):
                return value
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"needs a finite decimal number, got {text!r}")


def _add_model_flags(p):
    p.add_argument("--K", type=_int, default=8, help="neighbor sample size")
    p.add_argument("--d", type=_int, default=16, help="embedding dimension")
    p.add_argument("--H", type=_int, default=1, help="receptive-field depth")
    p.add_argument("--aggregator", choices=AGGREGATORS, default="sum")
    p.add_argument("--uniform-weights", action="store_true",
                   help="replace user-relation softmax weights by uniform 1/K")
    p.add_argument("--model", choices=("kgcn", "mf"), default="kgcn",
                   help="mf = H=0: σ(<user, item embedding>); ignores the KG, --H, "
                        "--aggregator and --uniform-weights")


def _add_train_flags(p):
    p.add_argument("--lambda", dest="lam", type=_float, default=1e-4, help="L2 weight")
    p.add_argument("--eta", type=_float, default=5e-4, help="learning rate")
    p.add_argument("--batch-size", type=_int, default=128)
    p.add_argument("--epochs", type=_int, default=20)
    p.add_argument("--ratios", default="6:2:2", help="train:val:test split ratios")
    p.add_argument("--repeat", type=_at_least(1), default=1, help="number of seeded repetitions")


def _add_common_flags(p):
    # numpy's generators take only non-negative seeds
    p.add_argument("--seed", type=_at_least(0), default=2019)


@functools.cache
def build_parser():
    """The argparse parser of every command. It is built once per process and
    cached, because building its five subparsers costs more than a predict on
    a small catalogue. Reusing it is safe: parse_args keeps no state on the
    parser, each call returns a fresh Namespace, and usage errors and --help
    look up sys.stdout and sys.stderr when they print. Every caller gets the
    same parser, so none may add to it."""
    parser = argparse.ArgumentParser(
        prog="kgcn",
        description="Knowledge-graph convolutional recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build final ratings + KG files from raw inputs")
    p.add_argument("--ratings", required=True, help="raw ratings file (user, item, rating)")
    p.add_argument("--kg", required=True,
                   help="triple file: whitespace-separated head relation tail per line")
    p.add_argument("--item2entity", required=True, help="raw item id -> entity index mapping")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--delimiter", choices=sorted(data_mod.DELIMITERS), default="tab")
    p.add_argument("--threshold", type=_float, default=None,
                   help="keep ratings >= threshold as positives; unset keeps all")
    p.add_argument("--skip-header", action="store_true", help="ignore the first line")
    _add_common_flags(p)

    p = sub.add_parser("train", help="train on a preprocessed directory")
    p.add_argument("--data-dir", required=True, help="directory written by preprocess")
    p.add_argument("--out-dir", required=True)
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--mode", choices=("ctr", "topk"), default="ctr")
    p.add_argument("--split", choices=("train", "validation", "test"), default="test",
                   help="records to score; --mode topk ranks the test split only")
    p.add_argument("--k-list", type=_ints(_at_least(1)), default=eval_mod.DEFAULT_K_LIST)

    p = sub.add_parser("sweep", help="train across a grid of one hyperparameter")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--parameter", choices=("K", "H", "d"), required=True)
    p.add_argument("--values", type=_ints(_int), required=True, help="comma-separated integers")
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("predict", help="rank items for one user from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--user", type=_int, required=True)
    p.add_argument("--items", type=_items, default=None,
                   help="'all' (the default) or comma-separated item indices")
    p.add_argument("--k", type=_at_least(1), default=10)

    return parser


def cmd_preprocess(args):
    delim = data_mod.DELIMITERS[args.delimiter]
    dataset, user_index, item2entity, stats = data_mod.preprocess(
        args.ratings, args.item2entity,
        delimiter=delim, threshold=args.threshold,
        seed=args.seed, skip_header=args.skip_header,
    )
    triples, kg_entities, num_relations = load_kg(args.kg)
    num_entities = max(kg_entities, dataset.num_items)
    isolated = np.count_nonzero(build_adjacency(triples, num_entities).degree == 0)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_mod.write_final_ratings(out_dir / "final_ratings.txt", dataset)
    write_int_table(out_dir / "kg.txt", triples.T)
    with open(out_dir / "user_index.tsv", "w", encoding="utf-8") as f:
        for raw, idx in sorted(user_index.items(), key=lambda kv: kv[1]):
            f.write(f"{raw}\t{idx}\n")
    with open(out_dir / "item_index.tsv", "w", encoding="utf-8") as f:
        for raw, idx in sorted(item2entity.items(), key=lambda kv: (kv[1], kv[0])):
            f.write(f"{raw}\t{idx}\n")

    full_stats = {
        "users": stats["users"],
        "items": stats["items"],
        "interactions": stats["interactions"],
        "entities": num_entities,
        "relations": num_relations,
        "kg_triples": len(triples),
        "isolated_entities": int(isolated),
        "dropped_unmapped": stats["dropped_unmapped"],
        "num_items_prefix": dataset.num_items,
        "seed": args.seed,
        "threshold": args.threshold,
    }
    with open(out_dir / "stats.json", "w", encoding="utf-8") as f:
        json.dump(full_stats, f, indent=2)
    for key in ("users", "items", "interactions", "entities", "relations", "kg_triples"):
        print(f"# {key.replace('_', ' ')}: {full_stats[key]}")


def _read_stats(data_dir):
    stats = _read_json(Path(data_dir) / "stats.json", STATS_TYPES)
    users, items = stats["users"], stats["num_items_prefix"]
    entities, relations = stats["entities"], stats["relations"]
    if not (items <= entities <= INDEX_LIMIT and max(users, relations) <= INDEX_LIMIT):
        raise DataError(f"{data_dir}: stats.json needs items <= entities <= {INDEX_LIMIT} and "
                        f"users and relations <= {INDEX_LIMIT}, got {items}, {entities}, "
                        f"{users} and {relations}")
    return stats


def _read_dataset(data_dir, stats):
    return data_mod.read_final_ratings(Path(data_dir) / "final_ratings.txt",
                                       stats["users"], stats["num_items_prefix"])


def _load_preprocessed(data_dir):
    """(dataset, adjacency, num_relations) of a data dir, on stats.json's E and R."""
    stats = _read_stats(data_dir)
    E, R = stats["entities"], stats["relations"]
    triples, kg_entities, kg_relations = load_kg(Path(data_dir) / "kg.txt")
    if kg_entities > E or kg_relations > R:
        raise DataError(f"{data_dir}: kg.txt names {kg_entities} entities and {kg_relations} "
                        f"relations, more than stats.json's {E} and {R}")
    return _read_dataset(data_dir, stats), build_adjacency(triples, E), R


def _read_json(path, types):
    """A JSON object from a file this CLI wrote, in which each key of `types`
    is present and holds a value of exactly that type; anything else is a
    DataError."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:
        raise DataError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    missing = [key for key in types if key not in obj]
    if missing:
        raise DataError(f"{path}: missing {', '.join(missing)}")
    for key, kind in types.items():
        if type(obj[key]) is not kind or kind is int and obj[key] < 0:
            kind_name = "non-negative int" if kind is int else kind.__name__
            raise DataError(f"{path}: {key} must be a {kind_name}, got {obj[key]!r}")
    return obj


def _parse_ratios(text):
    try:
        return tuple(_float(x) for x in text.split(":"))
    except argparse.ArgumentTypeError:
        raise ConfigError(f"bad ratio spec {text!r}") from None


def _model_config(args):
    mf = args.model == "mf"
    return ModelConfig(
        d=args.d, H=0 if mf else args.H, K=args.K,
        aggregator="mf" if mf else args.aggregator,
        uniform_weights=args.uniform_weights and not mf,
    )


def _trained(args, model_configs):
    """A generator training the i-th of model_configs at seed --seed + i on
    --data-dir's split at --seed; it yields (scorer, TrainReport, test
    metrics) per config. It builds the TrainConfig and the split, reads the data
    dir and checks the scored parts' labels first, so a bad input raises here."""
    train_cfg = TrainConfig(eta=args.eta, lam=args.lam, batch_size=args.batch_size,
                            max_epochs=args.epochs, seed=args.seed)
    dataset, adjacency, num_relations = _load_preprocessed(args.data_dir)
    split = data_mod.split(dataset, _parse_ratios(args.ratios), args.seed)
    check_trainable(split.train, train_cfg)
    eval_mod.check_labels(split.test)
    if len(split.validation):
        eval_mod.check_labels(split.validation)

    def train_each():
        for i, model_cfg in enumerate(model_configs):
            scorer, report = train_kgcn(split, adjacency, num_relations, model_cfg,
                                        replace(train_cfg, seed=args.seed + i))
            yield scorer, report, eval_mod.ctr_eval(scorer, split.test)
    return train_each()


def cmd_train(args):
    model_cfg = _model_config(args)
    # an iterator, not a list, because --repeat may be huge
    runs = _trained(args, itertools.repeat(model_cfg, args.repeat))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    test_rows = []
    for rep, (best_scorer, report, metrics) in enumerate(runs):
        seed = args.seed + rep
        test_rows.append((seed, metrics["auc"], metrics["f1"]))

        ckpt = out_dir / f"checkpoint_seed{seed}.kgcn"
        sidecar = {
            "model": args.model,
            "K": model_cfg.K, "d": model_cfg.d, "H": model_cfg.H,
            "aggregator": model_cfg.aggregator, "uniform_weights": model_cfg.uniform_weights,
            "seed": seed, "split_seed": args.seed, "ratios": args.ratios,
            "eta": args.eta, "lambda": args.lam, "batch_size": args.batch_size,
            "epochs": args.epochs, "best_epoch": report.best_epoch,
            "test_auc": metrics["auc"], "test_f1": metrics["f1"],
        }
        # the checkpoint is renamed into place once the whole sidecar is written, and the
        # sidecar right after it, so an error while writing either leaves the old pair
        with replacing(str(ckpt) + ".json", "w") as f:
            json.dump(sidecar, f, indent=2)
            f.flush()
            save_checkpoint(ckpt, best_scorer.params, best_scorer.sample, best_scorer.config)
        report.write_csv(out_dir / f"train_report_seed{seed}.csv")
        log.info("repeat %d (seed %d): test_auc=%.4f test_f1=%.4f",
                 rep, seed, metrics["auc"], metrics["f1"])

    aucs, f1s = np.array([row[1:] for row in test_rows]).T
    with open(out_dir / "test_metrics.csv", "w", encoding="utf-8") as f:
        write_csv(f, ("seed", "test_auc", "test_f1"), test_rows)
    print(f"test_auc_mean: {aucs.mean():.6f}")
    print(f"test_auc_std: {aucs.std(ddof=0):.6f}")
    print(f"test_f1_mean: {f1s.mean():.6f}")
    print(f"test_f1_std: {f1s.std(ddof=0):.6f}")


def _load_scorer(checkpoint, data_dir):
    """(scorer, stats) from a checkpoint and the stats.json of the data dir
    it was trained on."""
    scorer = KgcnScorer(*load_checkpoint(checkpoint))
    stats = _read_stats(data_dir)
    params = scorer.params
    trained = (params.num_users, params.num_entities, params.relation.shape[0] - 1)
    found = (stats["users"], stats["entities"], stats["relations"])
    if trained != found:
        raise DataError(
            f"checkpoint was trained on {trained[0]} users, {trained[1]} entities and "
            f"{trained[2]} relations but {data_dir} has {found[0]}, {found[1]} and {found[2]}"
        )
    return scorer, stats


def cmd_evaluate(args):
    if args.mode == "topk" and args.split != "test":
        raise ConfigError(f"--mode topk ranks the test split only, got --split {args.split}")
    scorer, stats = _load_scorer(args.checkpoint, args.data_dir)
    sidecar = _read_json(f"{args.checkpoint}.json", SIDECAR_TYPES)
    dataset = _read_dataset(args.data_dir, stats)
    try:
        split = data_mod.split(dataset, _parse_ratios(sidecar["ratios"]), sidecar["split_seed"])
    except ConfigError as e:
        raise DataError(f"{args.checkpoint}.json: {e}") from None
    part = getattr(split, args.split)
    if args.mode == "ctr":
        write_csv(sys.stdout, ("metric", "value"), eval_mod.ctr_eval(scorer, part).items())
    else:
        recalls = eval_mod.topk_eval(scorer, split, k_list=args.k_list)
        write_csv(sys.stdout, ("k", "recall"), sorted(recalls.items()))


def cmd_sweep(args):
    base = _model_config(args)
    runs = _trained(args, [replace(base, **{args.parameter: value}) for value in args.values])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, (_, _, metrics) in zip(args.values, runs):
        log.info("sweep %s=%s: test_auc=%.4f test_f1=%.4f",
                 args.parameter, value, metrics["auc"], metrics["f1"])
        rows.append((args.parameter, value, metrics["auc"], metrics["f1"]))
    header = ("parameter", "value", "test_auc", "test_f1")
    with open(out_dir / f"sweep_{args.parameter}.csv", "w", encoding="utf-8") as f:
        write_csv(f, header, rows)
    write_csv(sys.stdout, header, rows)


def cmd_predict(args):
    scorer, stats = _load_scorer(args.checkpoint, args.data_dir)
    num_users, num_items = stats["users"], stats["num_items_prefix"]
    if not 0 <= args.user < num_users:
        raise DataError(f"unknown user index {args.user} (have {num_users} users)")
    if args.items is None:
        items = np.arange(num_items, dtype=np.int64)
    else:
        if min(args.items) < 0 or max(args.items) >= num_items:   # before int64 could overflow
            raise DataError(f"item index out of range [0, {num_items})")
        items = np.unique(args.items)   # each listed item is ranked once
    items, scores = eval_mod.rank(scorer, args.user, items)
    write_csv(sys.stdout, ("item", "score"), zip(items[:args.k], scores[:args.k]))


COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "predict": cmd_predict,
}


def main(argv=None):
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which this CLI reports as 1
        return 0 if e.code == 0 else 1
    try:
        COMMANDS[args.command](args)
    except KgcnError as e:
        log.error("%s: %s", e.label, e)
        return e.exit_code
    except OSError as e:
        log.error("%s: %s", DataError.label, e)
        return DataError.exit_code
    except MemoryError as e:
        log.error("not enough memory: %s", e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
