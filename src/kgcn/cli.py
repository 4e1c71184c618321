"""Command-line entry point: preprocess, train, evaluate, sweep, predict.

Logs go to stderr, data (CSV/metrics) to stdout or files. In the CSV output
every float is written as the shortest decimal that round-trips (so float()
reads back the exact value), and a metric that was not computed, such as
val_auc on an epoch without validation, is written as nan. Exit codes:
0 success, 1 usage/config error, 2 data error, 3 numerical failure.
Flags mirror the model hyperparameters (K, d, H, lambda, eta, batch-size)
so published settings can be pasted directly.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import evaluate as eval_mod
from .errors import ConfigError, DataError, KgcnError, NumericalError
from .graph import build_adjacency, load_kg, sample_neighborhood
from .model import KgcnScorer, MfScorer, ModelConfig
from .numerics import format_float, init_params, load_checkpoint, save_checkpoint
from .trainer import TrainConfig, sweep, train, train_kgcn, write_sweep_csv

log = logging.getLogger("kgcn")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# JSON types of the run-config sidecar keys that evaluate and predict read,
# and of the stats.json keys read when present; a JSON bool is not an int
SIDECAR_TYPES = {"K": int, "seed": int, "ratios": str, "split_seed": int}
STATS_TYPES = {"users": int, "num_items_prefix": int}


def _add_model_flags(p):
    p.add_argument("--K", type=int, default=8, help="neighbor sample size")
    p.add_argument("--d", type=int, default=16, help="embedding dimension")
    p.add_argument("--H", type=int, default=1, help="receptive-field depth")
    p.add_argument("--aggregator", choices=("sum", "concat", "neighbor"), default="sum")
    p.add_argument("--uniform-weights", action="store_true",
                   help="replace user-relation softmax weights by uniform 1/K")
    p.add_argument("--model", choices=("kgcn", "mf"), default="kgcn",
                   help="kgcn or the inner-product baseline (ignores the KG)")


def _add_train_flags(p):
    p.add_argument("--lambda", dest="lam", type=float, default=1e-4, help="L2 weight")
    p.add_argument("--eta", type=float, default=5e-4, help="learning rate")
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--eval-every", type=int, default=1)
    p.add_argument("--ratios", default="6:2:2", help="train:val:test split ratios")
    p.add_argument("--repeat", type=int, default=1, help="number of seeded repetitions")


def _add_common_flags(p):
    p.add_argument("--seed", type=int, default=2019)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgcn",
        description="Knowledge-graph convolutional recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build final ratings + KG files from raw inputs")
    p.add_argument("--ratings", required=True, help="raw ratings file (user, item, rating)")
    p.add_argument("--kg", required=True, help="triple file: head<TAB>relation<TAB>tail")
    p.add_argument("--item2entity", required=True, help="raw item id -> entity index mapping")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--delimiter", choices=sorted(data_mod.DELIMITERS), default="tab")
    p.add_argument("--threshold", type=float, default=None,
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
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.add_argument("--k-list", default="1,2,5,10,20,50,100")
    _add_common_flags(p)

    p = sub.add_parser("sweep", help="train across a grid of one hyperparameter")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--parameter", choices=("K", "H", "d"), required=True)
    p.add_argument("--values", required=True, help="comma-separated integers")
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("predict", help="rank items for one user from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--items", default="all", help="'all' or comma-separated item indices")
    p.add_argument("--k", type=int, default=10)
    _add_common_flags(p)

    return parser


def cmd_preprocess(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    delim = data_mod.DELIMITERS[args.delimiter]
    dataset, user_index, item2entity, stats = data_mod.preprocess(
        args.ratings, args.item2entity,
        delimiter=delim, threshold=args.threshold,
        seed=args.seed, skip_header=args.skip_header,
    )
    triples, kg_entities, num_relations = load_kg(args.kg)
    num_entities = max(kg_entities, dataset.num_items)

    data_mod.write_final_ratings(out_dir / "final_ratings.txt", dataset)
    with open(out_dir / "kg.txt", "w", encoding="utf-8") as f:
        for h, r, t in triples:
            f.write(f"{h}\t{r}\t{t}\n")
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
        "dropped_unmapped": stats["dropped_unmapped"],
        "num_items_prefix": dataset.num_items,
        "seed": args.seed,
        "threshold": args.threshold,
    }
    with open(out_dir / "stats.json", "w", encoding="utf-8") as f:
        json.dump(full_stats, f, indent=2)
    for key in ("users", "items", "interactions", "entities", "relations", "kg_triples"):
        print(f"# {key.replace('_', ' ')}: {full_stats[key]}")
    return EXIT_OK


def _load_preprocessed(data_dir):
    """Read the artifacts written by cmd_preprocess."""
    data_dir = Path(data_dir)
    stats_path = data_dir / "stats.json"
    num_users = num_items = None
    if stats_path.exists():
        stats = _read_json(stats_path, STATS_TYPES, required=False)
        num_users = stats.get("users")
        num_items = stats.get("num_items_prefix")
    dataset = data_mod.read_final_ratings(
        data_dir / "final_ratings.txt", num_users=num_users, num_items=num_items
    )
    triples, kg_entities, num_relations = load_kg(data_dir / "kg.txt")
    num_entities = max(kg_entities, dataset.num_items)
    return dataset, triples, num_entities, num_relations


def _read_json(path, types, required):
    """A JSON object from a file this CLI wrote, in which each key of `types`
    holds a value of exactly that type; every such key must be present if
    `required`. Anything else is a DataError."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:
        raise DataError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    missing = [key for key in types if key not in obj]
    if required and missing:
        raise DataError(f"{path}: missing {', '.join(missing)}")
    for key, kind in types.items():
        if key in obj and type(obj[key]) is not kind:
            raise DataError(f"{path}: {key} must be {kind.__name__}, got {obj[key]!r}")
    return obj


def _int_list(text, flag):
    """The integers of a comma-separated flag value; empty entries are skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _parse_ratios(text):
    try:
        parts = tuple(float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"bad ratio spec {text!r}") from None
    if len(parts) != 3:
        raise ConfigError(f"ratios need three parts, got {text!r}")
    return parts


def _model_config(args):
    return ModelConfig(
        d=args.d, H=args.H, K=args.K,
        aggregator=args.aggregator,
        uniform_weights=args.uniform_weights,
    ).validate()


def _train_config(args, seed):
    return TrainConfig(
        eta=args.eta, lam=args.lam, batch_size=args.batch_size,
        max_epochs=args.epochs, seed=seed, eval_every=args.eval_every,
    ).validate()


def cmd_train(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.repeat < 1:
        raise ConfigError(f"--repeat must be >= 1, got {args.repeat}")
    dataset, triples, num_entities, num_relations = _load_preprocessed(args.data_dir)
    ratios = _parse_ratios(args.ratios)
    model_cfg = _model_config(args) if args.model == "kgcn" else None
    split = data_mod.split(dataset, ratios, args.seed)
    adjacency = build_adjacency(triples, num_entities)

    test_rows = []
    for rep in range(args.repeat):
        seed = args.seed + rep
        train_cfg = _train_config(args, seed)
        if args.model == "kgcn":
            best_scorer, report = train_kgcn(split, adjacency, num_entities, num_relations,
                                             model_cfg, train_cfg)
            aggregator, uniform = model_cfg.aggregator, model_cfg.uniform_weights
        else:
            params = init_params(dataset.num_users, num_entities, num_relations,
                                 args.d, 0, "mf", seed)
            best_params, report = train(split, MfScorer(params), train_cfg)
            best_scorer = MfScorer(best_params)
            aggregator, uniform = "mf", False
        metrics = eval_mod.ctr_eval(best_scorer, split.test)
        test_rows.append((seed, metrics["auc"], metrics["f1"]))

        ckpt = out_dir / f"checkpoint_seed{seed}.kgcn"
        save_checkpoint(ckpt, best_scorer.params, aggregator, uniform)
        sidecar = {
            "model": args.model,
            "K": args.K, "d": args.d, "H": args.H if args.model == "kgcn" else 0,
            "aggregator": args.aggregator if args.model == "kgcn" else "mf",
            "uniform_weights": args.uniform_weights,
            "seed": seed, "split_seed": args.seed, "ratios": args.ratios,
            "eta": args.eta, "lambda": args.lam, "batch_size": args.batch_size,
            "epochs": args.epochs,
            "best_epoch": report.best_epoch,
            "test_auc": metrics["auc"], "test_f1": metrics["f1"],
        }
        with open(str(ckpt) + ".json", "w", encoding="utf-8") as f:
            json.dump(sidecar, f, indent=2)
        report.write_csv(out_dir / f"train_report_seed{seed}.csv")
        log.info("repeat %d (seed %d): test_auc=%.4f test_f1=%.4f",
                 rep, seed, metrics["auc"], metrics["f1"])

    aucs = np.array([r[1] for r in test_rows])
    f1s = np.array([r[2] for r in test_rows])
    with open(out_dir / "test_metrics.csv", "w", encoding="utf-8") as f:
        f.write("seed,test_auc,test_f1\n")
        for seed, a, s in test_rows:
            f.write(f"{seed},{format_float(a)},{format_float(s)}\n")
    print(f"test_auc_mean: {aucs.mean():.6f}")
    print(f"test_auc_std: {aucs.std(ddof=0):.6f}")
    print(f"test_f1_mean: {f1s.mean():.6f}")
    print(f"test_f1_std: {f1s.std(ddof=0):.6f}")
    return EXIT_OK


def _load_checkpoint_with_sidecar(checkpoint):
    params, aggregator, uniform = load_checkpoint(checkpoint)
    sidecar_path = Path(str(checkpoint) + ".json")
    if not sidecar_path.exists():
        raise DataError(f"missing run-config sidecar {sidecar_path}")
    sidecar = _read_json(sidecar_path, SIDECAR_TYPES, required=True)
    return params, aggregator, uniform, sidecar


def _rebuild_scorer(params, aggregator, uniform, sidecar, data_dir):
    dataset, triples, num_entities, num_relations = _load_preprocessed(data_dir)
    trained = (params.num_users, params.num_entities, params.relation.shape[0] - 1)
    found = (dataset.num_users, num_entities, num_relations)
    if trained != found:
        raise DataError(
            f"checkpoint was trained on {trained[0]} users, {trained[1]} entities and "
            f"{trained[2]} relations but {data_dir} has {found[0]}, {found[1]} and {found[2]}"
        )
    if aggregator == "mf":
        return MfScorer(params), dataset, sidecar
    config = ModelConfig(
        d=params.d, H=params.H, K=sidecar["K"],
        aggregator=aggregator, uniform_weights=uniform,
    ).validate()
    adjacency = build_adjacency(triples, num_entities)
    sample = sample_neighborhood(adjacency, config.K, sidecar["seed"], num_relations)
    return KgcnScorer(params, sample, config), dataset, sidecar


def cmd_evaluate(args):
    params, aggregator, uniform, sidecar = _load_checkpoint_with_sidecar(args.checkpoint)
    scorer, dataset, sidecar = _rebuild_scorer(params, aggregator, uniform, sidecar, args.data_dir)
    split = data_mod.split(dataset, _parse_ratios(sidecar["ratios"]), sidecar["split_seed"])
    part = getattr(split, args.split)
    if args.mode == "ctr":
        metrics = eval_mod.ctr_eval(scorer, part)
        print("metric,value")
        print(f"auc,{format_float(metrics['auc'])}")
        print(f"f1,{format_float(metrics['f1'])}")
    else:
        k_list = _int_list(args.k_list, "--k-list")
        recalls = eval_mod.topk_eval(scorer, split, k_list=k_list)
        print("k,recall")
        for k in sorted(recalls):
            print(f"{k},{format_float(recalls[k])}")
    return EXIT_OK


def cmd_sweep(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values = _int_list(args.values, "--values")
    if not values:
        raise ConfigError("empty sweep values")
    dataset, triples, num_entities, num_relations = _load_preprocessed(args.data_dir)
    split = data_mod.split(dataset, _parse_ratios(args.ratios), args.seed)
    adjacency = build_adjacency(triples, num_entities)
    rows = sweep(
        split, adjacency, num_entities, num_relations,
        _model_config(args), _train_config(args, args.seed),
        args.parameter, values,
    )
    with open(out_dir / f"sweep_{args.parameter}.csv", "w", encoding="utf-8") as f:
        write_sweep_csv(f, rows)
    write_sweep_csv(sys.stdout, rows)
    return EXIT_OK


def cmd_predict(args):
    params, aggregator, uniform, sidecar = _load_checkpoint_with_sidecar(args.checkpoint)
    scorer, dataset, sidecar = _rebuild_scorer(params, aggregator, uniform, sidecar, args.data_dir)
    if not 0 <= args.user < params.num_users:
        raise DataError(f"unknown user index {args.user} (have {params.num_users} users)")
    if args.items == "all":
        items = np.arange(dataset.num_items, dtype=np.int64)
    else:
        items = np.array(_int_list(args.items, "--items"), dtype=np.int64)
        if items.size == 0:
            raise ConfigError("empty item list")
        if items.min() < 0 or items.max() >= dataset.num_items:
            raise DataError(f"item index out of range [0, {dataset.num_items})")
    scores = scorer.score(np.full(items.shape, args.user, dtype=np.int64), items)
    order = np.lexsort((items, -scores))[: max(args.k, 0)]
    print("item,score")
    for i in order:
        print(f"{items[i]},{format_float(scores[i])}")
    return EXIT_OK


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
        # argparse uses exit code 2 for usage errors; remap to the config code
        return EXIT_OK if e.code == 0 else EXIT_CONFIG
    try:
        return COMMANDS[args.command](args)
    except ConfigError as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    except NumericalError as e:
        log.error("numerical failure: %s", e)
        return EXIT_NUMERICAL
    except (DataError, OSError) as e:
        log.error("data error: %s", e)
        return EXIT_DATA
    except KgcnError as e:
        log.error("%s", e)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
