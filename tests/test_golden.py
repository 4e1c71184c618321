"""Byte-identity of the CLI's outputs on a planted pipeline.

One pipeline of fourteen commands runs in-process through cli.main on
conftest.write_synthetic_raw's planted data: preprocess; train with each
aggregator (sum at H=2 over two seeds, concat with uniform weights, neighbor,
and the mf baseline); a sweep over K; evaluate in both modes; and predict on a
KGCN and on an MF checkpoint. Three more commands pin the forward pass apart
from training: train at H=2 for zero epochs, which writes the seeded initial
parameters as a checkpoint, then predict over the whole catalogue and evaluate
in ctr mode on that checkpoint. tests/golden.json holds one sha256 per command
(its exit code and stdout) and one per output file, so a failure names each
entry that moved. A training report is hashed without its seconds column,
the one output that is not a function of the inputs.

numpy's random streams may change between numpy versions (NEP 19), so the
manifest records the numpy version it was made on. A change that alters the
outputs on purpose rewrites the manifest by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from kgcn.cli import main

from conftest import write_synthetic_raw

MANIFEST = Path(__file__).resolve().parent / "golden.json"

# the model and training flags every train and the sweep share
TRAIN_FLAGS = ["--K", "4", "--d", "8", "--epochs", "3", "--seed", "7"]

# train runs: output directory name and the flags that select the model; they
# follow TRAIN_FLAGS, so a flag given in both takes the value here
TRAIN_RUNS = {
    "train_sum": ["--aggregator", "sum", "--H", "2", "--repeat", "2"],
    "train_concat": ["--aggregator", "concat", "--uniform-weights"],
    "train_neighbor": ["--aggregator", "neighbor"],
    "train_mf": ["--model", "mf"],
    "train_untrained": ["--aggregator", "sum", "--H", "2", "--epochs", "0"],
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _without_seconds(csv_bytes):
    """A training report's text without its last column, seconds."""
    return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in csv_bytes.splitlines())


def run_pipeline(work):
    """Run the planted pipeline under the directory `work`; returns
    {entry: sha256} for every command and every output file."""
    work = Path(work)
    raw = write_synthetic_raw(work / "raw")
    prep = work / "prep"
    entries = {}

    def run(name, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, f"{name} exited {code}"
        entries[f"{name}: exit code and stdout"] = _sha256(f"{code}\n{out.getvalue()}".encode())

    run("preprocess", ["preprocess", "--ratings", str(raw / "ratings.tsv"),
                       "--kg", str(raw / "kg.txt"), "--item2entity", str(raw / "item2entity.tsv"),
                       "--out-dir", str(prep), "--seed", "3"])
    for name, flags in TRAIN_RUNS.items():
        run(name, ["train", "--data-dir", str(prep), "--out-dir", str(work / name),
                   *TRAIN_FLAGS, *flags])
    run("sweep", ["sweep", "--data-dir", str(prep), "--out-dir", str(work / "sweep"),
                  *TRAIN_FLAGS, "--parameter", "K", "--values", "2,4"])
    sum_ckpt, neighbor_ckpt, mf_ckpt = (str(work / name / "checkpoint_seed7.kgcn")
                                        for name in ("train_sum", "train_neighbor", "train_mf"))
    for mode in ("ctr", "topk"):
        run(f"evaluate_{mode}", ["evaluate", "--checkpoint", sum_ckpt, "--data-dir", str(prep),
                                 "--mode", mode])
    # the neighbor aggregator ignores an item's own embedding, so items that share their
    # one KG neighbor tie, and their order in the top 10 is rank's tie rule
    run("predict_kgcn", ["predict", "--checkpoint", neighbor_ckpt, "--data-dir", str(prep),
                         "--user", "3"])
    run("predict_mf", ["predict", "--checkpoint", mf_ckpt, "--data-dir", str(prep),
                       "--user", "5", "--items", "40,7,3,120,7,500", "--k", "4"])
    # the untrained checkpoint scores every one of the 600 items by the forward pass alone
    untrained_ckpt = str(work / "train_untrained" / "checkpoint_seed7.kgcn")
    run("predict_untrained", ["predict", "--checkpoint", untrained_ckpt, "--data-dir", str(prep),
                              "--user", "3", "--k", "1000"])
    run("evaluate_untrained_ctr", ["evaluate", "--checkpoint", untrained_ckpt,
                                   "--data-dir", str(prep), "--mode", "ctr"])

    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        rel = path.relative_to(work)
        if rel.parts[0] == "raw":
            continue
        data = path.read_bytes()
        if path.name.startswith("train_report_seed"):
            data = _without_seconds(data)
        entries[rel.as_posix()] = _sha256(data)
    return entries


def test_outputs_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got, want = run_pipeline(tmp_path), manifest["entries"]
    moved = [f"  {name}" for name in sorted(want.keys() | got.keys())
             if want.get(name) != got.get(name)]
    assert not moved, (
        f"{len(moved)} of {len(want)} golden entries moved (a missing or new entry counts):\n"
        + "\n".join(moved)
        + f"\nmanifest made on numpy {manifest['numpy']}; this run used numpy {np.__version__}."
        "\nIf the change is meant to alter outputs, rewrite the manifest with "
        "`PYTHONPATH=src python tests/test_golden.py` and say which entries moved and why."
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = run_pipeline(tmp)
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "entries": entries}, indent=2)
                        + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)
