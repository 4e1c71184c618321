"""A seeded mutation fuzz of the CLI.

Each case damages one input file of one subcommand and runs kgcn.cli.main
on it. Whatever the damage, main returns 0, 1, 2 or 3, no exception escapes
it, and a nonzero exit prints nothing to stdout. The cases run in one child
process whose address space is capped (conftest.run_capped), so a damaged
size cannot take the machine's memory. Run as a script, this file runs the
cases in a work directory and prints the outcomes as JSON.
"""

import contextlib
import io
import json
import logging
import re
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

from conftest import run_capped, write_synthetic_raw

CASES = 400
VALUES = ("x", "-1", "1_0", "\u0663", "nan", "99999999999999999999")
FIELD = re.compile(rb'[^\s,:{}"]+')   # a field of a table, a JSON value or key, or binary

RAW = ("ratings.tsv", "kg.txt", "item2entity.tsv")
CHECKPOINT = ("checkpoint_seed7.kgcn", "checkpoint_seed7.kgcn.json")
TRAIN_FLAGS = ["--K", "2", "--d", "4", "--epochs", "1", "--batch-size", "32", "--seed", "7"]


def commands(raw, prep, model, out):
    """{name: (argv, the files it reads)} of every fuzzed command, on the raw
    files, the preprocessed data dir and the trained model's dir given;
    preprocess, train and sweep write to out."""
    data = [prep / "final_ratings.txt", prep / "kg.txt", prep / "stats.json"]
    trained = [model / name for name in CHECKPOINT]
    fit = ["--data-dir", str(prep), "--out-dir", str(out), *TRAIN_FLAGS]
    score = ["--checkpoint", str(trained[0]), "--data-dir", str(prep)]
    return {
        "preprocess": (["preprocess", "--ratings", str(raw / RAW[0]), "--kg", str(raw / RAW[1]),
                        "--item2entity", str(raw / RAW[2]), "--out-dir", str(out)],
                       [raw / name for name in RAW]),
        "train": (["train", *fit], data),
        "sweep": (["sweep", *fit, "--parameter", "d", "--values", "2,4"], data),
        "evaluate_ctr": (["evaluate", *score, "--mode", "ctr"], [data[0], data[2], *trained]),
        "evaluate_topk": (["evaluate", *score, "--mode", "topk"], [data[0], data[2], *trained]),
        "predict_all": (["predict", *score, "--user", "1"], [data[2], *trained]),
        "predict_items": (["predict", *score, "--user", "2", "--items", "0,3,3,5", "--k", "2"],
                          [data[2], *trained]),
    }


def mutate(raw, rng):
    """(name, bytes) of one seeded mutation of raw: truncation at a byte, one
    byte replaced, a line deleted or duplicated, or one field set to a value
    of VALUES."""
    lines = raw.splitlines(keepends=True)
    fields = list(FIELD.finditer(raw))
    kind = ("truncate", "byte", "line", "field")[int(rng.integers(4 if fields else 3))]
    if kind == "truncate" or not raw:
        return "truncate", raw[:int(rng.integers(len(raw) + 1))]
    if kind == "byte":
        at = int(rng.integers(len(raw)))
        return kind, raw[:at] + bytes([int(rng.integers(256))]) + raw[at + 1:]
    if kind == "line":
        at = int(rng.integers(len(lines)))
        if rng.random() < 0.5:
            return "delete line", b"".join(lines[:at] + lines[at + 1:])
        return "duplicate line", b"".join(lines[:at + 1] + lines[at:])
    field = fields[int(rng.integers(len(fields)))]
    value = VALUES[int(rng.integers(len(VALUES)))]
    return f"field {value}", raw[:field.start()] + value.encode("utf-8") + raw[field.end():]


def _main(argv):
    """(exit code, stdout text, traceback of an exception main let escape)."""
    from kgcn.cli import main
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            return main(argv), stdout.getvalue(), None
        except BaseException:   # any escape is the failure this fuzz looks for
            return None, stdout.getvalue(), traceback.format_exc()


def run_cases(work):
    """Prepare planted data and a trained model under work, run CASES
    mutation cases and return one outcome per case."""
    work = Path(work)
    raw = write_synthetic_raw(work / "raw", n_attrs=3, items_per_attr=4, n_users=10,
                              pos_per_user=2, seed=5)
    prep, model, out = work / "prep", work / "model", work / "out"
    for name, into in (("preprocess", prep), ("train", model)):
        code, _, error = _main(commands(raw, prep, model, into)[name][0])
        if code != 0:
            raise RuntimeError(f"set-up {name} exited {code}: {error}")
    cases = commands(raw, prep, model, out)
    names = sorted(cases)
    outcomes = []
    for case in range(CASES):
        rng = np.random.default_rng(case)
        name = names[case % len(names)]
        argv, reads = cases[name]
        path = reads[int(rng.integers(len(reads)))]
        original = path.read_bytes()
        mutation, damaged = mutate(original, rng)
        path.write_bytes(damaged)
        try:
            code, stdout, error = _main(argv)
        finally:
            path.write_bytes(original)
            shutil.rmtree(out, ignore_errors=True)
        outcomes.append({"case": case, "command": name, "file": str(path.relative_to(work)),
                         "mutation": mutation, "code": code, "stdout": stdout, "error": error})
    return outcomes


def test_damaged_inputs_end_in_an_exit_code(tmp_path):
    done = run_capped([__file__, str(tmp_path)], timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    outcomes = json.loads(done.stdout)
    assert len(outcomes) == CASES
    assert {o["command"].split("_")[0] for o in outcomes} == {
        "preprocess", "train", "sweep", "evaluate", "predict"}
    escaped = [o for o in outcomes if o["error"] is not None]
    assert escaped == []
    assert [o for o in outcomes if o["code"] not in (0, 1, 2, 3)] == []
    assert [o for o in outcomes if o["code"] != 0 and o["stdout"]] == []


if __name__ == "__main__":
    logging.basicConfig(stream=sys.stderr, level=logging.ERROR)
    print(json.dumps(run_cases(sys.argv[1])))
