#!/usr/bin/env python3
"""Run one fixed set of CLI commands from two source trees and compare.

    python scripts/parity.py PARENT_SRC CHANGE_SRC

Each argument is a checkout of this repository. The inputs are written
once into a shared directory: a seeded token-zipf task
(``bench/tokenzipf.generate``, seed 17, 2,000 train tokens) with its
GloVe and ``.vec`` vectors, a small text corpus, a seeded
``label<TAB>text`` task (train and test splits, a test file with a
label that the train file lacks, and a train file with a text that
tokenizes to nothing), an empty file, malformed
``.txt``/``.vec`` vector files, malformed vocabularies, a
``cells.json`` whose scored record has no uniform baseline, one whose
spec is not an object and a run directory that holds one ``cells.json``
and a copy of it. Each tree then runs the whole set in a work directory
of its own, naming every output relative to it, so both sides print the
same paths:

* ``--help`` of every parser, the usage errors of every command (among
  them a synthetic ``probe run`` with an empty ``--windows``, one at
  ``--classes 1``, one whose ``--n`` is below 10 per class, and a value
  outside the choices of ``probe run --task``, ``--kind``, ``--mode``,
  ``--case-fold`` and ``--frozen`` and of ``vocab build --case-fold``)
  and a few data errors, among them ``vocab build`` of the empty file as
  conll and as tsv, of the task's train file with a ``--token-column``
  beyond its four columns and of the tsv train file whose text has no
  tokens, a tsv ``probe run`` whose test file holds an unknown label, one
  whose train file holds a text without tokens, a synthetic one whose
  ``--output-dir`` is an input file (once with empty items in
  ``--representations``), an ``embed eigennoise`` and a ``probe run``
  whose ``--m`` overflows a float, and a ``report aggregate`` of the
  ``cells.json`` without a uniform baseline, of the copied run directory
  and of the ``cells.json`` whose spec is not an object;
* ``vocab build`` (conll, tsv and text) and ``report aggregate``, of
  single runs and of the whole work directory, where the desk run and
  the ``--d 1`` run share a task label at different sizes;
* ``embed eigennoise`` (linear and log mode) and ``embed random`` at
  20,000 ranks and d=50, and on the task's vocabulary; ``embed
  eigennoise`` at 400 ranks and d=300, whose completion spans many
  Gram-Schmidt blocks, and at 5,000 ranks, d=300 and log mode, whose
  draw spans five ``DRAW_ROWS`` chunks and whose last of 19 blocks is
  partial; ``embed random`` over each malformed vocabulary;
* ``embed import`` of both vector files, of every malformed one, and of
  a file of edge values that reaches every branch of the export;
* the desk run (``probe run --task synthetic --n 500 --seeds 0``), a
  synthetic run at ``--d 1``, a 24-cell token-zipf run (eigennoise, random and GloVe import; windows
  0, 2, 5 and 10; frozen and unfrozen; seed 0) and an 8-cell tsv run
  (seeds 0 and 1) with a test split and no dev split, so every stage and
  the accuracy fit hold out their own dev examples;
* after the whole-directory aggregate, so that what they write is not
  aggregated: a synthetic run at ``--seeds 0,1``, one at ``--seeds 1``
  and a ``report aggregate`` of the two (runs of one setting that share
  a seed); two eigennoise runs that differ only in ``--completion-seed``
  (0 and 5) and two that differ only in ``--d`` (2 and 8), each pair
  with a ``report aggregate`` that gives each setting a row; a synthetic
  run at ``--seeds 0,0 --representations random,random``, whose repeats
  run once; then a rerun at ``--seeds 0`` into the first run's
  directory, which must leave no file of seed 1 behind;
* last, a token-zipf ``probe run`` over two copies of the GloVe file
  whose paths give their cells one file name (``vectors/glove.txt`` and
  ``vectors_glove.txt``).

It compares the exit code, stdout and stderr of every command, then every
file in the two work directories, ``report.txt`` without its timestamp
line. It prints every difference, each with its first differing line,
and exits 1, or exits 0 when there is none. The inputs and work
directories are written under a temporary directory, which is removed
when there is no difference and kept otherwise. Needs numpy only.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMESTAMP = b"# probe run at "

# malformed vector files: (name, lines after any header)
MALFORMED = {
    "ragged": ["the 1 2", "cat 3"],
    "bad-value": ["the 1 2", "cat 3 x"],
    "bad-value-before-ragged": ["the 1 2", "cat x 4", "mat 5"],
    # float() alone takes 1_0 and non-ASCII digits; the import refuses them
    "underscore": ["the 1_0 2", "cat 3 4"],
    "non-ascii-digit": ["the \u0661 2", "cat 3 4"],
    "file-separator": ["the 1 2", "cat \x1c1 2"],  # np.loadtxt takes \x1c1, float refuses
}
# malformed vocabularies: (name, token<TAB>count<TAB>rank lines); their
# tokens cannot be written to a vector file and read back
MALFORMED_VOCAB = {
    "space-token": ["a b\t3\t1", "cat\t2\t2"],
    "empty-token": ["the\t3\t1", "\t2\t2"],
}


def edge_values() -> list[str]:
    """Values at every branch of the vector export, as text: zeros, a
    subnormal, non-finite values, the switch from fixed to exponent
    notation, carries into a ninth digit, exact ties, each power of ten
    from 1e-6 to 1e9 with its neighbours, and float32-born values; each
    with both signs."""
    values = ["0", "5e-324", "inf", "nan", "1e-05", "0.0001", "99999999.5", "99999995.0",
              "1e8", "12345678.5", "123456785.0", "9.99999995e-05", "1e22", "1e-300"]
    for k in range(-6, 10):
        power = float(f"1e{k}")
        values += [repr(math.nextafter(power, 0)), repr(power),
                   repr(math.nextafter(power, math.inf))]
    values += [repr(struct.unpack("f", struct.pack("f", v))[0]) for v in (0.1, 1 / 3, 2.5e-5, 7e7)]
    return values + ["-" + v for v in values]


def write_tsv(path: Path, seed: int, records: int) -> None:
    """``records`` seeded ``label<TAB>text`` lines over three interleaved
    labels: each text mixes words of its label's lexicon with shared ones,
    in mixed case and with edge punctuation."""
    rng = random.Random(seed)
    shared = ["the", "a", "game", "ref", "team", "today", "fans"]
    lexicon = {"pos": ["great", "win", "love", "Brilliant", "joy"],
               "neg": ["awful", "loss", "hate", "Boring", "foul"],
               "neutral": ["match", "kickoff", "score", "Stadium", "half"]}
    lines = []
    for _ in range(records):
        label = rng.choice(sorted(lexicon))
        words = [rng.choice(lexicon[label] if rng.random() < 0.6 else shared)
                 for _ in range(rng.randint(3, 9))]
        words = [w.upper() if rng.random() < 0.1 else w for w in words]
        lines.append(f"{label}\t{' '.join(words)}{rng.choice(['', '!', '.', ' :)'])}\n")
    path.write_text("".join(lines), encoding="utf-8")


def make_inputs(directory: Path) -> dict[str, Path]:
    """Write every input the set reads into ``directory``; returns their
    paths by name."""
    spec = importlib.util.spec_from_file_location("tokenzipf",
                                                  ROOT / "bench" / "tokenzipf.py")
    tokenzipf = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache under bench/
    try:
        spec.loader.exec_module(tokenzipf)
    finally:
        sys.dont_write_bytecode = dont_write
    tokenzipf.generate(directory, seed=17, train_tokens=2000)
    inputs = {name: directory / file for name, file in tokenzipf.FILES.items()}
    inputs["corpus"] = directory / "corpus.txt"
    inputs["corpus"].write_text("the cat sat on the mat\nthe cat ran\n", encoding="utf-8")
    for split, seed, records in (("train", 5, 240), ("test", 6, 60)):
        inputs[f"tsv-{split}"] = directory / f"tweets-{split}.tsv"
        write_tsv(inputs[f"tsv-{split}"], seed, records)
    inputs["tsv-unknown"] = directory / "tweets-unknown.tsv"
    inputs["tsv-unknown"].write_text("pos\tgreat game\nmixed\tgreat loss\n", encoding="utf-8")
    inputs["tsv-empty-text"] = directory / "tweets-empty-text.tsv"
    inputs["tsv-empty-text"].write_text("pos\tgreat game\nneg\t!!\n", encoding="utf-8")
    inputs["empty"] = directory / "empty.txt"
    inputs["empty"].write_text("", encoding="utf-8")
    for name, lines in MALFORMED.items():
        glove, vec = directory / f"{name}.txt", directory / f"{name}.vec"
        glove.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        vec.write_text(f"{len(lines)} 2\n" + "".join(line + " \n" for line in lines),
                       encoding="utf-8")
        inputs[f"{name}.txt"], inputs[f"{name}.vec"] = glove, vec
    for name, lines in MALFORMED_VOCAB.items():
        inputs[f"{name}-vocab"] = directory / f"{name}-vocab.tsv"
        inputs[f"{name}-vocab"].write_text("".join(line + "\n" for line in lines),
                                           encoding="utf-8")
    # the edge values over the six tokens of the corpus's vocabulary
    values, tokens = edge_values(), ["the", "cat", "sat", "on", "mat", "ran"]
    d = len(values) // len(tokens)
    inputs["edges"] = directory / "edges.txt"
    inputs["edges"].write_text("".join(
        f"{token} {' '.join(values[i * d:(i + 1) * d])}\n" for i, token in enumerate(tokens)),
        encoding="utf-8")
    # two paths whose cells share a file name
    (directory / "vectors").mkdir()
    for name, path in (("glove-nested", directory / "vectors" / "glove.txt"),
                       ("glove-flat", directory / "vectors_glove.txt")):
        inputs[name] = path
        path.write_text(inputs["glove"].read_text(encoding="utf-8"), encoding="utf-8")
    late = inputs["late-ragged"] = directory / "late-ragged.txt"
    # a ragged line many chunks into the file
    late.write_text(inputs["glove"].read_text(encoding="utf-8") + "zzz 1\n",
                    encoding="utf-8")
    no_uniform = inputs["no-uniform"] = directory / "no-uniform" / "cells.json"
    no_uniform.parent.mkdir()
    no_uniform.write_text(
        '{"cells": [{"task": "t", "representation": "random", "window": null, '
        '"frozen": true, "seed": 0, "accuracy": 0.5, "error": null, '
        '"total_bits": 12.0, "uniform_bits": null}]}\n', encoding="utf-8")
    # a run and its copy: the same cells of the same spec
    inputs["copied-run"] = directory / "copied-run"
    for copy in ("run", "run-copy"):
        (inputs["copied-run"] / copy).mkdir(parents=True)
        (inputs["copied-run"] / copy / "cells.json").write_text(
            '{"spec": {"task": "synthetic", "seeds": [0]}, "cells": [{"task": "t", '
            '"representation": "random", "window": null, "frozen": true, "seed": 0, '
            '"accuracy": 0.5, "error": null, "total_bits": 12.0, "uniform_bits": 20.0}]}\n',
            encoding="utf-8")
    spec_not_object = inputs["spec-not-object"] = directory / "spec-not-object" / "cells.json"
    spec_not_object.parent.mkdir()
    spec_not_object.write_text(
        '{"spec": 5, "cells": [{"task": "t", "representation": "random", "window": null, '
        '"frozen": true, "seed": 0, "accuracy": 0.5, "error": null, '
        '"total_bits": 12.0, "uniform_bits": 20.0}]}\n', encoding="utf-8")
    return inputs


def _probe_usage_errors() -> list[list[str]]:
    run = ["probe", "run", "--output-dir", "never"]
    synthetic = [*run, "--task", "synthetic", "--n", "60"]
    conll = [*run, "--task", "conll", "--train", "x.conll"]
    limit = str(2**128)
    return [
        [*run],
        [*synthetic, "--representations", "glove"],
        [*synthetic, "--representations", ","],
        [*synthetic, "--windows", "0,2"],
        [*synthetic, "--windows", ""],
        [*synthetic, "--windows", "a"],
        [*synthetic, "--seeds", ""],
        [*synthetic, "--kind", "nope"],
        [*synthetic, "--classes", "100", "--n", "40"],
        [*run, "--task", "bogus"],
        *([*synthetic, option, value] for option, value in (
            ("--mode", "cubic"), ("--case-fold", "maybe"), ("--frozen", "maybe"))),
        [*run, "--task", "conll"],
        [*run, "--task", "tsv"],
        [*conll, "--windows", "0,3"],
        [*conll, "--windows", ""],
        [*conll, "--d", "0"],
        *([*synthetic, f"{option}={value}"] for option, value in (
            ("--n", "0"), ("--d", "0"), ("--m", "0"), ("--classes", "0"), ("--classes", "1"),
            ("--hidden", "0"), ("--batch-size", "0"), ("--max-epochs", "0"),
            ("--patience", "0"), ("--workers", "0"), ("--vocab-cap", "0"), ("--seeds", "-1"),
            ("--seeds", "0,-1"), ("--seeds", limit), ("--seeds", f"0,{limit}"),
            ("--data-seed", "-1"), ("--completion-seed", "-1"),
            ("--completion-seed", limit), ("--token-column", "-1"),
            ("--label-column", "-1"), ("--lr", "0"), ("--lr", "-0.1"), ("--lr", "nan"),
            ("--lr", "inf"), ("--fractions", "0"), ("--fractions", "150"),
            ("--fractions", "-5,50"), ("--fractions", "100"), ("--fractions", "a"))),
    ]


def command_set(inputs: dict[str, Path]) -> list[list[str]]:
    """The fixed set, in run order, as argument lists of the CLI."""
    parsers = [[], ["vocab"], ["vocab", "build"], ["embed"], ["embed", "eigennoise"],
               ["embed", "random"], ["embed", "import"], ["probe"], ["probe", "run"],
               ["report"], ["report", "aggregate"]]
    build = ["vocab", "build", "--input", "in.txt", "--output", "never.tsv"]
    limit = str(2**128)
    usage = [
        [], ["bogus"], ["embed"], ["embed", "random", "--n", "5"],
        [*build, "--max-size", "0"], [*build, "--token-column", "-1"],
        [*build, "--format", "xml"], [*build, "--case-fold", "maybe"],
        ["embed", "random", "--n", "5", "--vocab", "v.tsv", "--d", "2", "--output", "o"],
        *(["embed", "eigennoise", "--n", "5", "--d", "2", "--output", "never.txt", *extra]
          for extra in (["--d", "0"], ["--m", "0"], ["--n", "0"], ["--mode", "cubic"],
                        ["--completion-seed", "-1"], ["--completion-seed", limit])),
        *(["embed", "random", "--n", "5", "--d", "2", "--output", "never.txt", *extra]
          for extra in (["--d", "0"], ["--n", "0"], ["--seed", "-1"], ["--seed", limit])),
        ["embed", "import", "--source", "s.txt", "--vocab", "v.tsv", "--output", "o",
         "--expected-d", "0"],
        ["report", "aggregate"],
        *_probe_usage_errors(),
    ]
    data_errors = [
        ["vocab", "build", "--input", "missing.txt", "--output", "never.tsv"],
        *(["vocab", "build", "--format", fmt, "--input", str(inputs[name]), *extra,
           "--output", "never.tsv"]
          for fmt, name, extra in (("conll", "empty", []),
                                   ("conll", "train", ["--token-column", "4"]),
                                   ("tsv", "tsv-empty-text", []), ("tsv", "empty", []))),
        ["embed", "eigennoise", "--n", "5", "--d", "8", "--output", "never.txt"],
        ["embed", "import", "--source", "missing.txt", "--vocab", "vocab.tsv",
         "--output", "never.txt"],
        ["probe", "run", "--task", "conll", "--train", "missing.conll",
         "--output-dir", "never"],
        ["probe", "run", "--task", "tsv", "--train", str(inputs["tsv-train"]),
         "--test", str(inputs["tsv-unknown"]), "--output-dir", "never"],
        ["probe", "run", "--task", "tsv", "--train", str(inputs["tsv-empty-text"]),
         "--d", "2", "--output-dir", "never"],
        *(["probe", "run", "--task", "synthetic", "--n", "60", "--d", "8", "--seeds", "0",
           *reps, "--output-dir", str(inputs["corpus"])]
          for reps in ([], ["--representations", "eigennoise,,random"])),
        ["embed", "eigennoise", "--n", "5", "--d", "2", "--m", str(10**400),
         "--output", "never.txt"],
        ["probe", "run", "--task", "synthetic", "--n", "40", "--d", "2", "--seeds", "0",
         "--m", str(10**400), "--output-dir", "never"],
        ["report", "aggregate", "--input-dir", "missing"],
        ["report", "aggregate", "--input-dir", str(inputs["no-uniform"].parent)],
        ["report", "aggregate", "--input-dir", str(inputs["copied-run"])],
        ["report", "aggregate", "--input-dir", str(inputs["spec-not-object"].parent)],
    ]
    imports = [["embed", "import", "--source", str(inputs[kind]), "--vocab", "vocab.tsv",
                "--output", f"imported-{kind}.txt", *extra]
               for kind, extra in (("glove", []), ("vec", []),
                                   ("vec", ["--expected-d", "50"]), ("late-ragged", []))]
    imports += [["embed", "import", "--source", str(inputs[f"{name}.{ext}"]),
                 "--vocab", "small.tsv", "--output", f"imported-{name}-{ext}.txt"]
                for name in MALFORMED for ext in ("txt", "vec")]
    imports.append(["embed", "import", "--source", str(inputs["edges"]), "--vocab", "small.tsv",
                    "--output", "imported-edges.txt"])
    task = ["--train", str(inputs["train"]), "--dev", str(inputs["dev"]),
            "--test", str(inputs["test"])]
    return [
        *([*words, "--help"] for words in parsers),
        *usage,
        *data_errors,
        ["vocab", "build", "--format", "conll", "--input", str(inputs["train"]),
         "--output", "vocab.tsv"],
        ["vocab", "build", "--input", str(inputs["corpus"]), "--output", "small.tsv"],
        ["vocab", "build", "--format", "tsv", "--input", str(inputs["tsv-train"]),
         "--output", "tweets-vocab.tsv"],
        ["embed", "eigennoise", "--n", "20000", "--d", "50", "--output", "en-20k.txt"],
        ["embed", "eigennoise", "--n", "20000", "--d", "50", "--mode", "log",
         "--output", "en-20k-log.txt"],
        ["embed", "random", "--n", "20000", "--d", "50", "--output", "random-20k.txt"],
        ["embed", "eigennoise", "--n", "400", "--d", "300", "--output", "en-400x300.txt"],
        ["embed", "eigennoise", "--n", "5000", "--d", "300", "--mode", "log",
         "--output", "en-5000x300-log.txt"],
        ["embed", "eigennoise", "--vocab", "vocab.tsv", "--d", "16", "--mode", "log",
         "--output", "en-log.txt"],
        ["embed", "random", "--vocab", "vocab.tsv", "--d", "16", "--seed", "3",
         "--output", "random-vocab.txt"],
        *(["embed", "random", "--vocab", str(inputs[f"{name}-vocab"]), "--d", "2",
           "--output", f"random-{name}.txt"] for name in MALFORMED_VOCAB),
        *imports,
        ["probe", "run", "--task", "synthetic", "--n", "500", "--seeds", "0",
         "--output-dir", "desk"],
        ["probe", "run", "--task", "synthetic", "--n", "40", "--d", "1", "--seeds", "0",
         "--output-dir", "desk-d1"],
        ["probe", "run", "--task", "conll", *task, "--representations",
         f"eigennoise,random,import:{inputs['glove']}", "--windows", "0,2,5,10",
         "--seeds", "0", "--frozen", "both", "--output-dir", "zipf"],
        ["probe", "run", "--task", "tsv", "--train", str(inputs["tsv-train"]),
         "--test", str(inputs["tsv-test"]), "--d", "8", "--seeds", "0,1",
         "--output-dir", "tsv"],
        ["report", "aggregate", "--input-dir", "desk"],
        ["report", "aggregate", "--input-dir", "zipf", "--output", "zipf-aggregate.txt"],
        ["report", "aggregate", "--input-dir", "."],
        *(["probe", "run", "--task", "synthetic", "--n", "40", "--d", "2", "--seeds", seeds,
           "--output-dir", out] for seeds, out in (("0,1", "seeds/0-1"), ("1", "seeds/1"))),
        ["report", "aggregate", "--input-dir", "seeds"],
        *(["probe", "run", "--task", "synthetic", "--n", "60", "--seeds", "0",
           "--frozen", "true", "--representations", "eigennoise", "--d", "8",
           f"--{name}", value, "--output-dir", f"settings/{name}/{value}"]
          for name, values in (("completion-seed", ("0", "5")), ("d", ("2", "8")))
          for value in values),
        ["report", "aggregate", "--input-dir", "settings/completion-seed"],
        ["report", "aggregate", "--input-dir", "settings/d"],
        ["probe", "run", "--task", "synthetic", "--n", "40", "--d", "2", "--seeds", "0,0",
         "--representations", "random,random", "--output-dir", "repeats"],
        ["probe", "run", "--task", "synthetic", "--n", "40", "--d", "2", "--seeds", "0",
         "--output-dir", "seeds/0-1"],
        ["probe", "run", "--task", "conll", *task, "--representations",
         f"import:{inputs['glove-nested']},import:{inputs['glove-flat']}",
         "--windows", "0", "--frozen", "true", "--seeds", "0", "--max-epochs", "2",
         "--output-dir", "collide"],
    ]


def source_dir(tree: Path) -> Path:
    """``tree``'s ``src`` directory. Exits when it holds no eigennoise
    package: both sides would then fail alike and show no difference."""
    src = (tree / "src").resolve()
    if not (src / "eigennoise" / "cli.py").is_file():
        sys.exit(f"{tree}: not a checkout of eigennoise (no src/eigennoise/cli.py)")
    return src


def run_tree(src: Path, work: Path, commands: list[list[str]]) -> list[tuple]:
    """Run each command from the package in ``src``, in ``work``; returns
    (exit code, stdout, stderr) per command."""
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "eigennoise.cli", *argv], cwd=work,
                              env=env, capture_output=True, timeout=900)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def _first_line_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {i}:\n  parent: {x[:200]!r}\n  change: {y[:200]!r}"
    i = min(len(lines_a), len(lines_b)) + 1
    return f"line {i}: {len(lines_a)} lines against {len(lines_b)}"


def _output_files(work: Path) -> dict[str, bytes]:
    files = {}
    for path in sorted(work.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "report.txt" and data.startswith(TIMESTAMP):
                data = data.partition(b"\n")[2]
            files[path.relative_to(work).as_posix()] = data
    return files


def differences(commands: list[list[str]], parent: tuple[Path, list],
                change: tuple[Path, list]) -> list[str]:
    """Every difference between two sides' (work directory, results): each
    command's exit code, stdout and stderr in run order, then each file by
    name."""
    (parent_work, parent_results), (change_work, change_results) = parent, change
    found = []
    for argv, old, new in zip(commands, parent_results, change_results):
        for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                where = (f"{a} against {b}" if what == "exit code"
                         else _first_line_difference(a, b))
                found.append(f"eigennoise {' '.join(argv)}: {what}: {where}")
    old_files, new_files = _output_files(parent_work), _output_files(change_work)
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files or name not in old_files:
            side = "change" if name not in new_files else "parent"
            found.append(f"{name}: missing on the {side} side")
        elif old_files[name] != new_files[name]:
            found.append(f"{name}: {_first_line_difference(old_files[name], new_files[name])}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    sources = {"parent": source_dir(args.parent_src), "change": source_dir(args.change_src)}
    work = Path(tempfile.mkdtemp(prefix="eigennoise-parity-"))
    commands = command_set(make_inputs(work / "inputs"))
    sides = [(work / side, run_tree(src, work / side, commands))
             for side, src in sources.items()]
    found = differences(commands, *sides)
    if found:
        print("".join(f"difference: {line}\n" for line in found)
              + f"{len(found)} differences; work directories kept under {work}")
        return 1
    print(f"no difference in {len(commands)} commands and "
          f"{len(_output_files(sides[0][0]))} output files")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
