"""End-to-end and per-layer benchmark of the eigennoise CLI.

    python3 bench/run.py --workload desk-synthetic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Run it from the root of a source checkout: the program is imported from
``./src`` (no install step). One client drives the CLI as child
processes, one command after another (a closed loop). The program keeps
its defaults: ``--workers`` unset, thread variables as inherited.

Each run makes its inputs from ``--seed``, times ``SETUP_PASSES`` passes
of the workload's set-up commands, then repeats the measured phase
``--seconds`` // (the workload's nominal phase length) times, at least
once, and reports medians. The counts are fixed rather than timed, so
every run of a workload attempts the same operations however fast the
machine is.
Every operation's output is checked; a failed check marks the run
incorrect and counts in ``ops_failed``. Known failures of the program are
run and counted, never skipped:

* ``embed-ladder``: ``embed eigennoise --n 20000`` exceeds the 2 GiB
  address-space cap (the N x N construction);
* ``token-zipf``: ``embed import`` of the fastText ``.vec`` file (header
  line and trailing spaces are rejected).

With ``--trace 1`` the same run then repeats one set-up pass and one
phase under ``bench/tracer.py`` and reports per-layer metrics instead;
end-to-end numbers always come from untraced runs. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Work files go to ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tokenzipf  # noqa: E402
from tracer import LAYER_NAMES  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PASSES = 5  # set-up passes per run
RUN_DEADLINE_S = 150.0  # start no new phase repetition after this
OP_DEADLINE_S = 170.0  # kill any child still running at this point
LADDER_NS = (1000, 2000, 4000, 20000)
LADDER_D = 50
LADDER_CAP = 2 << 30  # RLIMIT_AS of each embed-ladder child, bytes
# Sized so a measured phase takes about 10 s on 2 cores and fits two or
# three times into a 30 s run; the default desk matrix (n=2000, 3 seeds)
# takes about 95 s, the 10k-token task about 56 s. Each workload's
# ``phase_s`` is its phase wall time on a 2-core Xeon with OpenBLAS.
DESK_N = 500
TOKEN_TRAIN_TOKENS = 2000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "EIGENNOISE_WORKERS")
ORTHO_TOL = 1e-8
ZIPF_COLUMN_RTOL = 1e-6
#: Units of everything printed per workload; BENCHMARK.json gates a subset.
E2E_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "ops": "count", "ops_ok": "count", "ops_failed": "count",
             "codelength_kbits": "kbit", "repetitions": "count",
             "phase_walls_s": "s"}


# --- running the program -----------------------------------------------------


@dataclass
class Op:
    """One CLI command as run: timing, resources and outcome."""

    name: str
    argv: list
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: str
    stderr: str
    failed_checks: list = field(default_factory=list)
    cells: int = 0  # matrix cells the command runs
    failed_cells: int = 0

    @property
    def ok(self) -> bool:
        return self.exit == 0

    @property
    def attempted(self) -> int:
        return 1 + self.cells

    @property
    def failed(self) -> int:
        return int(not self.ok or bool(self.failed_checks)) + self.failed_cells


class Runner:
    """Starts CLI children in a work directory and reaps them with wait4."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._n = 0

    def run(self, name: str, argv: list, cap: int | None = None,
            spans: Path | None = None) -> Op:
        self._n += 1
        out_path = self.work / f"op{self._n}.out"
        err_path = self.work / f"op{self._n}.err"
        if spans is None:
            cmd = [sys.executable, "-m", "eigennoise.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *argv]

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        timeout = max(1.0, OP_DEADLINE_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out,
                                    stderr=err, preexec_fn=limit if cap else None)
            killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Op(name=name, argv=argv, wall=wall,
                  cpu=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, exit=proc.returncode,
                  stdout=out_path.read_text(errors="replace"),
                  stderr=err_path.read_text(errors="replace"))


# --- output checks -------------------------------------------------------------


def report_digest(out_dir: Path) -> str | None:
    """sha256 of report.txt without its timestamp header line."""
    path = out_dir / "report.txt"
    if not path.is_file():
        return None
    body = path.read_bytes().split(b"\n", 1)[1]
    return hashlib.sha256(body).hexdigest()


def check_probe(op: Op, out_dir: Path, expected_cells: int) -> list[float]:
    """Cell and codelength checks of one ``probe run``; returns the
    codelengths (kbits) of its successful cells."""
    op.cells = expected_cells
    path = out_dir / "cells.json"
    records = json.loads(path.read_text())["cells"] if path.is_file() else []
    good = [r for r in records if r["error"] is None]
    op.failed_cells = expected_cells - len(good)
    if len(records) != expected_cells:
        op.failed_checks.append(f"{len(records)} cells in cells.json, expected {expected_cells}")
    kbits = []
    for rec in good:
        bits = rec["total_bits"]
        if bits is None or not math.isfinite(bits) or bits <= 0:
            op.failed_checks.append(f"codelength {bits!r} is not finite and positive")
        else:
            kbits.append(bits / 1000.0)
    return kbits


def load_table(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([line.split(" ")[1:] for line in fh], dtype=float)


def check_table(op: Op, path: Path, n: int, eigennoise: bool) -> None:
    """Row count and zero OOV/PAD rows; for eigennoise tables also
    orthonormal columns and a first column proportional to 1/rank."""
    rows = load_table(path)
    if rows.shape != (n + 2, LADDER_D):
        op.failed_checks.append(f"table shape {rows.shape}, expected {(n + 2, LADDER_D)}")
        return
    if np.any(rows[n:] != 0.0):
        op.failed_checks.append("OOV/PAD rows are not zero")
    u = rows[:n]
    if not np.isfinite(u).all():
        op.failed_checks.append("table has non-finite entries")
        return
    if eigennoise:
        gram_err = float(np.abs(u.T @ u - np.eye(LADDER_D)).max())
        if gram_err > ORTHO_TOL:
            op.failed_checks.append(f"|U^T U - I| = {gram_err:.3g} > {ORTHO_TOL}")
        scaled = u[:, 0] * np.arange(1, n + 1)
        spread = float(np.abs(scaled / scaled[0] - 1.0).max())
        if spread > ZIPF_COLUMN_RTOL:
            op.failed_checks.append(f"first column deviates from 1/i by {spread:.3g}")


def check_matched(op: Op, expected: int) -> None:
    found = re.search(r"^matched\t(\d+)$", op.stdout, re.MULTILINE)
    if found is None or int(found.group(1)) != expected:
        got = found.group(1) if found else "none"
        op.failed_checks.append(f"matched {got}, expected {expected}")


# --- workloads -----------------------------------------------------------------


class Workload:
    """Inputs, set-up commands and measured phase of one workload."""

    name = ""
    phase_s = 10.0  # nominal phase wall time; sets the repetition count

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.digests: list[str] = []  # report body sha256 per repetition

    def setup(self, runner: Runner, spans=None) -> list[Op]:
        return [runner.run("cold start", ["--help"], spans=self._spans(spans, "start"))]

    def phase(self, runner: Runner, rep: str, spans=None) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], rep: str) -> list[float]:
        """Output checks of one phase; returns its cells' codelengths (kbits)."""
        return []

    @staticmethod
    def _spans(spans: Path | None, label: str) -> Path | None:
        return None if spans is None else spans / f"{label}.json"


class ProbeWorkload(Workload):
    """A phase of one ``probe run`` with ``probe_cells`` matrix cells."""

    probe_cells = 4
    probe_args: tuple = ()

    def phase(self, runner, rep, spans=None):
        argv = ["probe", "run", *self.probe_args, "--output-dir", f"probe-{rep}"]
        return [runner.run("probe run", argv, spans=self._spans(spans, f"probe-{rep}"))]

    def check(self, ops, rep):
        out = self.work / f"probe-{rep}"
        kbits = check_probe(ops[0], out, self.probe_cells)
        digest = report_digest(out)
        if digest is not None:
            if self.digests and digest != self.digests[0]:
                ops[0].failed_checks.append(
                    f"report body {digest} differs from the first, {self.digests[0]}")
            self.digests.append(digest)
        return kbits


class DeskSynthetic(ProbeWorkload):
    name = "desk-synthetic"
    phase_s = 9.0
    probe_args = ("--task", "synthetic", "--n", str(DESK_N), "--seeds", "0")


class TokenZipf(ProbeWorkload):
    name = "token-zipf"
    phase_s = 13.0
    files = tokenzipf.FILES
    probe_args = ("--task", "conll", "--train", files["train"], "--dev", files["dev"],
                  "--test", files["test"], "--representations",
                  f"random,import:{files['glove']}", "--windows", "2",
                  "--seeds", "0", "--frozen", "both")

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.inputs = tokenzipf.generate(work, seed, TOKEN_TRAIN_TOKENS)

    def setup(self, runner, spans=None):
        ops = super().setup(runner, spans)
        vocab = runner.run("vocab build", [
            "vocab", "build", "--format", "conll", "--input", self.files["train"],
            "--output", "vocab.tsv"], spans=self._spans(spans, "vocab"))
        if f"wrote {self.inputs['train_types']} ranks" not in vocab.stdout:
            vocab.failed_checks.append(
                f"vocabulary size is not {self.inputs['train_types']}")
        ops.append(vocab)
        for kind in ("glove", "vec"):
            op = runner.run(f"embed import {self.files[kind]}", [
                "embed", "import", "--source", self.files[kind], "--vocab", "vocab.tsv",
                "--output", f"imported-{kind}.txt"],
                spans=self._spans(spans, f"import-{kind}"))
            if op.ok:
                check_matched(op, self.inputs["expected_matched"])
            ops.append(op)
        return ops


class EmbedLadder(Workload):
    name = "embed-ladder"
    phase_s = 10.0

    def phase(self, runner, rep, spans=None):
        ops = []
        for n in LADDER_NS:
            argv = ["embed", "eigennoise", "--n", str(n), "--d", str(LADDER_D),
                    "--output", f"eigennoise-{n}-{rep}.txt"]
            ops.append(runner.run(f"embed eigennoise n={n}", argv, cap=LADDER_CAP,
                                  spans=self._spans(spans, f"eigen{n}-{rep}")))
        n = LADDER_NS[-1]
        argv = ["embed", "random", "--n", str(n), "--d", str(LADDER_D),
                "--output", f"random-{n}-{rep}.txt"]
        ops.append(runner.run(f"embed random n={n}", argv, cap=LADDER_CAP,
                              spans=self._spans(spans, f"random-{rep}")))
        return ops

    def check(self, ops, rep):
        for op in ops:
            if not op.ok:
                continue
            path = self.work / op.argv[op.argv.index("--output") + 1]
            check_table(op, path, int(op.argv[op.argv.index("--n") + 1]),
                        eigennoise=op.argv[1] == "eigennoise")
            path.unlink()
        return []


WORKLOADS = {cls.name: cls for cls in (DeskSynthetic, TokenZipf, EmbedLadder)}


# --- per-layer metrics from spans ------------------------------------------------

#: Which end-to-end metric each per-layer metric should move, and where;
#: the first matching name prefix applies.
MOVES = (
    ("probe.adam_step", "run_s, cpu_s; mainly token-zipf"),
    ("probe.backward", "run_s, cpu_s; mainly desk-synthetic"),
    ("probe.evaluate_loss", "run_s, cpu_s; mainly desk-synthetic"),
    ("probe.train_probe", "run_s on both probe workloads; a pure speed-up leaves the counts"),
    ("probe.token_window_data", "cli.context_s, so run_s; token-zipf"),
    ("probe.synthetic_token_data", "cli.context_s, so run_s; desk-synthetic"),
    ("probe.", "run_s, cpu_s on both probe workloads"),
    ("cli.", "run_s on both probe workloads"),
    ("mdl.", "run_s on both probe workloads"),
    ("eigen.", "run_s, peak_rss_mb, ops_ok on embed-ladder; not the probe workloads"),
    ("harmonic.", "run_s, peak_rss_mb, ops_ok on embed-ladder; not the probe workloads"),
    ("embeddings.import_text", "setup_s on token-zipf"),
    ("embeddings.", "run_s on embed-ladder"),
    ("vocab.", "setup_s on token-zipf; cli.context_s on the probe workloads"),
    ("datasets.", "cli.context_s, so run_s, on the probe workloads"),
    ("trace.", "nothing: the cost of tracing itself"),
)


def moves(metric: str) -> str:
    return next(target for prefix, target in MOVES if metric.startswith(prefix))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(processes: list[list]) -> dict[str, float]:
    """Per-layer metrics from the span lists of every traced process."""
    durs: dict[str, list[float]] = {}
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    extras: dict[str, list[tuple[float, dict]]] = {}  # (duration, extra)
    cells: dict[str, float] = {}
    queue_s = context_s = accuracy_s = 0.0
    for spans in processes:
        by_id = {s[0]: s for s in spans}
        child_s: dict[int, float] = {}
        for span_id, name, tag, start, end, parent, cell, extra in spans:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        for span_id, name, tag, start, end, parent, cell, extra in spans:
            dur = end - start
            durs.setdefault(name, []).append(dur)
            if tag is not None:
                durs.setdefault(f"{name}.{tag}", []).append(dur)
            self_s[name] += dur - child_s.get(span_id, 0.0)
            if extra is not None:
                extras.setdefault(name, []).append((dur, extra))
            if name == "probe.train_probe" and (
                    parent is None or by_id[parent][1] != "mdl.online_codelength"):
                accuracy_s += dur
        cell_starts = sorted(s[3] for s in spans if s[1] == "cli.run_cell")
        if cell_starts:
            main_start = min(s[3] for s in spans if s[1] == "cli.main")
            context_s += cell_starts[0] - main_start
            queue_s += sum(t - cell_starts[0] for t in cell_starts)
            cells.update({s[6]: s[4] - s[3] for s in spans if s[1] == "cli.run_cell"})

    def total(name):
        return float(sum(durs.get(name, [])))

    def summed(name, key):
        return sum(e[key] for _, e in extras.get(name, []))

    m: dict[str, float] = {}
    for layer in ("probe.backward.frozen", "probe.backward.unfrozen",
                  "probe.adam_step.frozen", "probe.adam_step.unfrozen",
                  "probe.gather_features", "probe.evaluate_loss", "probe.predict_proba"):
        values = durs.get(layer, [])
        m[f"{layer}.p50_ms"] = 1e3 * _percentile(values, 0.50)
        m[f"{layer}.p99_ms"] = 1e3 * _percentile(values, 0.99)
        m[f"{layer}.calls"] = len(values)
    epochs = summed("probe.train_probe", "epochs")
    m["probe.train_probe.calls"] = len(durs.get("probe.train_probe", []))
    m["probe.train_probe.epochs"] = epochs
    m["probe.train_probe.useful_epoch_frac"] = (
        summed("probe.train_probe", "best_epoch") / epochs if epochs else 0.0)
    cell_s = list(cells.values())
    m["cli.context_s"] = context_s
    m["cli.run_cell.median_s"] = statistics.median(cell_s) if cell_s else 0.0
    m["cli.run_cell.max_s"] = max(cell_s, default=0.0)
    m["cli.run_cell.n"] = len(cell_s)
    m["cli.cell_queue_s"] = queue_s
    m["cli.accuracy_train_s"] = accuracy_s
    m["mdl.online_codelength.s"] = total("mdl.online_codelength")
    m["mdl.stages"] = summed("mdl.online_codelength", "stages")
    m["mdl.clamps"] = summed("mdl.online_codelength", "clamps")
    m["eigen.eigennoise_analytic.s"] = total("eigen.eigennoise_analytic")
    for n in LADDER_NS:
        at_n = [(d, e) for d, e in extras.get("eigen.eigennoise_analytic", []) if e["n"] == n]
        m[f"eigen.eigennoise_analytic.n{n}.s"] = float(sum(d for d, _ in at_n))
        m[f"eigen.eigennoise_analytic.n{n}.alloc_peak_mb"] = max(
            (e["alloc_peak_mb"] for _, e in at_n), default=0.0)
    m["eigen.to_embedding.s"] = total("eigen.to_embedding")
    m["harmonic.harmonic_number.calls"] = len(durs.get("harmonic.harmonic_number", []))
    m["harmonic.harmonic_number.s"] = total("harmonic.harmonic_number")
    for name, key, rate in (("embeddings.import_text", "lines", "lines_per_s"),
                            ("embeddings.export_text", "rows", "rows_per_s")):
        m[f"{name}.s"] = total(name)
        ok_s = sum(d for d, _ in extras.get(name, []))  # calls with a count
        m[f"{name}.{rate}"] = summed(name, key) / ok_s if ok_s else 0.0
    for name in ("embeddings.random_table", "vocab.build_vocab", "datasets.parse_conll",
                 "datasets.synth_task", "probe.token_window_data",
                 "probe.synthetic_token_data"):
        m[f"{name}.s"] = total(name)
    for name in LAYER_NAMES:
        m[f"{name}.self_s"] = self_s[name]
    m["trace.spans"] = sum(len(spans) for spans in processes)
    return m


# --- machine record ------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cache_size(level: int) -> str:
    for index in range(4, -1, -1):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if _read(f"{base}/level").strip() == str(level):
            return _read(f"{base}/size").strip() or "unknown"
    return "unknown"


def _git_sha() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(str(ROOT / ".git" / ref)).strip()
    if sha:
        return sha
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split(" ")[0]
    return "unknown"


def machine_record() -> dict:
    model = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.MULTILINE)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    own_cap = resource.getrlimit(resource.RLIMIT_AS)[0]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model.group(1).strip() if model else "unknown",
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "address_space_cap": {
            "embed-ladder children": f"{LADDER_CAP / 2**30:g} GiB",
            "benchmark": "unlimited" if own_cap == resource.RLIM_INFINITY else f"{own_cap} B",
        },
        "git_sha": _git_sha(),
    }


# --- one run -------------------------------------------------------------------------


@dataclass
class Outcome:
    e2e: dict
    layers: dict | None
    attempted: int
    failed: int
    failed_ops: list
    failed_checks: list
    digests: list


def measure(workload: Workload, runner: Runner, seconds: float, trace: bool) -> Outcome:
    all_ops: list[Op] = []
    setups = []
    for _ in range(SETUP_PASSES):
        ops = workload.setup(runner)
        setups.append(ops)
        all_ops += ops

    reps = max(1, int(seconds // workload.phase_s))
    phases, kbits = [], []
    while len(phases) < reps:
        rep = str(len(phases))
        start = time.perf_counter()
        ops = workload.phase(runner, rep)
        wall = time.perf_counter() - start
        cell_kbits = workload.check(ops, rep)
        if not phases:
            kbits = cell_kbits
        phases.append((wall, ops))
        all_ops += ops
        typical = statistics.median(w for w, _ in phases)
        if time.perf_counter() - runner.started + typical > RUN_DEADLINE_S:
            break

    layers = None
    if trace:
        span_dir = workload.work / "spans"
        span_dir.mkdir()
        all_ops += workload.setup(runner, spans=span_dir)
        start = time.perf_counter()
        ops = workload.phase(runner, "traced", spans=span_dir)
        traced_wall = time.perf_counter() - start
        workload.check(ops, "traced")
        all_ops += ops
        processes = [json.loads(p.read_text())["spans"] for p in sorted(span_dir.iterdir())]
        layers = layer_metrics(processes)
        layers["trace.run_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - statistics.median(w for w, _ in phases)

    ops_per_pass = sum(op.attempted for op in setups[0] + phases[0][1])
    failed_per_pass = (max(sum(op.failed for op in ops) for ops in setups)
                       + max(sum(op.failed for op in ops) for _, ops in phases))
    e2e = {
        "setup_s": statistics.median(sum(op.wall for op in ops) for ops in setups),
        "run_s": statistics.median(w for w, _ in phases),
        "cpu_s": statistics.median(sum(op.cpu for op in ops) for _, ops in phases),
        "peak_rss_mb": max(
            statistics.median(max(op.rss_mb for op in ops) for ops in setups),
            statistics.median(max(op.rss_mb for op in ops) for _, ops in phases)),
        "ops": ops_per_pass,
        "ops_ok": ops_per_pass - failed_per_pass,
        "ops_failed": failed_per_pass,
        "codelength_kbits": statistics.fmean(kbits) if kbits else None,
        "repetitions": len(phases),
        "phase_walls_s": [round(w, 3) for w, _ in phases],
    }
    failed_ops = {f"{op.name}: exit {op.exit}: {(op.stderr.strip().splitlines() or [''])[-1]}"
                  for op in all_ops if not op.ok}
    return Outcome(e2e=e2e, layers=layers, failed_ops=sorted(failed_ops),
                   attempted=sum(op.attempted for op in all_ops),
                   failed=sum(op.failed for op in all_ops),
                   failed_checks=[f"{op.name}: {msg}" for op in all_ops
                                  for msg in op.failed_checks],
                   digests=sorted(set(workload.digests)))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](work, seed)
        return measure(workload, Runner(work, time.perf_counter()), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eigennoise" / "cli.py").is_file() or not SPEC.is_file():
        print("bench: run from the root of an eigennoise source checkout "
              "(needs src/eigennoise and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    print("machine " + json.dumps(machine_record(), sort_keys=True), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct = correct and not out.failed_checks
        attempted += out.attempted
        failed += out.failed
        print(f"workload {name} seed={args.seed} why: {whys[name]}")
        for key, value in out.e2e.items():
            print(f"  {key:<20} {'n/a' if value is None else value} {E2E_UNITS[key]}")
        for line in out.failed_ops:
            print(f"  failed op           {line}")
        for digest in out.digests:
            print(f"  report_sha256        {digest}")
        for msg in out.failed_checks:
            print(f"  CHECK FAILED         {msg}")
        chosen, units = (out.layers, layer_units) if args.trace else (out.e2e, e2e_units)
        if args.trace:
            for key, unit in layer_units.items():
                print(f"  {key:<48} {out.layers[key]:<12.6g} {unit:<6} moves {moves(key)}")
        missing = sorted(set(units) - set(chosen))
        if missing:
            print(f"bench: metrics missing from the run: {missing}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": chosen[key], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
