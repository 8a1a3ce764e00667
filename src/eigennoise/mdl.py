"""Online (prequential) codelength over a block schedule.

The label stream is shuffled once per seed, the first block is paid for
with a uniform code (t1 * log2 K bits), and every later block is scored
by a model freshly trained on everything transmitted so far. Shorter
total codelength means the representation is more regular with respect
to the labels.

``format_table`` aggregates saved cell records into the table that
``probe run`` and ``report aggregate`` print; it needs no probe stack.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .defaults import CELL_FIELDS, DEFAULT_FRACTIONS

if TYPE_CHECKING:  # report aggregate uses this module without the probe stack
    from .probe import ProbeData, TrainConfig

    #: fit_predict(train_prefix, dev, config) -> callable mapping a ProbeData
    #: batch to an (n, K) matrix of predicted class probabilities.
    FitPredict = Callable[[ProbeData, ProbeData, TrainConfig],
                          Callable[[ProbeData], np.ndarray]]

#: Smallest admissible predicted probability for a true label.
PROB_CLAMP = 2.0**-64


@dataclass(frozen=True)
class BlockSchedule:
    boundaries: tuple[int, ...]  # strictly increasing, last == n

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if self.boundaries[0] < 1:
            raise ValueError("first boundary must be >= 1")

    @property
    def n(self) -> int:
        return self.boundaries[-1]


def make_schedule(n: int, fractions: Sequence[float] = DEFAULT_FRACTIONS) -> BlockSchedule:
    """Boundary for fraction p is ceil(p*n/100); deduplicated, last forced to n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    bounds = sorted({min(math.ceil(p * n / 100.0), n) for p in fractions if p > 0})
    if not bounds or bounds[-1] != n:
        bounds.append(n)
    if len(bounds) < 2:
        raise ValueError(
            f"n={n} yields fewer than 2 distinct block boundaries; "
            "the online code needs at least one trained block"
        )
    return BlockSchedule(boundaries=tuple(bounds))


@dataclass(frozen=True)
class CodelengthReport:
    block_bits: tuple[float, ...]
    block_clamps: tuple[int, ...]
    boundaries: tuple[int, ...]
    num_classes: int
    seed: int

    @property
    def n(self) -> int:
        return self.boundaries[-1]

    @property
    def total_bits(self) -> float:
        return float(sum(self.block_bits))

    @property
    def kilobits(self) -> float:
        return self.total_bits / 1000.0

    @property
    def kilobytes(self) -> float:
        return self.total_bits / 8000.0

    @property
    def clamp_count(self) -> int:
        return int(sum(self.block_clamps))

    @property
    def uniform_baseline_bits(self) -> float:
        """Cost of sending every label with the uniform code."""
        return self.n * math.log2(self.num_classes)


def online_codelength(
    data: ProbeData,
    schedule: BlockSchedule,
    fit_predict: FitPredict,
    config: TrainConfig,
    dev: ProbeData | None = None,
) -> CodelengthReport:
    """Transmission cost of the label stream under the online protocol.

    The stream order is one seeded shuffle of ``data`` (seed =
    ``config.seed``). Block 1 costs t1*log2(K); block i+1 costs
    -sum log2 p(y|x) under a model trained on examples 1..t_i. When no
    ``dev`` split is given, each stage holds out a seeded 10% of its
    prefix for early stopping. Predicted probabilities are clamped at
    2**-64 and clamps counted, so codelengths stay finite.
    """
    if schedule.n != len(data):
        raise ValueError(f"schedule covers {schedule.n} examples, data has {len(data)}")
    k = data.num_classes
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    stream = data.subset(rng.permutation(len(data)))
    bounds = schedule.boundaries
    bits = [bounds[0] * math.log2(k)]
    clamps = [0]
    for stage in range(1, len(bounds)):
        lo, hi = bounds[stage - 1], bounds[stage]
        stage_train, stage_dev = holdout(stream.subset(slice(lo)), dev, config.seed, stage)
        predict = fit_predict(stage_train, stage_dev, config)
        block = stream.subset(slice(lo, hi))
        probs = np.asarray(predict(block), dtype=float)
        p_true = probs[np.arange(len(block)), block.labels]
        clamped = int((p_true < PROB_CLAMP).sum())
        p_true = np.maximum(p_true, PROB_CLAMP)
        bits.append(float(-np.log2(p_true).sum()))
        clamps.append(clamped)
    return CodelengthReport(
        block_bits=tuple(bits),
        block_clamps=tuple(clamps),
        boundaries=bounds,
        num_classes=k,
        seed=config.seed,
    )


def holdout(prefix: ProbeData, dev: ProbeData | None, seed: int,
            stage: int) -> tuple[ProbeData, ProbeData]:
    """The (train, dev) split of a fit on ``prefix``: the given ``dev``
    split, else a seeded 10% holdout (at least one example each side)."""
    if dev is not None:
        return prefix, dev
    n = len(prefix)
    if n < 2:
        return prefix, prefix  # degenerate stage: dev == train
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stage,))
    perm = np.random.Generator(np.random.Philox(seed=seq)).permutation(n)
    n_dev = max(1, n // 10)
    return prefix.subset(perm[n_dev:]), prefix.subset(perm[:n_dev])


def aggregate(values: Sequence[float]) -> tuple[float, float]:
    """Mean and (n-1)-denominator standard deviation; std 0 for one value."""
    if len(values) == 0:
        raise ValueError("nothing to aggregate")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = 0.0 if len(arr) == 1 else float(arr.std(ddof=1))
    return mean, std


def _format_mean_std(values: list[float], scale: float = 1.0) -> str:
    if not values:
        return "-"
    mean, std = aggregate(values)
    return f"{mean * scale:.3f} ± {std * scale:.3f}"


def _setting_labels(settings: set) -> dict:
    """Each of one task's settings (JSON text, or None for none) -> the
    spec fields whose values differ among them, as key=value in key order
    with the value as compact JSON, or "-" when it has none of them."""
    specs = {setting: json.loads(setting or "{}") for setting in settings}
    differ = sorted({key for spec in specs.values() for key in spec
                     if len({(key in other, json.dumps(other.get(key), sort_keys=True))
                             for other in specs.values()}) > 1})
    return {setting: " ".join(f"{key}={json.dumps(spec[key], separators=(',', ':'))}"
                              for key in differ if key in spec) or "-"
            for setting, spec in specs.items()}


def format_table(records: list[dict]) -> str:
    """One row per (task, setting, representation, window, uniform baseline)
    over the scored cell records: frozen/unfrozen codelength and accuracy as
    mean ± std over seeds; runs of one task at two sizes get a row each. A
    record's setting is the one ``read_records`` hands on with it, if any.
    When a task's rows come from more than one setting, a ``setting`` column
    after ``task`` shows the spec fields whose values differ among that
    task's settings, as key=value in key order."""
    groups: dict[tuple, dict] = {}
    for rec in records:
        if rec["error"] is not None or rec["total_bits"] is None:
            continue
        key = (rec["task"], rec.get("setting"), rec["representation"], rec["window"],
               rec["uniform_bits"])
        g = groups.setdefault(key, {"frozen": [], "unfrozen": [],
                                    "frozen_acc": [], "unfrozen_acc": []})
        side = "frozen" if rec["frozen"] else "unfrozen"
        g[side].append(rec["total_bits"])
        if rec["accuracy"] is not None:
            g[side + "_acc"].append(rec["accuracy"])
    settings: dict[str, set] = {}
    for task, setting, *_ in groups:
        settings.setdefault(task, set()).add(setting)
    labels = {(task, setting): label for task, found in settings.items()
              for setting, label in _setting_labels(found).items()}
    by_setting = any(len(found) > 1 for found in settings.values())
    header = ["task", *(["setting"] if by_setting else []), "representation", "window",
              "frozen_kbits", "unfrozen_kbits", "uniform_kbits",
              "frozen_acc", "unfrozen_acc"]
    body = []
    for (task, setting, rep, window, uniform), g in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][2],
                                            -1 if kv[0][3] is None else kv[0][3], kv[0][4],
                                            labels[kv[0][:2]])):
        body.append([
            task,
            *([labels[task, setting]] if by_setting else []),
            rep,
            "-" if window is None else str(window),
            _format_mean_std(g["frozen"], scale=1e-3),
            _format_mean_std(g["unfrozen"], scale=1e-3),
            f"{uniform / 1000.0:.3f}",
            _format_mean_std(g["frozen_acc"]),
            _format_mean_std(g["unfrozen_acc"]),
        ])
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


_NONE = type(None)

#: the keys ``format_table`` reads, each with the types its value may take
RECORD_KEYS = {
    "task": (str,),
    "representation": (str,),
    "window": (int, _NONE),
    "frozen": (bool,),
    "accuracy": (int, float, _NONE),
    "error": (str, _NONE),
    "total_bits": (int, float, _NONE),
    "uniform_bits": (int, float, _NONE),
}


def _type_fault(rec: dict) -> str | None:
    """Why ``format_table`` cannot read ``rec`` (a type, a score without baseline), or None."""
    for key, types in RECORD_KEYS.items():
        value = rec[key]
        # bool is an int subclass, but only "frozen" may hold one
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            expected = " or ".join("null" if t is _NONE else t.__name__ for t in types)
            return f"{key!r} is {json.dumps(value)}, expected {expected}"
    if rec["total_bits"] is not None and rec["uniform_bits"] is None:
        return f"'uniform_bits' is null, but 'total_bits' is {json.dumps(rec['total_bits'])}"
    return None


def read_records(input_dir) -> list[dict]:
    """The cell records of every ``cells.json`` under ``input_dir``. A file
    that is not JSON, holds no ``cells`` list, holds a ``spec`` that is not
    an object, or holds a record without one of ``RECORD_KEYS`` (those
    ``format_table`` reads) or with a ``_type_fault`` raises a ValueError
    that names it; so does a cell that an earlier record of the same
    setting already scored, naming both files, because ``format_table``
    would count it as a seed twice. A run's setting is its spec (``{}``
    when a file has none) without the fields that list its cells, so runs
    with overlapping seed lists repeat their shared seeds; each record
    holds it as JSON text under ``setting``, for ``format_table``."""
    paths = sorted(Path(input_dir).rglob("cells.json"))
    if not paths:
        raise ValueError(f"no cells.json found under {input_dir}")
    records = []
    seen = {}  # (setting, task, cell) -> the file that holds it
    for path in paths:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        cells = payload.get("cells") if isinstance(payload, dict) else None
        if not isinstance(cells, list):
            raise ValueError(f'{path}: expected an object with a "cells" list')
        spec = payload.get("spec", {})
        if not isinstance(spec, dict):
            raise ValueError(f'{path}: expected "spec" to be an object')
        setting = json.dumps({key: value for key, value in spec.items()
                              if key not in CELL_FIELDS}, sort_keys=True)
        for i, rec in enumerate(cells):
            missing = [key for key in RECORD_KEYS if not isinstance(rec, dict) or key not in rec]
            if missing:
                raise ValueError(f"{path}: cell {i} has no {missing[0]!r}")
            fault = _type_fault(rec)
            if fault is not None:
                raise ValueError(f"{path}: cell {i}: {fault}")
            cell = tuple(rec.get(key) for key in ("representation", "window", "frozen", "seed"))
            key = (setting, rec["task"], cell)
            if key in seen:
                rep, window, frozen, seed = cell
                raise ValueError(
                    f"{path}: cell {i} (representation={rep}, window={window}, "
                    f"frozen={frozen}, seed={seed}) repeats a cell of {seen[key]} "
                    "with the same setting")
            seen[key] = path
            rec["setting"] = setting
        records.extend(cells)
    return records


def format_report(report: CodelengthReport) -> str:
    """Structured text: one record per block, then totals and baseline."""
    lines = ["block\tstart\tend\tbits\tclamps"]
    lo = 0
    for i, (bits, clamps, hi) in enumerate(
        zip(report.block_bits, report.block_clamps, report.boundaries), start=1
    ):
        lines.append(f"{i}\t{lo}\t{hi}\t{bits:.6f}\t{clamps}")
        lo = hi
    lines.append(f"total_bits\t{report.total_bits:.6f}")
    lines.append(f"kilobits\t{report.kilobits:.6f}")
    lines.append(f"kilobytes\t{report.kilobytes:.6f}")
    lines.append(f"uniform_bits\t{report.uniform_baseline_bits:.6f}")
    lines.append(f"classes\t{report.num_classes}")
    lines.append(f"n\t{report.n}")
    lines.append(f"seed\t{report.seed}")
    lines.append(f"clamp_count\t{report.clamp_count}")
    return "\n".join(lines) + "\n"


def write_report(report: CodelengthReport, path: str | Path) -> None:
    Path(path).write_text(format_report(report), encoding="utf-8")
