"""Run the eigennoise CLI in-process with a span around each public layer.

    python3 bench/tracer.py SPANS.json -- <eigennoise CLI arguments>

Before ``cli.main`` runs, every function named in ``LAYERS`` is replaced,
in each eigennoise module that holds it, by a wrapper that records one
span per call: name, tag, start, end, parent span and matrix cell. Each
thread keeps its own span stack, so cells running on the CLI's worker
pool nest correctly. Spans stay in memory and are written to SPANS.json
when the command ends, whatever its outcome; the exit code is the CLI's.
``eigen.eigennoise_analytic`` additionally runs under tracemalloc to
record its peak allocation. ``factorization`` is on no CLI path and is
not traced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import tracemalloc

LAYERS = {
    "cli": ("main", "run_cell"),
    "mdl": ("online_codelength",),
    "probe": ("train_probe", "backward", "adam_step", "gather_features",
              "evaluate_loss", "predict_proba", "token_window_data",
              "synthetic_token_data"),
    "eigen": ("eigennoise_analytic", "to_embedding"),
    "harmonic": ("harmonic_number",),
    "embeddings": ("import_text", "export_text", "random_table"),
    "vocab": ("build_vocab",),
    "datasets": ("parse_conll", "synth_task"),
}
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


# Per-layer hooks: tag(args, kwargs) names the variant of a call;
# extra(args, kwargs, result) adds counts read from its inputs and result
# (result is None when the call raised).
def _backward_tag(args, kwargs):
    table = args[0].table
    indices = kwargs.get("indices", args[3] if len(args) > 3 else None)
    trainable = table is not None and table.trainable and indices is not None
    return "unfrozen" if trainable else "frozen"


def _train_probe_extra(args, kwargs, result):
    if result is None:
        return None
    trace = result[1]
    losses = [row.dev_loss for row in trace]
    return {"epochs": len(trace), "best_epoch": losses.index(min(losses)) + 1}


def _codelength_extra(args, kwargs, result):
    if result is None:
        return None
    return {"stages": len(result.boundaries) - 1, "clamps": result.clamp_count}


def _import_extra(args, kwargs, result):
    return None if result is None else {"lines": _count_lines(args[0])}


TAGS = {
    "probe.backward": _backward_tag,
    "probe.adam_step": lambda args, kwargs: "unfrozen" if "table" in args[2] else "frozen",
}
EXTRAS = {
    "probe.train_probe": _train_probe_extra,
    "mdl.online_codelength": _codelength_extra,
    "embeddings.import_text": _import_extra,
    "embeddings.export_text": lambda args, kwargs, result: {"rows": args[0].rows.shape[0]},
    "eigen.eigennoise_analytic": lambda args, kwargs, result: {"n": args[0]},
}
MEMORY_TRACED = {"eigen.eigennoise_analytic"}


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        tag_of = TAGS.get(name)
        extra_of = EXTRAS.get(name)
        traced_memory = name in MEMORY_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            if not hasattr(local, "stack"):
                local.stack, local.cell = [], None
            if name == "cli.run_cell":
                local.cell = args[0].name
            span_id = next(self._ids)
            parent = local.stack[-1] if local.stack else None
            tag = tag_of(args, kwargs) if tag_of else None
            local.stack.append(span_id)
            if traced_memory:
                tracemalloc.start()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                local.stack.pop()
                extra = extra_of(args, kwargs, result) if extra_of else None
                if traced_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    extra = {**(extra or {}), "alloc_peak_mb": peak / 2**20}
                self.spans.append([span_id, name, tag, start, end, parent,
                                   local.cell, extra])
                if name == "cli.run_cell":
                    local.cell = None

        return traced

    def install(self) -> None:
        """Swap every layer function for its wrapper wherever a module
        of the package holds it, so internal calls are traced too."""
        modules = {mod: importlib.import_module(f"eigennoise.{mod}") for mod in LAYERS}
        for mod, fns in LAYERS.items():
            for fn_name in fns:
                original = getattr(modules[mod], fn_name)
                wrapper = self.wrap(f"{mod}.{fn_name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <eigennoise CLI arguments>",
              file=sys.stderr)
        return 1
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from eigennoise import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
