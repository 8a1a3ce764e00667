"""Defaults that the CLI shows and the library modules share, and the
rules of option values, which the parser and ``matrix.RunSpec`` both
apply through ``option_fault``. Each value and rule has its one owner
here, and this module imports nothing: the parser sets real defaults,
while ``--help`` and the usage errors found while parsing load no more
than argparse and this module. CLI-only defaults stay in its parser.
"""

DEFAULT_WINDOW = 5  # window half-width m of the harmonic model
DEFAULT_MAX_SIZE = 20_000  # the most ranks a vocabulary keeps
ALLOWED_WINDOWS = (0, 2, 5, 10)  # the conll window half-widths, and their default
# online-codelength block boundaries, in percent of the train stream
DEFAULT_FRACTIONS = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.25, 12.5, 25.0, 50.0, 100.0)

# the probe.TrainConfig fields that probe run sets
DEFAULT_LR = 0.001
DEFAULT_PATIENCE = 4
DEFAULT_BATCH_SIZE = 64
DEFAULT_MAX_EPOCHS = 50
DEFAULT_HIDDEN = 512

#: The values of each choice option, and the least value of each integer
#: option, for every command that has it, in the order they are checked.
CHOICES = {"task": ("synthetic", "tsv", "conll"), "kind": ("separable", "noisy"),
           "mode": ("linear", "log"), "case_fold": ("auto", "on", "off")}
MINIMUM = {"d": 1, "m": 1, "classes": 1, "hidden": 1, "batch_size": 1, "max_epochs": 1,
           "patience": 1, "workers": 1, "vocab_cap": 1, "max_size": 1, "expected_d": 1,
           "data_seed": 0, "token_column": 0, "label_column": 0, "seed": 0, "seeds": 0,
           "completion_seed": 0, "n": 1}
PHILOX_KEYS = ("seed", "seeds", "completion_seed")  # so also below SEED_LIMIT
SEED_LIMIT = 2**128  # numpy's Philox takes keys in [0, 2**128)


def option_fault(values) -> str | None:
    """The usage text of the first value in ``values`` (dest -> value; a
    tuple for a list option; an absent dest, or a None integer, is unset)
    outside ``CHOICES``, in argparse's words, below its ``MINIMUM`` or, for
    a Philox key, at or above ``SEED_LIMIT``; None when there is none."""
    for dest, choices in CHOICES.items():
        if (value := values.get(dest, choices[0])) not in choices:
            return (f"argument --{dest.replace('_', '-')}: invalid choice: {value!r} "
                    f"(choose from {', '.join(map(repr, choices))})")
    for dest, least in MINIMUM.items():
        value = values.get(dest)
        given = value if isinstance(value, tuple) else () if value is None else (value,)
        option = f"--{dest.replace('_', '-')}"
        if low := [v for v in given if v < least]:
            return f"{option} must be >= {least}, got {low[0]}"
        if high := [v for v in given if dest in PHILOX_KEYS and v >= SEED_LIMIT]:
            return f"{option} must be < 2**128, got {high[0]}"
    return None
