"""Defaults that the CLI shows and the library modules share.

Each value has its one owner here, and this module imports nothing: the
parser sets real defaults, while ``--help`` and the usage errors found
while parsing load no more than argparse and this module. Defaults that
only the CLI uses stay in its parser.
"""

DEFAULT_WINDOW = 5  # window half-width m of the harmonic model
DEFAULT_MAX_SIZE = 20_000  # the most ranks a vocabulary keeps
SYNTH_KINDS = ("separable", "noisy")
ALLOWED_WINDOWS = (0, 2, 5, 10)  # the conll window half-widths, and their default
# online-codelength block boundaries, in percent of the train stream
DEFAULT_FRACTIONS = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.25, 12.5, 25.0, 50.0, 100.0)

# the probe.TrainConfig fields that probe run sets
DEFAULT_LR = 0.001
DEFAULT_PATIENCE = 4
DEFAULT_BATCH_SIZE = 64
DEFAULT_MAX_EPOCHS = 50
DEFAULT_HIDDEN = 512
