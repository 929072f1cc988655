"""Exception hierarchy shared by every module.

Anything raised on purpose derives from MixformerError so callers can
catch one base class.  The CLI maps the three broad families to exit
codes: ConfigError -> 2, DataError -> 3, NumericError -> 4.
"""


class MixformerError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MixformerError):
    """An array does not satisfy a dimension or divisibility contract."""


class ConfigError(MixformerError):
    """A configuration, preset, or flag combination is invalid."""


class DataError(MixformerError):
    """A dataset, schema, or checkpoint file is malformed or inconsistent."""


class VocabError(DataError):
    """A feature id falls outside its declared vocabulary."""


class MetricError(DataError):
    """A metric is undefined on the given inputs (e.g. single-class AUC)."""


class NumericError(MixformerError):
    """A computation produced non-finite values."""


class GraphReleasedError(MixformerError):
    """backward() reached a node whose graph an earlier backward() consumed."""
