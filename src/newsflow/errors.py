"""Exception types shared across the toolkit.

Input-side problems derive from :class:`InputError`, numerical failures from
:class:`NumericalError`.  The CLI maps the former to exit code 2 and the
latter to exit code 3; ``error_code`` is the machine-readable token printed
on stderr.
"""

from __future__ import annotations

import re


def _snake_upper(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()


class NewsflowError(Exception):
    """Base class for all toolkit errors."""

    @property
    def error_code(self) -> str:
        return _snake_upper(type(self).__name__)


class InputError(NewsflowError):
    """Bad or missing input data (CLI exit code 2)."""


class NumericalError(NewsflowError):
    """Estimation or simulation failure (CLI exit code 3)."""


# corpus -----------------------------------------------------------------

class MalformedRecord(InputError):
    def __init__(self, message: str, source: str = "", position: int | None = None):
        self.detail = message
        self.position = position
        where = f"{source}:{position}" if position is not None else source
        super().__init__(f"{where}: {message}" if where else message)


class DuplicateId(InputError):
    def __init__(self, article_id: str):
        super().__init__(f"duplicate article id {article_id!r}")


class EmptyCorpus(InputError):
    pass


# lexicon ----------------------------------------------------------------

class MissingField(InputError):
    def __init__(self, key: str, line: str = ""):
        super().__init__(f"missing required key {key!r}" + (f" in line {line!r}" if line else ""))


class InvalidValue(InputError):
    def __init__(self, key: str, value: str):
        super().__init__(f"invalid value {value!r} for key {key!r}")


class EmptyList(InputError):
    pass


class LexiconNotFound(InputError):
    pass


# sentiment --------------------------------------------------------------

class NoActiveRecords(InputError):
    pass


# indicators -------------------------------------------------------------

class PriceParseError(InputError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# panel ------------------------------------------------------------------

class EmptyPanel(InputError):
    pass


class RankDeficient(NumericalError):
    def __init__(self, columns: list[str]):
        super().__init__(f"collinear regressor columns: {', '.join(columns)}")


class TooFewObservations(InputError):
    pass


class SingleCluster(InputError):
    pass


class ConstantColumn(InputError):
    pass


# simulate ---------------------------------------------------------------

class TooFewPoints(InputError):
    pass


class NonPSDMatrix(NumericalError):
    pass


class NonConvergence(NumericalError):
    pass


class DegenerateX(InputError):
    pass


class TooFewBootstraps(InputError):
    pass


class MissingComponent(InputError):
    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"scenario component {name!r} is missing" + (f" {detail}" if detail else ""))


class MissingInput(InputError):
    pass
