"""Letter-count limit keeping brute-force truth tables desk-scale."""

from __future__ import annotations

import os

from .errors import LimitError

DEFAULT_MAX_LETTERS = 20
# Highest accepted setting: at 24 letters the cached row patterns take 48 MiB
# and one table 2 MiB; each further letter at least doubles both.
MAX_LETTERS_CEILING = 24
_ENV_VAR = "LOGICREL_MAX_LETTERS"


def max_letters() -> int:
    """Letter limit: LOGICREL_MAX_LETTERS (1 to MAX_LETTERS_CEILING) if set, else the default."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_LETTERS
    try:
        value = int(raw)
    except ValueError:
        raise LimitError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise LimitError(f"{_ENV_VAR} must be at least 1, got {value}")
    if value > MAX_LETTERS_CEILING:
        raise LimitError(f"{_ENV_VAR} must be at most {MAX_LETTERS_CEILING}, got {value}")
    return value


def check_letters(count: int, subject: str) -> None:
    """The one letter-limit check: refuse `count` letters above max_letters().

    `subject` words the count in the error, e.g. "universe has {} letters".
    """
    limit = max_letters()
    if count > limit:
        raise LimitError(f"{subject.format(count)}, limit is {limit}")
