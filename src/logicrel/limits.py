"""Letter-count limit keeping brute-force truth tables desk-scale."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Union

from .errors import LimitError

DEFAULT_MAX_LETTERS = 20
# Highest accepted setting: at 24 letters the cached row patterns take 48 MiB
# and one table 2 MiB; each further letter at least doubles both.
MAX_LETTERS_CEILING = 24
_ENV_VAR = "LOGICREL_MAX_LETTERS"

# Inside read_once(): the setting's value, or the LimitError its read raised.
# A context variable, so each thread's invocation holds its own read.
_held: ContextVar[Optional[Union[int, LimitError]]] = ContextVar("max_letters_read", default=None)


def max_letters() -> int:
    """Letter limit: LOGICREL_MAX_LETTERS (1 to MAX_LETTERS_CEILING) if set, else the default.

    The setting is ASCII digits with an optional sign; surrounding whitespace
    is ignored.  Each call reads the environment.
    """
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_LETTERS
    text = raw.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise LimitError(f"{_ENV_VAR} must be an integer, got {raw!r}")
    value = int(text)
    if value < 1:
        raise LimitError(f"{_ENV_VAR} must be at least 1, got {value}")
    if value > MAX_LETTERS_CEILING:
        raise LimitError(f"{_ENV_VAR} must be at most {MAX_LETTERS_CEILING}, got {value}")
    return value


@contextmanager
def read_once() -> Iterator[None]:
    """Read the setting once, on entry, and let every check in the block use that read.

    A check raises the read's LimitError, if it raised one, only when it is
    reached, so errors keep their order.  `cli.run` answers each invocation
    inside this block; outside it every check reads the environment.
    """
    try:
        held: Union[int, LimitError] = max_letters()
    except LimitError as e:
        held = e
    token = _held.set(held)
    try:
        yield
    finally:
        _held.reset(token)


def check_letters(count: int, subject: str) -> None:
    """The one letter-limit check: refuse `count` letters above max_letters().

    Inside read_once() the limit is that block's one read; elsewhere it is
    read here.  `subject` words the count in the error, e.g. "universe has {}
    letters".
    """
    limit = _held.get()
    if limit is None:
        limit = max_letters()
    elif type(limit) is not int:
        raise limit.with_traceback(None)
    if count > limit:
        raise LimitError(f"{subject.format(count)}, limit is {limit}")
