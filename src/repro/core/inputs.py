"""Bad input as one typed error, and the one reader of the package's files.

Every file the package loads — §2 instances (JSON and CSV), event and
bus traces, run-registry segments, series files, alert-rule files,
metrics snapshots, benchmark documents — is read through this module.
A file that cannot be read, is not UTF-8, is not JSON or is not a JSON
object raises an :class:`InputError` naming the file (and, for JSONL,
the line); decoders run their content inside :class:`malformed`, which
does the same for the ``KeyError``, ``IndexError``, ``TypeError`` or
``ValueError`` bad content raises.  ``repro``'s ``main()`` reports an
``InputError`` as one ``error:`` line and exits 2.

The torn-tail rule of append-only JSONL: a writer ends each record with
its newline in one ``write()``, so a crash mid-append can only leave
trailing content without its newline.  ``torn_tail=True`` drops such a
tail when it does not parse; anything else that does not parse — a
complete final line included — raises.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, NamedTuple

#: What decoding malformed content raises.
MALFORMED = (KeyError, IndexError, TypeError, ValueError)


class InputError(ValueError):
    """A persisted or external input cannot be read or is malformed; the
    message names the input and the problem."""


class UnknownIdError(InputError, KeyError):
    """An experiment or run id that names no single entry.  Still a
    ``KeyError`` for lookups, and its message keeps ``KeyError``'s quotes."""


class JsonLines(NamedTuple):
    """A parsed JSONL input."""

    #: ``(line number, object)`` of every nonblank line, in order.
    rows: list[tuple[int, dict]]
    #: Whether a torn trailing line was dropped.
    torn: bool


class malformed:
    """Context in which a :data:`MALFORMED` error raised by decoding
    content becomes ``error`` (an :class:`InputError` subclass) naming
    ``source`` and, when given, ``line``."""

    __slots__ = ("source", "line", "error")

    def __init__(self, source: str, line: int | None = None, error=InputError):
        self.source, self.line, self.error = source, line, error

    def __enter__(self) -> "malformed":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        if kind is None or not issubclass(kind, MALFORMED):
            return
        where = self.source if self.line is None else f"{self.source} line {self.line}"
        problem = value
        if not isinstance(value, ValueError):
            problem = f"{kind.__name__}: {value}"
        raise self.error(f"{where}: {problem}") from value


def _read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of the ``what`` file at ``path``."""
    try:
        return Path(path).read_bytes()
    except OSError as error:
        raise InputError(
            f"cannot read {what} {path}: {error.strerror or error}"
        ) from error


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``."""
    data = _read_bytes(path, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        line = data.count(b"\n", 0, error.start) + 1
        raise InputError(
            f"{what} {path} line {line} is not UTF-8 ({error.reason})"
        ) from error


def _not_an_object(value: Any, where: str) -> InputError:
    return InputError(f"{where} is a JSON {type(value).__name__}, not an object")


def parse_json(text: str, source: str) -> dict:
    """The JSON object ``text`` holds; ``source`` names it in errors."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as error:
        raise InputError(f"{source} is not JSON: {error}") from error
    if not isinstance(value, dict):
        raise _not_an_object(value, source)
    return value


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the ``what`` file at ``path``."""
    return parse_json(read_text(path, what), f"{what} {path}")


def parse_jsonl(
    data: str | bytes, source: str, *, torn_tail: bool = False
) -> JsonLines:
    """One JSON object per nonblank line of ``data`` (bytes must be
    UTF-8), under the torn-tail rule; ``source`` names it in errors."""
    lines = data.split(b"\n" if isinstance(data, bytes) else "\n")
    # "" after the final newline; anything else is an unterminated tail.
    unterminated = len(lines) - 1 if lines[-1].strip() else None
    rows: list[tuple[int, dict]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            value = json.loads(
                line.decode("utf-8") if isinstance(line, bytes) else line
            )
        except ValueError as error:  # UnicodeDecodeError, JSONDecodeError
            if torn_tail and index == unterminated:
                return JsonLines(rows, True)
            problem = (
                f"is not JSON ({error.msg} at column {error.colno})"
                if isinstance(error, json.JSONDecodeError)
                else f"is not UTF-8 ({error.reason})"
            )
            raise InputError(f"{source} line {index + 1} {problem}") from error
        if not isinstance(value, dict):
            raise _not_an_object(value, f"{source} line {index + 1}")
        rows.append((index + 1, value))
    return JsonLines(rows, False)


def read_jsonl(path: str | Path, what: str, *, torn_tail: bool = False) -> JsonLines:
    """The JSONL ``what`` file at ``path`` (see :func:`parse_jsonl`)."""
    return parse_jsonl(_read_bytes(path, what), f"{what} {path}", torn_tail=torn_tail)
