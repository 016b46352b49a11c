"""UTF-8 text files, and the one rule for their lines.

Every file natlog reads goes through ``read_text``, and every file it
writes passes ``encoding="utf-8"``, so no file depends on the locale.
A line ends at ``\\n`` alone (a ``\\r`` before it is dropped), so a loader's
``path:line`` counts newlines as ``read_text``'s does; ``str.splitlines``
would also end lines at ``\\x0c``, ``\\x1e``, ``\\x85`` or U+2028.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator


def read_text(path: str | Path) -> str:
    """The file's bytes decoded as UTF-8.

    Bytes that are not UTF-8 raise ``ValueError`` naming the path, the
    1-based line and the offending byte.  No newline is translated.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}:{lineno}: not UTF-8: byte {data[exc.start]:#04x}, {exc.reason}"
        ) from None


def read_lines(path: str | Path) -> list[str]:
    """The file's lines under the module's rule; line n is item n - 1."""
    text = read_text(path)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def config_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) of each line of a config file
    that is neither blank nor a ``#`` comment."""
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line followed by ``\\n``, as UTF-8."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
