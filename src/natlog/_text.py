"""UTF-8 text files.

Every file natlog reads goes through ``read_text``, and every file it
writes passes ``encoding="utf-8"``, so no file depends on the locale.
"""

from __future__ import annotations

from pathlib import Path


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
