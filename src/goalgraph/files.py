"""The one JSON reader and the one writer of every file the package makes,
which writes `path`.tmp and moves it onto `path` whole."""

from __future__ import annotations

import contextlib
import json
import os

from .errors import DataError


def read_json(path: str):
    """The JSON value of the UTF-8 file at path. A file that cannot be read,
    is not UTF-8 or does not parse is a DataError naming path."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: parse error at line {e.lineno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (byte {e.start})") from e
    except OSError as e:
        raise DataError(f"{path}: {e.strerror}") from e


@contextlib.contextmanager
def written(path: str, mode: str = "w"):
    """A file open on path.tmp, UTF-8 text for mode "w" or bytes for "wb",
    moved onto path when the block ends without an exception."""
    tmp = path + ".tmp"
    with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
        yield f
    os.replace(tmp, path)


def write_json(path: str, obj, indent=None) -> None:
    """obj as sorted-key JSON and a newline. One json.dumps call, which takes
    the C encoder when indent is None; json.dump never does."""
    with written(path) as f:
        f.write(json.dumps(obj, sort_keys=True, indent=indent) + "\n")


def write_csv(path: str, header, rows) -> None:
    """A header line, then one line per row: a float cell as .10g, any other
    cell by str."""
    with written(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v)
                             for v in row) + "\n")
