import json

import numpy as np
import pytest

from goalgraph.errors import DataError
from goalgraph.files import read_json, write_csv, write_json, written


@pytest.mark.parametrize("content,msg", [
    (None, "No such file or directory"),
    (b'{"variant": "gr\xfcn"}', "not UTF-8 text (byte 15)"),
    (b'{"a": 1,\n ]', "parse error at line 2: Expecting property name"),
], ids=["missing", "not-utf8", "parse-error"])
def test_read_json_error_names_the_file(tmp_path, content, msg):
    path = tmp_path / "f.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError) as e:
        read_json(str(path))
    assert str(e.value).startswith(f"{path}: ") and msg in str(e.value)


def test_written_moves_the_file_in_whole(tmp_path):
    """The target keeps its old bytes while the block writes, and after a
    block that raises; no .tmp file is left after one that ends."""
    path = tmp_path / "out.txt"
    path.write_text("old")
    with written(str(path)) as f:
        f.write("new")
        f.flush()
        assert path.read_text() == "old"
    assert path.read_text() == "new" and not (tmp_path / "out.txt.tmp").exists()
    with pytest.raises(RuntimeError), written(str(path)) as f:
        f.write("half")
        raise RuntimeError
    assert path.read_text() == "new"
    with written(str(path), "wb") as f:
        f.write(b"\xff\n")
    assert path.read_bytes() == b"\xff\n"


@pytest.mark.parametrize("indent", [None, 1])
def test_write_json_writes_the_bytes_of_json_dump(tmp_path, indent):
    obj = {"b": [1.5, None, True, "grün"], "a": {"y": 1e-300, "x": float("inf")}}
    path = tmp_path / "o.json"
    write_json(str(path), obj, indent=indent)
    with open(tmp_path / "ref.json", "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=indent)
        f.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_write_csv_cells(tmp_path):
    path = tmp_path / "o.csv"
    write_csv(str(path), ("a", "b", "c"),
              [[1, 0.1 + 0.2, "x"], [np.float64(1 / 3), float("nan"), float("inf")]])
    assert path.read_text() == "a,b,c\n1,0.3,x\n0.3333333333,nan,inf\n"
