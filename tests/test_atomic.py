"""``write_atomic``: str, bytes or str chunks, through a temp file and a rename."""

import pytest

from kdalign.atomic import write_atomic


TEXT = "a,é\n1,2\n"


@pytest.mark.parametrize("data", [TEXT, TEXT.encode("utf-8"), ["a,é\n", "", "1,2\n"], iter([TEXT])])
def test_each_form_writes_the_same_bytes(tmp_path, data):
    path = tmp_path / "out.csv"
    write_atomic(path, data)
    assert path.read_bytes() == TEXT.encode("utf-8")
    assert list(tmp_path.iterdir()) == [path]


def test_chunks_that_fail_midway_leave_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def chunks():
        yield "new\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, chunks())
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]
