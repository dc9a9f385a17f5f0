import pytest

from polyscore.atomic import atomic_open


def test_nested_writers_of_one_path_both_finish(tmp_path):
    # two writers of one path overlap: each renames its own temp file, the
    # last rename wins, and neither raises or leaves a temp file behind
    path = tmp_path / "a.bin"
    with atomic_open(path, "wb") as outer:
        outer.write(b"outer")
        with atomic_open(path, "wb") as inner:
            inner.write(b"inner")
        assert path.read_bytes() == b"inner"
    assert path.read_bytes() == b"outer"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


def test_failed_writer_leaves_the_other_writers_file(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"before")
    with atomic_open(path, "wb") as outer:
        outer.write(b"outer")
        with pytest.raises(OSError), atomic_open(path, "wb") as inner:
            inner.write(b"inner")
            raise OSError("disk full")
        assert path.read_bytes() == b"before"
    assert path.read_bytes() == b"outer"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
