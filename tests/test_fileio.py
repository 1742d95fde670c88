import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcontrast import fileio
from kernelcontrast.cli import main
from kernelcontrast.contrastive import pair_process
from kernelcontrast.fileio import (
    ParseError,
    load_corpus,
    load_matrix_csv,
    load_process,
    load_sym_csv,
    save_matrix_csv,
    save_process,
    save_sym_csv,
)
from kernelcontrast.kernels import FiniteSpace
from kernelcontrast.rng import Stream


def test_matrix_csv_roundtrip_is_exact(tmp_path):
    """repr-formatted floats survive the roundtrip bit for bit."""
    path = str(tmp_path / "m.csv")
    m = Stream(0).normal(12).reshape(3, 4)
    save_matrix_csv(path, m, comments=["three rows", "four columns"])
    back = load_matrix_csv(path)
    np.testing.assert_array_equal(back, m)


@settings(deadline=None, max_examples=60)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=shape[0] * shape[1],
            max_size=shape[0] * shape[1],
        ).map(lambda flat: np.reshape(flat, shape))
    )
)
def test_matrix_csv_repr_round_trip_is_bitwise(tmp_path_factory, m):
    """Every finite double, subnormals and -0.0 included, reads back to the
    same bits."""
    path = str(tmp_path_factory.mktemp("csv") / "m.csv")
    save_matrix_csv(path, m)
    back = load_matrix_csv(path)
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()


def test_matrix_csv_bytes_match_per_scalar_repr(tmp_path):
    """The writer's bytes equal repr(float(v)) per entry on edge values."""
    tiny = np.nextafter(0.0, 1.0)
    m = np.array([
        [-0.0, 0.0, tiny, -tiny, 2.2250738585072014e-308 / 3.0],
        [1e308, -1e308, np.nan, np.inf, -np.inf],
        [0.1, 1.0 / 3.0, 1e-5, 1e16, 123456789.0],
    ])
    path = tmp_path / "m.csv"
    save_matrix_csv(str(path), m, comments=["edge values"])
    rows = [",".join(repr(float(v)) for v in row) for row in m]
    assert path.read_bytes() == ("# edge values\n" + "\n".join(rows) + "\n").encode()


def test_matrix_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# header\n\n1.0,2.0\n\n# middle\n3.0,4.0\n")
    back = load_matrix_csv(str(path))
    np.testing.assert_array_equal(back, [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# comment\n1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match=r"bad\.csv:3: expected 2 fields, found 1"):
        load_matrix_csv(str(path))
    path.write_text("1.0,oops\n")
    with pytest.raises(ParseError, match=r"bad\.csv:1"):
        load_matrix_csv(str(path))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_matrix_csv_rejects_non_finite(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"# comment\n1.0,2.0\n3.0,{token}\n")
    with pytest.raises(ParseError, match=r"bad\.csv:3: non-finite"):
        load_matrix_csv(str(path))


@pytest.mark.parametrize("token", ["1_0", "0_5", "1e1_0", "_1", " 2_5 "])
def test_matrix_csv_rejects_digit_separators(tmp_path, token):
    """float() reads "1_0" as 10; a CSV cell with an underscore is a typo."""
    path = tmp_path / "bad.csv"
    path.write_text(f"# comment\n1.0,2.0\n3.0,{token}\n")
    with pytest.raises(ParseError, match=rf"bad\.csv:3: digit separator in '{token.strip()}'"):
        load_matrix_csv(str(path))


def test_matrix_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_matrix_csv(str(path))


def test_matrix_csv_single_row_vector(tmp_path):
    path = str(tmp_path / "v.csv")
    save_matrix_csv(path, np.array([1.5, 2.5]))
    assert load_matrix_csv(path).shape == (1, 2)


def test_sym_csv_roundtrip_and_marker(tmp_path):
    path = str(tmp_path / "s.csv")
    g = Stream(1).normal(9).reshape(3, 3)
    save_sym_csv(path, (g + g.T) / 2.0)
    first = open(path).readline().strip()
    assert first == "# symmetric n=3"
    back = load_sym_csv(path)
    np.testing.assert_array_equal(back, (g + g.T) / 2.0)


def test_sym_csv_marker_mismatch(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# symmetric n=3\n1.0,0.5\n0.5,1.0\n")
    with pytest.raises(ParseError, match="declares n=3"):
        load_sym_csv(str(path))


def test_sym_csv_rejects_asymmetric_data(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1.0,0.5\n0.9,1.0\n")
    with pytest.raises(ParseError, match="not symmetric"):
        load_sym_csv(str(path))


def test_sym_csv_rejects_digit_separators(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# symmetric n=2\n1.0,0_5\n0.5,1.0\n")
    with pytest.raises(ParseError, match=r"s\.csv:2: digit separator in '0_5'"):
        load_sym_csv(str(path))


def test_sym_csv_without_marker_still_loads(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("2.0,1.0\n1.0,2.0\n")
    assert load_sym_csv(str(path)).shape == (2, 2)


def test_load_corpus(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b  a\nc\tb\n")
    assert load_corpus(str(path)) == ["a", "b", "a", "c", "b"]
    path.write_text("  \n \n")
    with pytest.raises(ParseError, match="empty"):
        load_corpus(str(path))


def test_process_roundtrip(tmp_path):
    path = str(tmp_path / "p.json")
    space = FiniteSpace(["a", "b"], np.array([0.25, 0.75]))
    proc = pair_process(space, np.array([[0.9, 0.1], [0.1, 0.9]]))
    save_process(path, proc)
    back = load_process(path)
    assert back.space.items == ["a", "b"]
    np.testing.assert_array_equal(back.space.p, proc.space.p)
    np.testing.assert_array_equal(back.augment, proc.augment)
    np.testing.assert_allclose(back.p_plus, proc.p_plus, atol=0)


def test_load_process_error_paths(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_process(str(path))
    path.write_text('{"items": ["a"], "p": [1.0]}')
    with pytest.raises(ParseError, match="missing field 'augment'"):
        load_process(str(path))
    # a non-stochastic augment row is caught with the file named
    path.write_text(
        '{"items": ["a", "b"], "p": [0.5, 0.5],'
        ' "augment": [[0.9, 0.2], [0.1, 0.9]]}'
    )
    with pytest.raises(ParseError, match=r"p\.json: augment row 0 sums"):
        load_process(str(path))
    # bad distribution is caught at the space stage
    path.write_text(
        '{"items": ["a", "b"], "p": [0.5, 0.6],'
        ' "augment": [[1.0, 0.0], [0.0, 1.0]]}'
    )
    with pytest.raises(ParseError, match="sum"):
        load_process(str(path))


def test_load_process_rejects_item_names_that_break_the_items_line(tmp_path):
    path = tmp_path / "p.json"
    for items, bad in ((["a\nb", "c"], "'a\\nb'"), (["a b", "a"], "'a b'"), (["", "a"], "''")):
        path.write_text(
            f'{{"items": {json.dumps(items)}, "p": [0.5, 0.5],'
            ' "augment": [[1.0, 0.0], [0.0, 1.0]]}'
        )
        with pytest.raises(ParseError, match=rf"p\.json: item {re.escape(bad)} is empty"):
            load_process(str(path))


# ------------------------------------------------- the parallel CSV writer
#
# Tests force several workers with the `force_csv_workers` fixture
# (conftest.py); the writer itself has no option for it.


@pytest.fixture
def no_leaks():
    """The test leaves no child process and no open file descriptor."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def _one_worker_bytes(tmp_path, m, comments):
    path = tmp_path / "one.csv"
    save_matrix_csv(str(path), m, comments=comments)
    return path.read_bytes()


def _reference_bytes(m, comments):
    text = "".join(f"# {c}\n" for c in comments)
    text += "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m)
    return (text or "\n").encode()


_TINY = np.nextafter(0.0, 1.0)
_EDGE = np.array([
    [-0.0, 0.0, _TINY, -_TINY, 2.2250738585072014e-308 / 3.0],
    [1e308, -1e308, np.nan, np.inf, -np.inf],
    [0.1, 1.0 / 3.0, 1e-5, 1e16, 123456789.0],
])


@pytest.mark.parametrize("m, cpus, comments, forked", [
    (Stream(3).normal(21).reshape(7, 3), 3, ["seven rows, three workers"], 2),
    (Stream(4).normal(10).reshape(2, 5), 4, [], 1),
    (Stream(5).normal(6).reshape(1, 6), 3, ["one row"], 0),
    (np.zeros((0, 3)), 2, ["no rows"], 0),
    (np.zeros((0, 3)), 2, [], 0),
    (_EDGE, 3, ["edge values"], 2),
    (Stream(14).normal(3 * 4000).reshape(3, 4000), 2, ["rows wider than a chunk"], 1),
], ids=["uneven-blocks", "more-cpus-than-rows", "one-row", "no-rows", "no-rows-no-comments",
        "edge-values", "wide-rows"])
def test_parallel_csv_bytes_match_one_worker_and_repr(tmp_path, force_csv_workers, no_leaks,
                                                      m, cpus, comments, forked):
    expected = _one_worker_bytes(tmp_path, m, comments)
    forks = force_csv_workers(cpus)
    path = tmp_path / "many.csv"
    save_matrix_csv(str(path), m, comments=comments)
    assert len(forks) == forked
    assert path.read_bytes() == expected == _reference_bytes(m, comments)


def test_float_text_is_repr_byte_for_byte(tmp_path):
    """The vectorized shortest-digit formatter writes what per-value repr
    writes: on random bit patterns of both signs and every exponent, the
    first and last subnormals, every power of two and its neighbours, every
    power of ten, integers around 2^53, signed zeros, infinities and nan.
    Widths 4000, 5 and 1 put chunk edges inside rows and between them."""
    rng = np.random.default_rng(17)
    random_bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(float)
    tiny = np.arange(1, 10**5 + 1, dtype=np.uint64)
    subnormals = np.concatenate([tiny, np.uint64(2**52) - tiny]).view(float)
    powers_of_two = 2.0 ** np.arange(-1074, 1024)
    around = [np.nextafter(powers_of_two, -np.inf), powers_of_two,
              np.nextafter(powers_of_two, np.inf)]
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near_2_53 = 2.0**53 + np.arange(-1000.0, 1001.0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    column = np.concatenate([*around, powers_of_ten, near_2_53, -near_2_53, special])
    for m in (random_bits.reshape(-1, 4000), subnormals.reshape(-1, 5), column[:, None],
              np.zeros((0, 5)), np.zeros((0, 4000))):
        assert _one_worker_bytes(tmp_path, m, []) == _reference_bytes(m, [])


def _only_in_children(monkeypatch, name, child_version):
    """Replace ``fileio.<name>`` by ``child_version`` in forked children
    only; this process keeps the real function."""
    real, parent = getattr(fileio, name), os.getpid()

    def patched(*args):
        return real(*args) if os.getpid() == parent else child_version(real, *args)

    monkeypatch.setattr(fileio, name, patched)


def _raise(real, *args):
    raise RuntimeError("child failed")


@pytest.mark.parametrize("failure", ["fork-raises", "child-raises", "child-exits-1",
                                     "child-sends-short-data"])
def test_parallel_csv_falls_back_to_formatting_here(tmp_path, monkeypatch, force_csv_workers,
                                                    no_leaks, failure):
    m = Stream(6).normal(40).reshape(8, 5)
    expected = _one_worker_bytes(tmp_path, m, ["c"])
    forks = force_csv_workers(4)
    if failure == "fork-raises":
        def no_fork():
            raise OSError("fork refused")
        monkeypatch.setattr(os, "fork", no_fork)
    elif failure == "child-raises":
        _only_in_children(monkeypatch, "_format_floats", _raise)
    elif failure == "child-exits-1":
        # a full block of wrong text, sent by a child that then exits 1
        _only_in_children(monkeypatch, "_format_block", lambda real, block: "x\n" * len(block))
        monkeypatch.setattr(os, "_exit", lambda status, real=os._exit: real(1))
    else:
        _only_in_children(monkeypatch, "_format_block", lambda real, block: real(block[:-1]))
    path = tmp_path / "many.csv"
    save_matrix_csv(str(path), m, comments=["c"])
    assert path.read_bytes() == expected
    assert len(forks) == (0 if failure == "fork-raises" else 3)


def test_parallel_csv_failure_in_own_block_leaves_no_child_and_no_file(
        tmp_path, monkeypatch, force_csv_workers, no_leaks):
    forks = force_csv_workers(3)
    parent, real = os.getpid(), fileio._format_floats

    def failing_here(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent failed")
        return real(*args)

    monkeypatch.setattr(fileio, "_format_floats", failing_here)
    path = tmp_path / "m.csv"
    with pytest.raises(RuntimeError, match="parent failed"):
        save_matrix_csv(str(path), Stream(7).normal(12).reshape(6, 2))
    assert len(forks) == 2
    assert not path.exists()
    assert os.listdir(tmp_path) == []


def test_parallel_csv_failure_while_reading_a_child_leaves_no_child(
        tmp_path, monkeypatch, force_csv_workers, no_leaks):
    forks = force_csv_workers(3)

    def failing_read(file, mode="r", *args, real=open):
        if isinstance(file, int) and mode == "rb":
            os.close(file)
            raise RuntimeError("read failed")
        return real(file, mode, *args)

    monkeypatch.setattr(fileio, "open", failing_read, raising=False)
    path = tmp_path / "m.csv"
    with pytest.raises(RuntimeError, match="read failed"):
        save_matrix_csv(str(path), Stream(9).normal(12).reshape(6, 2))
    assert len(forks) == 2
    assert not path.exists()
    assert os.listdir(tmp_path) == []


def test_csv_stays_on_one_worker_without_the_size_or_the_cpus(tmp_path, monkeypatch,
                                                              force_csv_workers, no_leaks):
    """No fork for a small matrix, for one usable CPU, or where the platform
    has no CPU affinity; the bytes are the same in every case."""
    m = Stream(8).normal(30).reshape(6, 5)
    expected = _one_worker_bytes(tmp_path, m, [])
    forks = force_csv_workers(1)
    path = tmp_path / "m.csv"
    save_matrix_csv(str(path), m)
    assert path.read_bytes() == expected
    monkeypatch.delattr(os, "sched_getaffinity")
    save_matrix_csv(str(path), m)
    assert path.read_bytes() == expected
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(fileio, "_VALUES_PER_WORKER", 100_000)
    save_matrix_csv(str(path), m)
    assert path.read_bytes() == expected
    assert forks == []


# ------------------------------------------------ the streamed, replaced file


def test_parallel_csv_streams_instead_of_holding_the_file(tmp_path, force_csv_workers,
                                                         no_leaks):
    """This process holds a row or a pipe chunk at a time, never a block's
    text: its traced peak stays below a tenth of the file."""
    m = Stream(10).normal(2000 * 400).reshape(2000, 400)
    forks = force_csv_workers(2)
    path = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        save_matrix_csv(str(path), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forks) == 1
    assert peak < path.stat().st_size / 10


def test_failed_write_keeps_an_existing_file(tmp_path, monkeypatch, force_csv_workers,
                                             no_leaks):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1.0,2.0\n")
    force_csv_workers(3)

    def failing(*args):
        raise RuntimeError("format failed")

    monkeypatch.setattr(fileio, "_format_floats", failing)
    with pytest.raises(RuntimeError, match="format failed"):
        save_matrix_csv(str(path), Stream(11).normal(12).reshape(6, 2))
    assert path.read_bytes() == b"1.0,2.0\n"
    assert os.listdir(tmp_path) == ["m.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_new_csv_gets_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        save_matrix_csv(str(tmp_path / "m.csv"), np.eye(2))
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "m.csv").stat().st_mode)
    assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)


def test_csv_through_a_symlink_updates_its_target(tmp_path, force_csv_workers, no_leaks):
    target = tmp_path / "data" / "real.csv"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    m = Stream(12).normal(12).reshape(4, 3)
    force_csv_workers(2)
    save_matrix_csv(str(link), m, comments=["via link"])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _reference_bytes(m, ["via link"])
    assert sorted(os.listdir(tmp_path)) == ["data", "link.csv"]
    assert os.listdir(target.parent) == ["real.csv"]


def test_directory_as_output_is_error_1_without_a_temporary_file(tmp_path, capsys,
                                                                   monkeypatch):
    """The directory is refused before any row is formatted."""
    out = tmp_path / "out"
    out.mkdir()
    formatted = []
    real = fileio._format_floats
    monkeypatch.setattr(fileio, "_format_floats",
                        lambda *args: formatted.append(args) or real(*args))
    assert main(["gen", "swiss-roll", "--n", "30", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kc: error: ") and err.count("\n") == 1
    assert "Is a directory" in err
    assert formatted == []
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(out) == []


def test_non_ascii_comment_bytes_match_a_plain_text_write(tmp_path, force_csv_workers,
                                                         no_leaks):
    """Comments are encoded as ``open(path, "w")`` encodes them, also ahead
    of bytes copied from a child."""
    m = Stream(13).normal(18).reshape(6, 3)
    comments = ["items: \u00e9t\u00e9 \u03b1\u03b2 \u6f22\u5b57"]
    reference = tmp_path / "reference.csv"
    with open(reference, "w") as fh:
        fh.write(f"# {comments[0]}\n" + _reference_bytes(m, []).decode())
    expected = reference.read_bytes()
    for cpus in (1, 3):
        forks = force_csv_workers(cpus)
        path = tmp_path / f"m{cpus}.csv"
        save_matrix_csv(str(path), m, comments=comments)
        assert len(forks) == cpus - 1
        assert path.read_bytes() == expected
