import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
