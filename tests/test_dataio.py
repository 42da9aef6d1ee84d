import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchpursuit import DataMatrix
from benchpursuit.dataio import (
    fmt_float,
    filter_rows,
    ingest_csv,
    standardize_columns,
    write_csv,
)
from benchpursuit.errors import DataError


class TestIngest:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1.5,2\n-3,0.25\n")
        x = ingest_csv(path)
        assert x.column_names == ("a", "b")
        assert np.array_equal(x.values, [[1.5, 2.0], [-3.0, 0.25]])
        assert x.row_labels is None

    def test_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("tissue,a,b\nt,1,2\nn,3,4\n")
        x = ingest_csv(path, label_column="tissue")
        assert x.column_names == ("a", "b")
        assert x.row_labels == ("t", "n")
        assert x.label_name == "tissue"

    def test_utf8_byte_order_mark_skipped(self, tmp_path):
        """Spreadsheet programs start a UTF-8 CSV with a byte-order mark."""
        path = tmp_path / "d.csv"
        path.write_bytes("\ufeffclass,a,b\nA,1,2\nB,3,4\n".encode("utf-8"))
        x = ingest_csv(path, label_column="class")
        assert x.column_names == ("a", "b")
        assert x.row_labels == ("A", "B")
        path.write_bytes("\ufeffa,b\n1,2\n".encode("utf-8"))
        assert ingest_csv(path).column_names == ("a", "b")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="no column 'tissue' in .*d.csv"):
            ingest_csv(path, label_column="tissue")

    def test_bad_float_reports_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"d\.csv:3: column 'b': cannot parse 'oops'$"):
            ingest_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match=r"d\.csv:3: expected 2 fields, got 1$"):
            ingest_csv(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,nan\n")
        with pytest.raises(DataError, match=r"d\.csv:2: column 'b': non-finite value 'nan'$"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match=r"d\.csv: empty file$"):
            ingest_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match=r"d\.csv: no data rows$"):
            ingest_csv(path)

    @pytest.mark.parametrize("rows_before", [0, 5000])
    def test_not_utf8_names_the_file(self, tmp_path, rows_before):
        path = tmp_path / "d.csv"
        rows = "1,2\n" * rows_before
        path.write_bytes(("lab,a\n" + rows + "caf\xe9,3\n").encode("latin-1"))
        with pytest.raises(DataError, match=r"d\.csv: not UTF-8 text \(byte 0xe9: invalid"):
            ingest_csv(path, label_column="lab")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        x = ingest_csv(path)
        assert x.n == 2


_EDGE_CELLS = ["-0.0", "5e-324", "1e-320", "1.7976931348623157e308", "  -1e-320 ", " 2.5"]


@pytest.mark.parametrize("labelled", [False, True], ids=["no-labels", "labels"])
@pytest.mark.parametrize("bom", [False, True], ids=["no-bom", "bom"])
def test_edge_values_keep_their_bits(tmp_path, labelled, bom):
    """Signed zero, subnormals, the largest float and cells padded with
    spaces read back with the bits of ``float(cell)``, with or without a
    label column and a byte-order mark before the header."""
    cells = [_EDGE_CELLS, _EDGE_CELLS[::-1]]
    lines = ["a,b,c,d,e,f"] + [",".join(row) for row in cells]
    if labelled:
        lines = ["lab," + lines[0]] + [f"L{i}," + line for i, line in enumerate(lines[1:])]
    path = tmp_path / "d.csv"
    path.write_bytes(("\ufeff" * bom + "\n".join(lines) + "\n").encode("utf-8"))
    x = ingest_csv(path, label_column="lab" if labelled else None)
    assert x.column_names == tuple("abcdef")
    assert x.row_labels == (("L0", "L1") if labelled else None)
    assert [[v.hex() for v in row] for row in x.values.tolist()] == [
        [float(cell).hex() for cell in row] for row in cells
    ]


def test_ingest_holds_a_float64_buffer_not_python_floats(tmp_path, rng):
    """Tracing allocations, ingesting 20 000 x 6 cells (0.96 MB as float64)
    peaked at 1.96 MB: the buffer the rows are read into and the matrix's
    copy. A list of Python floats per row had peaked at 7.4 MB."""
    x = DataMatrix(rng.standard_normal((20_000, 6)), tuple("abcdef"))
    path = tmp_path / "big.csv"
    write_csv(x, path)
    tracemalloc.start()
    try:
        back = ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, x.values)
    assert peak < 2.5e6, f"ingest peaked at {peak / 1e6:.2f} MB"


class TestWriteRoundTrip:
    def test_exact_roundtrip(self, tmp_path, rng):
        x = DataMatrix(rng.standard_normal((20, 3)) * 1e3, ("a", "b", "c"))
        path = tmp_path / "out.csv"
        write_csv(x, path)
        back = ingest_csv(path)
        assert np.array_equal(back.values, x.values)
        assert back.column_names == x.column_names

    def test_labels_roundtrip(self, tmp_path):
        x = DataMatrix(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            ("a", "b"),
            row_labels=("t", "n"),
            label_name="tissue",
        )
        path = tmp_path / "out.csv"
        write_csv(x, path)
        back = ingest_csv(path, label_column="tissue")
        assert back.row_labels == ("t", "n")
        assert np.array_equal(back.values, x.values)

    @given(
        st.lists(
            st.floats(
                allow_nan=False,
                allow_infinity=False,
                min_value=-1e300,
                max_value=1e300,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_seventeen_digits_losslessness(self, floats):
        """repr-level serialization: every float survives the format."""
        for x in floats:
            assert float(fmt_float(x)) == x

    @pytest.mark.parametrize("names, label_name", [(("label", "b"), None), (("a", "b"), "a")])
    def test_label_named_like_a_column_raises(self, tmp_path, names, label_name):
        x = DataMatrix(np.ones((2, 2)), names, row_labels=("t", "n"), label_name=label_name)
        with pytest.raises(ValueError, match=r"label column '(label|a)' has the name of a data"):
            write_csv(x, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_newline_convention(self, tmp_path):
        x = DataMatrix(np.ones((2, 2)), ("a", "b"))
        path = tmp_path / "out.csv"
        write_csv(x, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestStandardize:
    def test_centers_and_scales(self, rng):
        x = DataMatrix(rng.standard_normal((100, 3)) * 7 + 4, ("a", "b", "c"))
        z = standardize_columns(x)
        assert np.abs(z.values.mean(axis=0)).max() < 1e-12
        assert np.abs(z.values.std(axis=0, ddof=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales(self, rng, scale):
        """Squares of such columns underflow or overflow unless rescaled first."""
        v = rng.standard_normal((50, 2))
        z = standardize_columns(DataMatrix(v * scale, ("a", "b")))
        assert np.allclose(z.values, standardize_columns(DataMatrix(v, ("a", "b"))).values,
                           rtol=1e-12, atol=1e-12)

    def test_constant_column_centered_only(self):
        x = DataMatrix(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), ("a", "b"))
        z = standardize_columns(x)
        assert np.allclose(z.values[:, 0], 0.0)

    def test_single_row(self):
        x = DataMatrix(np.array([[2.0, 3.0]]), ("a", "b"))
        z = standardize_columns(x)
        assert np.allclose(z.values, 0.0)

    def test_labels_preserved(self):
        x = DataMatrix(
            np.array([[1.0], [2.0]]), ("a",), row_labels=("u", "v"), label_name="g"
        )
        z = standardize_columns(x)
        assert z.row_labels == ("u", "v")


class TestFilterRows:
    def _labeled(self):
        return DataMatrix(
            np.arange(10.0).reshape(5, 2),
            ("a", "b"),
            row_labels=("t", "n", "t", "n", "t"),
            label_name="tissue",
        )

    def test_keep_labels(self):
        kept = filter_rows(self._labeled(), labels=["t"], mode="keep")
        assert kept.n == 3
        assert kept.row_labels == ("t", "t", "t")

    def test_remove_labels(self):
        kept = filter_rows(self._labeled(), labels=["t"], mode="remove")
        assert kept.n == 2
        assert kept.row_labels == ("n", "n")

    def test_keep_indices(self):
        kept = filter_rows(self._labeled(), indices=[0, 4], mode="keep")
        assert np.array_equal(kept.values, self._labeled().values[[0, 4]])

    def test_remove_indices(self):
        kept = filter_rows(self._labeled(), indices=[1, 3], mode="remove")
        assert kept.row_labels == ("t", "t", "t")

    def test_unknown_label(self):
        with pytest.raises(DataError, match=r"labels not present in data: \['q'\]"):
            filter_rows(self._labeled(), labels=["q"], mode="keep")

    def test_labels_without_label_column(self):
        x = DataMatrix(np.zeros((2, 2)), ("a", "b"))
        with pytest.raises(DataError, match="data has no label column to match against"):
            filter_rows(x, labels=["t"], mode="keep")

    def test_index_out_of_range(self):
        with pytest.raises(DataError, match=r"row index 9 outside \[0, 4\]"):
            filter_rows(self._labeled(), indices=[9], mode="keep")

    def test_empty_result(self):
        with pytest.raises(DataError, match=r"filter \(mode=remove\) removed every row"):
            filter_rows(self._labeled(), labels=["t", "n"], mode="remove")

    def test_exactly_one_selector(self):
        with pytest.raises(ValueError):
            filter_rows(self._labeled(), labels=["t"], indices=[0], mode="keep")
        with pytest.raises(ValueError):
            filter_rows(self._labeled(), mode="keep")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            filter_rows(self._labeled(), labels=["t"], mode="drop")
