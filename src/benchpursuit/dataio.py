"""CSV ingestion and serialization with lossless numeric round-trips."""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import DataError
from .frames import DataMatrix, subset_rows


# Rows formatted by one ``%`` in ``format_rows``: enough to make the per-row
# cost that of the formatting itself, few enough to keep a block's strings
# small.
_BLOCK_ROWS = 4096


def fmt_float(x: float) -> str:
    """Decimal form at 17 significant digits: parses back to the same float."""
    return f"{float(x):.17g}"


def format_rows(templates: list[str], values: np.ndarray, sep: str = "") -> Iterator[str]:
    """Row i of the 2-d ``values`` put into ``templates[i]`` by ``%``, the rows
    joined by ``sep``, yielded as one string per block of ``_BLOCK_ROWS`` rows,
    each block one ``%``, so a writer holds one block at a time. ``'%.17g' % x``
    and ``'%.2f' % x`` have the bits of ``f"{x:.17g}"`` and ``f"{x:.2f}"``."""
    for lo in range(0, len(values), _BLOCK_ROWS):
        yield sep.join(templates[lo : lo + _BLOCK_ROWS]) % tuple(
            values[lo : lo + _BLOCK_ROWS].ravel().tolist()
        )


def _decoded_lines(fh, path):
    """The lines of the text file ``fh``; a byte that is not UTF-8 raises DataError."""
    try:
        yield from fh
    except UnicodeDecodeError as err:
        bad = err.object[err.start]
        raise DataError(f"{path}: not UTF-8 text (byte {bad:#04x}: {err.reason})") from None


def ingest_csv(path, label_column: str | None = None) -> DataMatrix:
    """Read a headed CSV into a :class:`DataMatrix`.

    Every cell outside the optional label column must parse as a finite
    decimal number; the label column is held as row labels and excluded from
    the numeric values. Error messages name the file, the 1-based line and
    the column. A leading UTF-8 byte-order mark, as spreadsheet programs
    write, is skipped; a file that is not UTF-8 text raises :class:`DataError`.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(_decoded_lines(fh, path))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        repeated = next((h for j, h in enumerate(header) if h in header[:j]), None)
        if repeated is not None:
            raise DataError(f"{path}:1: column '{repeated}' appears more than once")
        label_idx: int | None = None
        if label_column is not None:
            if label_column not in header:
                raise DataError(f"no column '{label_column}' in {path}")
            label_idx = header.index(label_column)
        numeric_idx = [j for j in range(len(header)) if j != label_idx]
        if not numeric_idx:
            raise DataError(f"{path}:1: no numeric column")
        names = tuple(header[j] for j in numeric_idx)

        values = array("d")  # 8 bytes a cell; Python floats in row lists take about 60
        labels: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
            for j in numeric_idx:
                cell = row[j].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}:{line_no}: column '{header[j]}': cannot parse '{cell}'"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}:{line_no}: column '{header[j]}': non-finite value '{cell}'"
                    )
                values.append(value)
            if label_idx is not None:
                labels.append(row[label_idx].strip())
    if not values:
        raise DataError(f"{path}: no data rows")
    return DataMatrix(
        values=np.frombuffer(values).reshape(-1, len(names)),
        column_names=names,
        row_labels=tuple(labels) if label_idx is not None else None,
        label_name=label_column,
    )


def write_table(path, header: list[str], parts) -> None:
    """Write the CSV file ``path``: the cells ``header``, then, for each pair
    (``tags``, ``values``) of ``parts``, a line per row i of the 2-d array
    ``values``: the cells of the i-th tuple of ``tags``, then the row's
    numbers at 17 significant digits, as ``fmt_float`` writes them.

    Each line has the bytes ``csv.writer`` gives it. The tag cells are
    encoded once per distinct tuple, and ``format_rows`` puts the numbers in
    a block of rows at a time.
    """
    cells = io.StringIO()
    encoder = csv.writer(cells, lineterminator="\n")

    def template(tag: tuple) -> str:
        cells.seek(0)
        cells.truncate()
        encoder.writerow([*tag, ""])  # the cells and a comma, then the line end
        return forms.setdefault(tag, cells.getvalue()[:-1].replace("%", "%%") + numbers)

    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for tags, values in parts:
            numbers = ",".join(["%.17g"] * values.shape[1]) + "\n"
            forms = {(): numbers}  # no cells; csv.writer would write [""] as ""
            fh.writelines(format_rows([forms.get(tag) or template(tag) for tag in tags], values))


def write_csv(data: DataMatrix, path) -> None:
    """Write ``data`` so that :func:`ingest_csv` reproduces it exactly.

    The label column (if any) comes first under its original name; numeric
    cells are serialized at 17 significant digits. Line endings are fixed to
    \\n so identical data yields identical bytes. A label column with the
    name of a data column raises ValueError, as ingest could not read it back.
    """
    path = Path(path)
    label_name = data.label_name or ("label" if data.row_labels is not None else None)
    if data.row_labels is not None and label_name in data.column_names:
        raise ValueError(f"{path}: label column '{label_name}' has the name of a data column")
    header, tags = list(data.column_names), [()] * data.n
    if data.row_labels is not None:
        header = [label_name] + header
        tags = ((label,) for label in data.row_labels)
    write_table(path, header, [(tags, data.values)])


def standardize_columns(data: DataMatrix) -> DataMatrix:
    """Center each column and scale it by its sample standard deviation.

    A constant column (or a single-row matrix) is centered only, since its
    scale carries no information.

    Each column is first multiplied by the power of two that takes its
    largest magnitude into [0.5, 1). That leaves the result's bits as they
    are wherever the unscaled computation neither overflows nor underflows,
    and keeps the squares finite and normal at scales such as 1e300 or
    1e-300, where unscaled they would overflow to inf or underflow to 0.
    """
    exponents = np.frexp(np.abs(data.values).max(axis=0))[1]
    scales = np.ldexp(1.0, np.minimum(-exponents, 1023))
    values = data.values * scales
    means = values.mean(axis=0)
    stds = values.std(axis=0, ddof=1) if data.n > 1 else np.zeros(data.p)
    stds = np.where(stds > 0, stds, scales)
    return DataMatrix(
        values=(values - means) / stds,
        column_names=data.column_names,
        row_labels=data.row_labels,
        label_name=data.label_name,
    )


def filter_rows(
    data: DataMatrix,
    labels=None,
    indices=None,
    mode: str = "remove",
) -> DataMatrix:
    """Reduce ``data`` to or by a set of rows, selected by label or index.

    Exactly one of ``labels`` (matched against the row labels) and
    ``indices`` (0-based row numbers) must be given; ``mode`` is "keep" or
    "remove". Raises :class:`DataError` for labels absent from the data,
    indices out of range, or if nothing remains.
    """
    if (labels is None) == (indices is None):
        raise ValueError("give exactly one of labels= or indices=")
    if mode not in ("keep", "remove"):
        raise ValueError(f"mode must be 'keep' or 'remove', got '{mode}'")
    if labels is not None:
        if data.row_labels is None:
            raise DataError("data has no label column to match against")
        wanted = {str(lab) for lab in labels}
        present = set(data.row_labels)
        missing = sorted(wanted - present)
        if missing:
            raise DataError(f"labels not present in data: {missing}")
        selected = [i for i, lab in enumerate(data.row_labels) if lab in wanted]
    else:
        selected = sorted({int(i) for i in indices})
        if selected and (selected[0] < 0 or selected[-1] >= data.n):
            bad = selected[0] if selected[0] < 0 else selected[-1]
            raise DataError(f"row index {bad} outside [0, {data.n - 1}]")
    if mode == "keep":
        final = selected
    else:
        chosen = set(selected)
        final = [i for i in range(data.n) if i not in chosen]
    if not final:
        raise DataError(f"filter (mode={mode}) removed every row")
    return subset_rows(data, final)
