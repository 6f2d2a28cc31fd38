"""File formats: LTSF-style CSV datasets, generator configs, reports.

Dataset CSV layout: first column ``date``, remaining columns one per
channel, one row per time step.  Generated files use a 0-based integer
step index as the date; on load the date column only fixes row order
and its content is otherwise ignored.  Values are written with repr
formatting (shortest exact round-trip, at most 17 significant digits).

Every writer publishes through a temp file in the target's directory
and a rename, so a failed run never leaves a partial file; the file gets
the mode ``open()`` would give it, 0o666 less the umask.  ``save_csv``
streams its rows into that temp file in blocks of _ROWS rows, each
formatted column by column, and ``load_csv`` parses in blocks of the same
size, so neither holds the dataset as text; the other writers build
their payload in memory.

``load_csv`` reads the header with ``csv.reader``.  A block of lines
goes to numpy's C text reader (``np.loadtxt``) only where that reader
must agree with ``csv.reader`` plus ``float``: the block is ASCII with
no control character but tab, CR and LF, and no quote; it holds exactly
(width - 1) commas per line; no line is longer than
``csv.field_size_limit()``; and loadtxt parses it into one row per
line.  Both readers then split the same fields and parse each value
with the same correctly rounded conversion, so the values are bitwise
those of ``float``.  The first block that fails a guard, and every
block after it, goes through ``csv.reader`` and ``float`` cell by cell,
which accept quoted and multi-line fields, ``1_0`` and non-ASCII digits
and raise each error at its coordinates.

Cell coordinates in errors are 1-based: rows count data rows (the
header is row 0, so the first data row is row 1) and columns count all
columns including the date column.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .dataset import Dataset
from .errors import (
    EmptyDataset,
    InvalidConfig,
    InvalidEncoding,
    MalformedRow,
    MissingHeader,
    NonNumericCell,
    RaggedRows,
)
from .evaluation import EvalReport, TransferMatrix
from .generator import GeneratorConfig
from .spectral import Periodogram

# Rows per block when save_csv streams and load_csv parses a dataset.
_ROWS = 4096

# Characters that keep a block off np.loadtxt: the ASCII controls other
# than tab, LF and CR, which loadtxt and float strip differently, and the
# quote, which lets one csv row span lines or hide a comma.
_NOT_FAST = dict.fromkeys([*range(9), 11, 12, *range(14, 32), 127, ord('"')])


def _atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write text, or text chunks in order, to path all-or-nothing via
    temp file + rename.

    The temp file is created exclusively with mode 0o666, as ``open()``
    creates files, so the umask sets the published file's permissions.
    An OSError is raised again, of the same class, naming ``path``.
    """
    chunks = (text,) if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
                for chunk in chunks:
                    f.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # it would name the temp file, not the target
        raise type(exc)(f"{path}: {exc.strerror or exc}") from None


def save_csv(ds: Dataset, path: str) -> None:
    """Write a dataset in LTSF layout with an integer-index date column."""
    if ds.d == 0 or ds.n == 0:
        raise EmptyDataset(f"refusing to write empty dataset of shape {ds.values.shape}")
    _atomic_write(path, _csv_chunks(ds))


def _csv_chunks(ds: Dataset) -> Iterator[str]:
    """The header line, then the data rows _ROWS at a time.

    Values are finite float64, so each cell is the repr of a Python
    float, which csv.writer would never quote; only the header needs it.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["date", *ds.channel_names])
    yield buf.getvalue()
    for lo in range(0, ds.n, _ROWS):
        hi = min(lo + _ROWS, ds.n)
        cells = [map(repr, ch) for ch in ds.values[:, lo:hi].tolist()]
        yield "\n".join(map(",".join, zip(map(str, range(lo, hi)), *cells))) + "\n"


def load_csv(path: str) -> Dataset:
    """Read an LTSF-layout CSV; channels are the columns after the first."""
    blocks = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            try:
                header = next(csv.reader(f))
            except StopIteration:
                raise MissingHeader(f"{path}: file is empty") from None
            except csv.Error as exc:
                raise MalformedRow(path, 0, str(exc)) from None
            if len(header) < 2:
                raise MissingHeader(
                    f"{path}: header needs a date column plus at least one channel"
                )
            if all(_is_number(cell) for cell in header):
                raise MissingHeader(f"{path}: first row looks like data, not a header")
            width = len(header)
            first = 1
            while lines := list(islice(f, _ROWS)):
                values = _loadtxt_block(lines, width)
                if values is None:
                    break
                blocks.append(values)
                first += len(lines)
            reader = csv.reader(chain(lines, f))
            while True:
                rows = []
                try:
                    # extend keeps the rows read before a failing one
                    rows.extend(islice(reader, _ROWS))
                except csv.Error as exc:
                    _parse_rows(rows, width, first, path)  # an earlier bad row wins
                    raise MalformedRow(path, first + len(rows), str(exc)) from None
                if not rows:
                    break
                blocks.append(_parse_rows(rows, width, first, path))
                first += len(rows)
    except UnicodeDecodeError as exc:  # its position is within a buffered chunk
        raise InvalidEncoding(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not blocks:
        raise EmptyDataset(f"{path}: no data rows")
    values = np.concatenate(blocks)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise NonNumericCell(path, int(bad[0, 0]) + 1, int(bad[0, 1]) + 2, "non-finite")
    return Dataset(values=values.T, channel_names=tuple(header[1:]), provenance=path)


def _loadtxt_block(lines: list[str], width: int) -> np.ndarray | None:
    """(len(lines), width - 1) values of lines by np.loadtxt, or None
    where csv.reader plus float could read them differently."""
    text = "".join(lines)
    if not (
        text.isascii()
        and len(text.translate(_NOT_FAST)) == len(text)
        and text.count(",") == (width - 1) * len(lines)
        and max(map(len, lines)) <= csv.field_size_limit()
    ):
        return None
    try:
        values = np.loadtxt(
            lines, delimiter=",", comments=None, ndmin=2, usecols=range(1, width)
        )
    except ValueError:
        return None
    return values if len(values) == len(lines) else None


def _parse_rows(rows: list[list[str]], width: int, first: int, path: str) -> np.ndarray:
    """(len(rows), width - 1) values of rows numbered from ``first``.

    Every value cell goes through the builtin float in one pass.  If a
    row is ragged or a cell does not parse, the rows are walked cell by
    cell to raise the first error at its coordinates in ``path``.
    """
    try:
        if any(len(row) != width for row in rows):
            raise ValueError("ragged row")
        cells = chain.from_iterable(map(itemgetter(slice(1, None)), rows))
        return np.array(list(map(float, cells))).reshape(len(rows), width - 1)
    except ValueError:
        for r, row in enumerate(rows, start=first):
            if len(row) != width:
                raise RaggedRows(path, r, width, len(row)) from None
            for c, cell in enumerate(row[1:], start=2):
                try:
                    float(cell)
                except ValueError:
                    raise NonNumericCell(path, r, c) from None
        raise


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_generator_config(path: str, **overrides) -> GeneratorConfig:
    """Build a GeneratorConfig from a JSON object plus keyword overrides.

    The file may set any subset of the config fields; unknown keys are
    rejected.  Overrides with value None are ignored.  An error from a
    value starts with ``path: ``, unless the overrides fail on their own
    (over the defaults, and a valid omega_bar when they set none): then
    theirs is raised as it is.
    """
    try:  # read whole, so a decode error's position is the file's own
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InvalidConfig(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{path}: config must be a JSON object")
    fields = set(GeneratorConfig.__dataclass_fields__)
    unknown = set(doc) - fields
    if unknown:
        raise InvalidConfig(f"{path}: unknown config keys {sorted(unknown)}")
    flags = {k: v for k, v in overrides.items() if v is not None}
    merged = {**doc, **flags}
    if "omega_bar" not in merged:
        raise InvalidConfig(f"{path}: config sets no omega_bar")
    try:
        return GeneratorConfig(**merged)
    except ValueError as exc:
        GeneratorConfig(**{"omega_bar": 0.25, **flags})
        exc.args = (f"{path}: {exc}",)
        raise


def save_periodogram_csv(p: Periodogram, path: str) -> None:
    """Write ``frequency,power`` rows at 12 significant digits."""
    lines = ["frequency,power"]
    for f, v in zip(p.freqs, p.powers):
        lines.append(f"{f:.12g},{v:.12g}")
    _atomic_write(path, "\n".join(lines) + "\n")


def save_reports_json(reports: list[EvalReport], path: str) -> None:
    docs = [asdict(r) for r in reports]
    _atomic_write(path, json.dumps(docs, sort_keys=True, indent=2) + "\n")


def save_reports_csv(reports: list[EvalReport], path: str) -> None:
    """Summary rows ``dataset,horizon,mse,mae,model,seed``."""
    rows = [
        (r.dataset, r.horizon, float(r.mse), float(r.mae), r.model, r.seed)
        for r in reports
    ]
    save_table_csv(rows, ["dataset", "horizon", "mse", "mae", "model", "seed"], path)


def save_matrix_csv(tm: TransferMatrix, path: str, kind: str = "scaled") -> None:
    """Transfer matrix with its ids as row (train) and column (test) labels."""
    if kind not in ("scaled", "raw"):
        raise ValueError(f"kind must be 'scaled' or 'raw', got {kind!r}")
    mat = tm.scaled if kind == "scaled" else tm.raw
    rows = [(label, *row) for label, row in zip(tm.ids, mat)]
    save_table_csv(rows, ["train\\test", *tm.ids], path)


def save_table_csv(rows: list[tuple], header: list[str], path: str) -> None:
    """Generic table writer for curves and sweeps; floats use repr, None
    is an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(float(v)) if isinstance(v, float) else v for v in row]
        )
    _atomic_write(path, buf.getvalue())
