"""File formats: LTSF-style CSV datasets, registries, reports.

Dataset CSV layout: first column ``date``, remaining columns one per
channel, one row per time step.  Generated files use a 0-based integer
step index as the date; on load the date column only fixes row order
and its content is otherwise ignored.  Values are written with repr
formatting (shortest exact round-trip, at most 17 significant digits).

All writers build the full payload in memory and publish it with a
temp-file-plus-rename, so a failed run never leaves a partial file.

Cell coordinates in errors are 1-based: rows count data rows (the
header is row 0, so the first data row is row 1) and columns count all
columns including the date column.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset
from .errors import (
    DuplicateId,
    EmptyDataset,
    MissingHeader,
    NonNumericCell,
    RaggedRows,
)
from .evaluation import EvalReport, TransferMatrix
from .freqest import parse_sampling_rate
from .generator import GeneratorConfig
from .spectral import Periodogram


def _atomic_write(path: str, text: str) -> None:
    """Write text to path all-or-nothing via temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_csv(ds: Dataset, path: str) -> None:
    """Write a dataset in LTSF layout with an integer-index date column."""
    if ds.d == 0 or ds.n == 0:
        raise EmptyDataset(f"refusing to write empty dataset of shape {ds.values.shape}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", *ds.channel_names])
    cols = ds.values.T
    for t in range(ds.n):
        writer.writerow([t, *(repr(float(v)) for v in cols[t])])
    _atomic_write(path, buf.getvalue())


def load_csv(path: str, rate: str | None = None) -> Dataset:
    """Read an LTSF-layout CSV; channels are the columns after the first."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingHeader(f"{path}: file is empty") from None
        rows = list(reader)
    if len(header) < 2:
        raise MissingHeader(
            f"{path}: header needs a date column plus at least one channel"
        )
    if all(_is_number(cell) for cell in header):
        raise MissingHeader(f"{path}: first row looks like data, not a header")
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    width = len(header)
    values = np.empty((len(rows), width - 1), dtype=np.float64)
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise RaggedRows(r, width, len(row))
        for c, cell in enumerate(row[1:], start=2):
            try:
                values[r - 1, c - 2] = float(cell)
            except ValueError:
                raise NonNumericCell(r, c) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise NonNumericCell(int(bad[0, 0]) + 1, int(bad[0, 1]) + 2, "non-finite")
    return Dataset(
        values=values.T,
        channel_names=tuple(header[1:]),
        rate=rate,
        provenance=path,
    )


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class DatasetRegistryEntry:
    """One row of a dataset registry: id, file path, rate, sector tag."""

    id: str
    rate: str
    path: str = ""
    sector: str = ""


def load_registry(path: str) -> list[DatasetRegistryEntry]:
    """Read a JSON array of registry entries; ids must be unique."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: registry must be a JSON array")
    entries = []
    seen = set()
    for item in doc:
        ident = str(item.get("id", ""))
        if not ident:
            raise ValueError(f"{path}: registry entry without an id")
        if ident in seen:
            raise DuplicateId(f"{path}: duplicate registry id {ident!r}")
        seen.add(ident)
        rate = str(item["rate"])
        parse_sampling_rate(rate)
        entries.append(
            DatasetRegistryEntry(
                id=ident,
                rate=rate,
                path=str(item.get("path", "")),
                sector=str(item.get("sector", "")),
            )
        )
    return entries


def load_generator_config(path: str, **overrides) -> GeneratorConfig:
    """Build a GeneratorConfig from a JSON object plus keyword overrides.

    The file may set any subset of the config fields; unknown keys are
    rejected.  Overrides with value None are ignored.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    fields = set(GeneratorConfig.__dataclass_fields__)
    unknown = set(doc) - fields
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    merged = dict(doc)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return GeneratorConfig(**merged)


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "horizon", "mse", "mae", "model", "seed"])
    for r in reports:
        writer.writerow(
            [
                r.dataset,
                r.horizon,
                repr(float(r.mse)),
                repr(float(r.mae)),
                r.model,
                "" if r.seed is None else r.seed,
            ]
        )
    _atomic_write(path, buf.getvalue())


def save_matrix_csv(tm: TransferMatrix, path: str, kind: str = "scaled") -> None:
    """Transfer matrix with train ids as row labels, test ids as columns."""
    if kind not in ("scaled", "raw"):
        raise ValueError(f"kind must be 'scaled' or 'raw', got {kind!r}")
    mat = tm.scaled if kind == "scaled" else tm.raw
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["train\\test", *tm.test_ids])
    for label, row in zip(tm.train_ids, mat):
        writer.writerow([label, *(repr(float(v)) for v in row)])
    _atomic_write(path, buf.getvalue())


def save_table_csv(rows: list[tuple], header: list[str], path: str) -> None:
    """Generic table writer for curves and sweeps; floats use repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(float(v)) if isinstance(v, float) else v for v in row]
        )
    _atomic_write(path, buf.getvalue())
