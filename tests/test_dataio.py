"""CSV/JSON persistence tests."""

import csv
import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsynth import (
    Dataset,
    EvalReport,
    TransferMatrix,
    load_csv,
    load_generator_config,
    save_csv,
    save_matrix_csv,
    save_periodogram_csv,
    save_reports_csv,
    save_reports_json,
    save_table_csv,
    scaled_periodogram,
)
from freqsynth import dataio
from freqsynth.errors import (
    EmptyDataset,
    FreqSynthError,
    InvalidConfig,
    InvalidEncoding,
    MalformedRow,
    MissingHeader,
    NonNumericCell,
    RaggedRows,
)
from oracles import (
    load_csv_per_cell,
    save_csv_per_cell,
    save_matrix_csv_direct,
    save_reports_csv_direct,
)


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class TestCsvRoundTrip:
    def test_small_example(self, tmp_path):
        ds = Dataset(
            values=np.array([[1.5, -2.0, 3.25], [0.0, 7.5, -1.125]]),
            channel_names=("alpha", "beta"),
        )
        path = str(tmp_path / "small.csv")
        save_csv(ds, path)
        back = load_csv(path)
        assert back.values.shape == (2, 3)
        assert np.array_equal(back.values, ds.values)
        assert back.channel_names == ("alpha", "beta")

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_property(self, d, n, seed):
        import tempfile

        vals = np.random.default_rng(seed).normal(scale=1e3, size=(d, n))
        ds = Dataset(values=vals, channel_names=tuple(f"c{i}" for i in range(d)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rt.csv")
            save_csv(ds, path)
            back = load_csv(path)
        assert back.values.shape == ds.values.shape
        assert np.max(np.abs(back.values - ds.values)) <= 1e-12 * np.max(
            np.abs(ds.values)
        )

    def test_one_by_one(self, tmp_path):
        ds = Dataset(values=np.array([[4.25]]), channel_names=("only",))
        path = str(tmp_path / "tiny.csv")
        save_csv(ds, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert len(lines) == 2
        assert lines[0] == "date,only"

    def test_unicode_names(self, tmp_path):
        ds = Dataset(
            values=np.array([[1.0, 2.0]]), channel_names=("température",)
        )
        path = str(tmp_path / "uni.csv")
        save_csv(ds, path)
        assert load_csv(path).channel_names == ("température",)

    def test_date_column_is_index(self, tmp_path):
        ds = Dataset(values=np.array([[5.0, 6.0, 7.0]]), channel_names=("x",))
        path = str(tmp_path / "idx.csv")
        save_csv(ds, path)
        with open(path, encoding="utf-8") as f:
            rows = f.read().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2"]

    def test_calendar_dates_ignored_on_load(self, tmp_path):
        path = str(tmp_path / "cal.csv")
        write(path, "date,x\n2020-01-01,1.5\n2020-01-02,2.5\n")
        ds = load_csv(path)
        assert np.array_equal(ds.values, [[1.5, 2.5]])

    def test_no_stray_temp_files(self, tmp_path):
        ds = Dataset(values=np.array([[1.0, 2.0]]), channel_names=("x",))
        save_csv(ds, str(tmp_path / "a.csv"))
        assert sorted(os.listdir(tmp_path)) == ["a.csv"]


class TestLoadErrors:
    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write(path, "")
        with pytest.raises(MissingHeader):
            load_csv(path)

    def test_single_column_header(self, tmp_path):
        path = str(tmp_path / "one.csv")
        write(path, "date\n0\n")
        with pytest.raises(MissingHeader):
            load_csv(path)

    def test_numeric_first_row(self, tmp_path):
        path = str(tmp_path / "nohdr.csv")
        write(path, "0,1.5\n1,2.5\n")
        with pytest.raises(MissingHeader):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = str(tmp_path / "hdr.csv")
        write(path, "date,x\n")
        with pytest.raises(EmptyDataset):
            load_csv(path)

    def test_ragged_row_coordinates(self, tmp_path):
        path = str(tmp_path / "ragged.csv")
        write(path, "date,x,y\n0,1,2\n1,3\n")
        with pytest.raises(RaggedRows) as exc:
            load_csv(path)
        assert exc.value.row == 2
        assert str(exc.value) == f"{path}: row 2 has 2 cells, expected 3"

    def test_non_numeric_cell_coordinates(self, tmp_path):
        # bad value in data row 5, absolute column 2 (first channel)
        path = str(tmp_path / "bad.csv")
        body = "".join(f"{i},{float(i)}\n" for i in range(4))
        write(path, "date,x\n" + body + "4,oops\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (5, 2)
        assert str(exc.value) == f"{path}: non-numeric cell at row 5, col 2"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_coordinates(self, tmp_path, cell):
        # first non-finite value in data row 3, absolute column 3
        path = str(tmp_path / "nonfinite.csv")
        write(path, f"date,x,y\n0,1,2\n1,3,4\n2,5,{cell}\n3,{cell},6\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (3, 3)
        assert str(exc.value) == f"{path}: non-finite cell at row 3, col 3"

    @pytest.mark.parametrize("row, blocks", [(0, 0), (dataio._ROWS * 3 // 2, 1)])
    def test_non_utf8_byte_is_typed_and_names_the_path(self, tmp_path, monkeypatch,
                                                        row, blocks):
        # a bad byte in the header, or in a row read after the first block
        # of _ROWS rows has been parsed, so the streaming read decodes it
        parsed = []
        loadtxt_block = dataio._loadtxt_block
        monkeypatch.setattr(dataio, "_loadtxt_block",
                            lambda *a: parsed.append(1) or loadtxt_block(*a))
        lines = [b"date,x"] + [b"%d,%d.5" % (i, i % 7) for i in range(2 * dataio._ROWS)]
        lines[row] += b"\xff"
        path = str(tmp_path / "bytes.csv")
        with open(path, "wb") as f:
            f.write(b"\n".join(lines) + b"\n")
        with pytest.raises(InvalidEncoding) as exc:
            load_csv(path)
        assert isinstance(exc.value, FreqSynthError)
        assert str(exc.value).startswith(f"{path}: not UTF-8 text (")
        assert len(parsed) == blocks

    def test_save_empty_dataset(self, tmp_path):
        ds = Dataset(values=np.empty((0, 0)), channel_names=())
        with pytest.raises(EmptyDataset):
            save_csv(ds, str(tmp_path / "never.csv"))
        assert not os.listdir(tmp_path)


SPECIAL_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.79e308, 1e300, -1e-300,
    0.1, 1 / 3, -2.5, 123456789.125, 1e16, 1e-5, -1e300,
)


def special_dataset(n, names=("a,b", 'q"x')):
    """n steps of random values with the special values spread over them."""
    vals = np.random.default_rng(n).normal(scale=1e3, size=(len(names), n))
    flat = vals.reshape(-1)
    for i, v in enumerate(SPECIAL_VALUES):
        flat[(i * 7919) % flat.size] = v
    return Dataset(values=vals, channel_names=names)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def raised(loader, path):
    with pytest.raises(FreqSynthError) as exc:
        loader(path)
    e = exc.value
    return type(e), getattr(e, "row", None), getattr(e, "col", None), str(e)


class TestStreamedCsv:
    """save_csv and load_csv against the per-cell writer and loader."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_bytes_match_per_cell_writer(self, tmp_path, blocks, offset):
        ds = special_dataset(blocks * dataio._ROWS + offset)
        save_csv(ds, str(tmp_path / "new.csv"))
        save_csv_per_cell(ds, str(tmp_path / "old.csv"))
        assert read_bytes(tmp_path / "new.csv") == read_bytes(tmp_path / "old.csv")

    @pytest.mark.parametrize(
        "names", [("a,b",), ("a,b", 'q"x', "line\nbreak", "", " lead")], ids=["d1", "d5"]
    )
    @pytest.mark.parametrize(
        "n", [1, dataio._ROWS - 1, dataio._ROWS, dataio._ROWS + 1, 3 * dataio._ROWS + 7]
    )
    def test_bytes_match_at_block_edges(self, tmp_path, n, names):
        ds = special_dataset(n, names)
        save_csv(ds, str(tmp_path / "new.csv"))
        save_csv_per_cell(ds, str(tmp_path / "old.csv"))
        assert read_bytes(tmp_path / "new.csv") == read_bytes(tmp_path / "old.csv")

    def test_save_memory_stays_one_block(self, tmp_path):
        """Peak traced memory of save_csv does not grow with the block count."""
        peaks = {}
        for blocks in (4, 16):
            ds = special_dataset(blocks * dataio._ROWS, tuple("abcde"))
            tracemalloc.start()
            try:
                save_csv(ds, str(tmp_path / "m.csv"))
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] < 1.25 * peaks[4]

    @pytest.mark.parametrize(
        "names",
        [("a,b", 'q"x'), ("line\nbreak", ""), (" lead", "tail ", "semi;colon")],
    )
    def test_names_needing_quotes(self, tmp_path, names):
        ds = special_dataset(len(SPECIAL_VALUES), names)
        save_csv(ds, str(tmp_path / "new.csv"))
        save_csv_per_cell(ds, str(tmp_path / "old.csv"))
        assert read_bytes(tmp_path / "new.csv") == read_bytes(tmp_path / "old.csv")
        back = load_csv(str(tmp_path / "new.csv"))
        assert back.channel_names == names
        assert same_bits(back.values, ds.values)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_loads_bitwise_equal(self, tmp_path, offset):
        path = str(tmp_path / "x.csv")
        ds = special_dataset(dataio._ROWS + offset)
        save_csv_per_cell(ds, path)
        new, old = load_csv(path), load_csv_per_cell(path)
        assert same_bits(new.values, old.values)
        assert same_bits(new.values, ds.values)
        assert (new.channel_names, new.provenance) == (
            old.channel_names, old.provenance,
        )

    def test_crlf_spaces_quotes_and_underscores(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_ROWS", 2)
        path = str(tmp_path / "messy.csv")
        lines = ["date,x,y", '0, 1.5,"2.25"', "1,1_0 ,-0.0", "2,\t3e2,1E-3",
                 '3,"4",5e-324', "2020-01-05,+6,.5"]
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("\r\n".join(lines) + "\r\n")
        new, old = load_csv(path), load_csv_per_cell(path)
        assert same_bits(new.values, old.values)
        assert new.values[0].tolist() == [1.5, 10.0, 300.0, 4.0, 6.0]

    BLOCK = 4
    ROWS = 3 * BLOCK

    def _body(self, bad):
        """ROWS data rows of two channels, with ``bad`` {row: line} swapped in."""
        lines = ["date,x,y"]
        for r in range(1, self.ROWS + 1):
            lines.append(bad.get(r, f"{r},{r}.5,-{r}"))
        return "\n".join(lines) + "\n"

    def _both(self, tmp_path, monkeypatch, bad):
        monkeypatch.setattr(dataio, "_ROWS", self.BLOCK)
        path = str(tmp_path / "bad.csv")
        write(path, self._body(bad))
        new = raised(load_csv, path)
        assert new == raised(load_csv_per_cell, path)
        return new

    @pytest.mark.parametrize("row", [1, 4, 5, 8, 9, 12])
    def test_ragged_row_at_block_edges(self, tmp_path, monkeypatch, row):
        kind, r, _, _ = self._both(tmp_path, monkeypatch, {row: f"{row},1"})
        assert (kind, r) == (RaggedRows, row)

    @pytest.mark.parametrize("row", [1, 4, 5, 8, 9, 12])
    def test_non_numeric_cell_at_block_edges(self, tmp_path, monkeypatch, row):
        got = self._both(tmp_path, monkeypatch, {row: f"{row},1,x"})
        assert got[:3] == (NonNumericCell, row, 3)

    @pytest.mark.parametrize(
        "bad, first",
        [
            ({3: "3,oops,1", 10: "10,1"}, (NonNumericCell, 3, 2)),
            ({3: "3,1", 10: "10,oops,1"}, (RaggedRows, 3, None)),
            ({5: "5,1,oops", 6: "6,1"}, (NonNumericCell, 5, 3)),
            ({5: "5,1", 6: "6,oops,1"}, (RaggedRows, 5, None)),
            ({7: "7,oops"}, (RaggedRows, 7, None)),
            ({5: "5,1", 6: "6,1,2,3"}, (RaggedRows, 5, None)),
            ({2: "2,nan,1", 11: "11,1,oops"}, (NonNumericCell, 11, 3)),
            ({2: "2,1,inf", 11: "11,-inf,1"}, (NonNumericCell, 2, 3)),
        ],
    )
    def test_error_precedence_across_blocks(self, tmp_path, monkeypatch, bad, first):
        assert self._both(tmp_path, monkeypatch, bad)[:3] == first

    def test_failed_stream_leaves_no_file(self, tmp_path, monkeypatch):
        real = dataio._csv_chunks

        def fails_after_first_block(ds):
            chunks = real(ds)
            yield next(chunks)  # header
            yield next(chunks)  # first block of rows
            raise OSError("disk full")

        monkeypatch.setattr(dataio, "_ROWS", 4)
        monkeypatch.setattr(dataio, "_csv_chunks", fails_after_first_block)
        ds = special_dataset(10)
        with pytest.raises(OSError, match="disk full"):
            save_csv(ds, str(tmp_path / "never.csv"))
        assert os.listdir(tmp_path) == []
        write(str(tmp_path / "kept.csv"), "date,x\n0,1.0\n")
        with pytest.raises(OSError, match="disk full"):
            save_csv(ds, str(tmp_path / "kept.csv"))
        assert os.listdir(tmp_path) == ["kept.csv"]
        assert read_bytes(tmp_path / "kept.csv") == b"date,x\n0,1.0\n"


def outcome(loader, path):
    """A loader's names and value bits, or its error class and message."""
    try:
        ds = loader(path)
    except FreqSynthError as e:
        return type(e), str(e)
    return ds.channel_names, ds.values.shape, ds.values.tobytes()


def both_outcomes(text, rows):
    """outcome of load_csv with _ROWS = rows and of load_csv_per_cell on text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        with mock.patch.object(dataio, "_ROWS", rows):
            got = outcome(load_csv, path)
        return got, outcome(load_csv_per_cell, path)


GOOD_ROWS = [f"{r},{r}.5,-{r}" for r in range(1, 10)]


def body(swap=(), end="\n", header="date,x,y", final=True):
    """A header plus nine data rows of two channels, with {row: line} swapped in."""
    swap = dict(swap)
    lines = [header] + [swap.get(r, line) for r, line in enumerate(GOOD_ROWS, 1)]
    return end.join(lines) + (end if final else "")


# id, file text.  With _ROWS = 3, rows 1-3, 4-6 and 7-9 are the blocks.
DIFFERENTIAL_CASES = [
    ("plain", body()),
    # np.loadtxt strips a unit separator, float refuses it
    ("unit-separator", body({2: "2,1.5\x1f,1"})),
    # float takes these, np.loadtxt refuses them
    ("underscore", body({5: "5,1_5,2"})),
    ("arabic-indic-digit", body({5: "5,\u0663,2"})),
    # np.loadtxt skips blank lines; usecols hides an extra trailing field
    ("blank-line", body({4: ""})),
    ("whitespace-only-line", body({4: "  \t "})),
    ("blank-line-beside-two-extra-fields", body({4: "4,1,2,3,4", 5: ""})),
    ("extra-trailing-field", body({4: "4,1,2,3"})),
    ("extra-field-beside-a-missing-one", body({4: "4,1,2,3", 5: "5,1"})),
    ("missing-field", body({7: "7,1"})),
    ("empty-field", body({4: "4,,1"})),
    ("vertical-tab-and-form-feed-padding", body({2: "2,\x0b1.5\x0c,2"})),
    ("spaces-and-tabs", body({2: "2, 1.5\t,\t2 "})),
    ("crlf", body(end="\r\n")),
    ("lone-cr", body(end="\r")),
    ("no-final-line-end", body(final=False)),
    ("quoted-numbers", body({3: '3,"1.5","2"'})),
    ("quoted-date-with-comma", body({3: '"2020,01",1,2'})),
    # row 3 spans lines 3 and 4, across the block edge
    ("quoted-date-with-newline", body({3: '"2020\n01",1,2'})),
    # split at its newline, row 3 has two lines of two commas each
    ("quoted-date-keeping-the-comma-count", body({3: '"x,1,2\ny",1,2'})),
    ("quoted-header-names", body(header='date,"a,b","q""x"')),
    ("header-name-with-newline", body(header='date,"line\nbreak",y')),
    ("non-ascii-dates",
     body({r: f"2020-01-0{r} \u00e9t\u00e9,{r},1" for r in range(1, 10)})),
    ("nan-and-1e400", body({6: "6,nan,1e400"})),
    ("infinity-words", body({2: "2,-Infinity,+inf"})),
    ("subnormals", body({2: "2,5e-324,2.225073858507201e-308",
                         3: "3,4.9e-324,-2.4703282292062328e-324"})),
    ("25-digit-mantissas", body({4: "4,1.234567890123456789012345,"
                                    "0.1000000000000000055511151231257827"})),
    ("bad-cell-after-two-fast-blocks", body({8: "8,oops,1"})),
    ("ragged-row-after-two-fast-blocks", body({9: "9,1"})),
    ("hex-and-bare-exponent", body({2: "2,0x10,1", 3: "3,1e,2"})),
    ("nul-in-a-value", body({2: "2,1\x00,2"})),
]


class TestLoadtxtBlocks:
    """load_csv's numpy-reader blocks against the per-cell loader."""

    @pytest.mark.parametrize(
        "text", [t for _, t in DIFFERENTIAL_CASES], ids=[n for n, _ in DIFFERENTIAL_CASES]
    )
    @pytest.mark.parametrize("rows", [2, 3])
    def test_listed_cases(self, text, rows):
        got, want = both_outcomes(text, rows)
        assert got == want

    CELLS = st.one_of(
        st.floats(allow_nan=False).map(repr),
        st.integers(-(10**30), 10**30).map(str),
        st.sampled_from(
            ["0.1", "-0.0", "5e-324", "1e400", "nan", "1_0", " 2 ", "\t3", '"4"',
             "", "x", "\u0663", "1.5\x1f", "\x0b6", ".5", "1e", "+7"]
        ),
        st.text(alphabet=' \t\x0b\x1f"_,.019eE+-naif\u0663\u00e9\n\r', max_size=5),
    )
    DATES = st.one_of(
        st.integers(0, 99).map(str),
        st.sampled_from(['"2020,01"', '"20\n20"', "\u00e9", '"x,1', "2020-01-01 00:00"]),
    )
    LINES = st.one_of(
        st.tuples(DATES, st.lists(CELLS, min_size=2, max_size=2)),
        st.tuples(DATES, st.lists(CELLS, min_size=0, max_size=4)),
        st.just(("", [])),
    ).map(lambda dc: ",".join([dc[0], *dc[1]]) if dc[1] else dc[0])

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(LINES, min_size=1, max_size=10),
        end=st.sampled_from(["\n", "\r\n", "\r"]),
        final=st.booleans(),
        rows=st.integers(2, 3),
    )
    def test_fuzz_matches_the_per_cell_loader(self, lines, end, final, rows):
        text = end.join(["date,x,y", *lines]) + (end if final else "")
        got, want = both_outcomes(text, rows)
        assert got == want

    def _spy(self, monkeypatch):
        """Record which blocks np.loadtxt took, and the first row of each
        block that csv.reader and float parsed."""
        taken, parsed = [], []
        fast, slow = dataio._loadtxt_block, dataio._parse_rows

        def loadtxt_block(lines, width):
            values = fast(lines, width)
            taken.append(values is not None)
            return values

        def parse_rows(rows, width, first, path):
            parsed.append(first)
            return slow(rows, width, first, path)

        monkeypatch.setattr(dataio, "_loadtxt_block", loadtxt_block)
        monkeypatch.setattr(dataio, "_parse_rows", parse_rows)
        return taken, parsed

    def test_generated_file_takes_numpy_on_every_block(self, tmp_path, monkeypatch):
        path = str(tmp_path / "g.csv")
        ds = special_dataset(3 * dataio._ROWS + 5)
        save_csv(ds, path)
        taken, parsed = self._spy(monkeypatch)
        assert same_bits(load_csv(path).values, ds.values)
        assert taken == [True] * 4 and parsed == []

    def test_bad_cell_in_third_block_falls_back_there(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_ROWS", 3)
        path = str(tmp_path / "b.csv")
        write(path, body({8: "8,oops,1"}))
        taken, parsed = self._spy(monkeypatch)
        with pytest.raises(NonNumericCell) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (8, 2)
        assert taken == [True, True, False] and parsed == [7]

    @pytest.mark.parametrize(
        "line", ['"5",5.5,-5', "5 \u00e9t\u00e9,5.5,-5", "5,\x0b5.5,-5", "5,5_5,-5"],
        ids=["quote", "non-ascii-date", "vertical-tab", "underscore"],
    )
    def test_guard_sends_its_block_and_the_rest_to_csv(self, tmp_path, monkeypatch, line):
        monkeypatch.setattr(dataio, "_ROWS", 3)
        path = str(tmp_path / "q.csv")
        write(path, body({5: line}))
        taken, parsed = self._spy(monkeypatch)
        assert outcome(load_csv, path) == outcome(load_csv_per_cell, path)
        assert taken == [True, False] and parsed == [4, 7]


class TestFieldLimit:
    """A field over csv.field_size_limit() is a typed error, not csv.Error."""

    BIG = csv.field_size_limit() + 1

    @pytest.mark.parametrize("row", [1, 2, 5, 6])
    def test_oversized_cell_names_file_and_row(self, tmp_path, monkeypatch, row):
        monkeypatch.setattr(dataio, "_ROWS", 2)
        path = str(tmp_path / "big.csv")
        # spaces around a number: float and np.loadtxt would both take it
        write(path, body({row: f"{row},{' ' * self.BIG}1.5,2"}))
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert exc.value.row == row
        assert str(exc.value).startswith(f"{path}: row {row}: field larger than")

    def test_earlier_bad_cell_in_the_block_wins(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_ROWS", 3)
        path = str(tmp_path / "big.csv")
        write(path, body({4: "4,oops,1", 5: f"5,{'1' * self.BIG},2"}))
        with pytest.raises(NonNumericCell) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (4, 2)

    def test_oversized_header(self, tmp_path):
        path = str(tmp_path / "big.csv")
        write(path, body(header=f"date,{'x' * self.BIG},y"))
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert exc.value.row == 0


class TestGeneratorConfigFile:
    def test_subset_plus_overrides(self, tmp_path):
        path = str(tmp_path / "cfg.json")
        write(path, json.dumps({"omega_bar": 0.05, "h": 2, "n": 512}))
        cfg = load_generator_config(path, seed=9)
        assert (cfg.omega_bar, cfg.h, cfg.n, cfg.seed) == (0.05, 2, 512, 9)
        assert cfg.m == 100

    def test_override_beats_file(self, tmp_path):
        path = str(tmp_path / "cfg2.json")
        write(path, json.dumps({"omega_bar": 0.05, "h": 2}))
        assert load_generator_config(path, h=4).h == 4

    def test_none_override_ignored(self, tmp_path):
        path = str(tmp_path / "cfg3.json")
        write(path, json.dumps({"omega_bar": 0.05, "h": 2}))
        assert load_generator_config(path, h=None).h == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = str(tmp_path / "cfg4.json")
        write(path, json.dumps({"omega_bar": 0.05, "bogus": 1}))
        with pytest.raises(ValueError):
            load_generator_config(path)

    @pytest.mark.parametrize(
        "doc, words",
        [([1, 2], "JSON object"), ({"omega_bar": 0.05, "bogus": 1}, "'bogus'")],
    )
    def test_bad_document_is_typed_and_names_the_path(self, tmp_path, doc, words):
        path = str(tmp_path / "cfg5.json")
        write(path, json.dumps(doc))
        with pytest.raises(InvalidConfig) as exc:
            load_generator_config(path)
        assert isinstance(exc.value, FreqSynthError)
        assert isinstance(exc.value, ValueError)
        assert str(exc.value).startswith(f"{path}: ") and words in str(exc.value)


class TestReportAndTableWriters:
    def _reports(self):
        return [
            EvalReport(
                dataset="d1", horizon=96, mse=0.5, mae=0.25, model="ridge", seed=3
            ),
            EvalReport(dataset="d2", horizon=192, mse=1.5, mae=0.75, model="naive"),
        ]

    def test_reports_json(self, tmp_path):
        path = str(tmp_path / "r.json")
        save_reports_json(self._reports(), path)
        docs = json.loads(open(path, encoding="utf-8").read())
        assert len(docs) == 2
        assert docs[0]["dataset"] == "d1"
        assert docs[0]["mse"] == 0.5
        assert docs[1]["seed"] is None

    def test_reports_csv_header(self, tmp_path):
        path = str(tmp_path / "r.csv")
        save_reports_csv(self._reports(), path)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "dataset,horizon,mse,mae,model,seed"
        assert len(lines) == 3

    def test_periodogram_csv(self, tmp_path):
        p = scaled_periodogram(np.sin(2 * np.pi * np.arange(64) / 8))
        path = str(tmp_path / "p.csv")
        save_periodogram_csv(p, path)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "frequency,power"
        assert len(lines) == len(p) + 1
        freqs = np.array([float(l.split(",")[0]) for l in lines[1:]])
        powers = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.max(np.abs(freqs - p.freqs)) < 1e-9
        assert np.max(np.abs(powers - p.powers)) < 1e-9 * max(p.powers.max(), 1)

    def test_matrix_csv(self, tmp_path):
        tm = TransferMatrix(ids=("a", "b"), raw=np.array([[0.1, 0.2], [0.3, 0.4]]))
        path = str(tmp_path / "m.csv")
        save_matrix_csv(tm, path, kind="scaled")
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0].split(",")[1:] == ["a", "b"]
        assert lines[1].split(",")[0] == "a"
        with pytest.raises(ValueError):
            save_matrix_csv(tm, path, kind="nope")

    def test_table_csv(self, tmp_path):
        path = str(tmp_path / "t.csv")
        save_table_csv([(0, 0.5), (1, 1.5)], ["count", "mse"], path)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "count,mse"
        assert lines[1].startswith("0,")

    QUOTED = ("plain", "a,b", 'q"x', "line\nbreak", "", " lead")

    def test_reports_csv_bytes_equal_the_direct_writer(self, tmp_path):
        vals = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, 0, np.float64(2.5)]
        reports = [
            EvalReport(dataset=name, horizon=96 * (i + 1), mse=v, mae=vals[-1 - i],
                       model=self.QUOTED[-1 - i], seed=[None, 0, 7, 2**40][i % 4])
            for i, (name, v) in enumerate(zip(self.QUOTED, vals))
        ]
        for rows in (reports, []):
            save_reports_csv(rows, str(tmp_path / "got.csv"))
            save_reports_csv_direct(rows, str(tmp_path / "want.csv"))
            got = (tmp_path / "got.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
            # a quoted id and a None seed's empty cell are both written
            assert (b'"a,b"' in got and got.split(b"\n")[1].endswith(b",")) == bool(rows)

    def test_matrix_csv_bytes_equal_the_direct_writer(self, tmp_path):
        k = len(self.QUOTED)
        raw = np.random.default_rng(4).lognormal(size=(k, k))
        raw[0, 1], raw[1, 0] = 5e-324, 1e300
        tm = TransferMatrix(ids=self.QUOTED, raw=raw)
        for kind in ("scaled", "raw"):
            save_matrix_csv(tm, str(tmp_path / "got.csv"), kind=kind)
            save_matrix_csv_direct(tm, str(tmp_path / "want.csv"), kind=kind)
            got = (tmp_path / "got.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
            assert b'"q""x"' in got and b'"line\nbreak"' in got


@pytest.fixture
def restore_umask():
    """Restore the process umask after a test that sets it."""
    saved = os.umask(0o022)
    yield
    os.umask(saved)


class TestFileMode:
    """Written files get the mode open() gives: 0o666 less the umask."""

    def _write_both(self, tmp_path):
        ds = Dataset(values=np.ones((1, 3)), channel_names=("x",))
        report = EvalReport(dataset="d", horizon=1, mse=0.0, mae=0.0, model="m")
        save_csv(ds, str(tmp_path / "a.csv"))
        save_reports_json([report], str(tmp_path / "r.json"))
        return [os.stat(tmp_path / name).st_mode & 0o777 for name in ("a.csv", "r.json")]

    def test_umask_022_gives_644(self, tmp_path, restore_umask):
        os.umask(0o022)
        assert self._write_both(tmp_path) == [0o644, 0o644]

    def test_mode_follows_the_umask_on_replace(self, tmp_path, restore_umask):
        os.umask(0o022)
        self._write_both(tmp_path)
        os.umask(0o077)
        assert self._write_both(tmp_path) == [0o600, 0o600]
        os.umask(0o002)
        assert self._write_both(tmp_path) == [0o664, 0o664]
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "r.json"]
