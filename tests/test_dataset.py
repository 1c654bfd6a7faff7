import contextlib
import functools
import io
import itertools
import math
import os
import tempfile
from argparse import Namespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocon.cli import _read_vectors, main
from ocon.dataset import (
    ARPABET_CODES,
    FEATURE_KEYS,
    ColumnLayout,
    FeatureRecord,
    PhonemeLabel,
    SpeakerGroup,
    class_statistics,
    decode_filename,
    encode_filename,
    filter_usable,
    load_dataset,
    read_records_csv,
    write_records_csv,
)
from ocon.errors import (
    MalformedFilename,
    MalformedRow,
    MissingColumn,
    NonNumericSpeakerId,
    OconError,
    UnknownGroupChar,
    UnknownPhonemeCode,
)
from ocon.features import FeatureSetKind
from ocon.synth import records_to_dat, synth_records


def make_record(code="ae", group=SpeakerGroup.MAN, speaker=10, **overrides):
    values = {k: 1000.0 for k in FeatureRecord.__dataclass_fields__
              if k.startswith(("f0", "f1", "f2", "f3"))}
    values["f0_ss"] = 100.0
    values.update(overrides)
    return FeatureRecord(group, speaker, PhonemeLabel.from_code(code), **values)


class TestDecodeFilename:
    def test_man_example(self):
        group, speaker, phoneme = decode_filename("m10ae")
        assert group is SpeakerGroup.MAN
        assert speaker == 10
        assert phoneme == PhonemeLabel("ae", 0)

    def test_woman_example(self):
        group, speaker, phoneme = decode_filename("w49ih")
        assert group is SpeakerGroup.WOMAN
        assert speaker == 49
        assert phoneme == PhonemeLabel("ih", 6)

    def test_unknown_group_char(self):
        with pytest.raises(UnknownGroupChar):
            decode_filename("x10ae")

    def test_non_numeric_speaker(self):
        with pytest.raises(NonNumericSpeakerId):
            decode_filename("m1aae")

    def test_unknown_phoneme(self):
        with pytest.raises(UnknownPhonemeCode):
            decode_filename("m10zz")

    def test_wrong_length(self):
        with pytest.raises(MalformedFilename):
            decode_filename("m10aeh")

    def test_label_id_bijection(self):
        expected = {"ae": 0, "ah": 1, "aw": 2, "eh": 3, "er": 4, "ei": 5,
                    "ih": 6, "iy": 7, "oa": 8, "oo": 9, "uh": 10, "uw": 11}
        for code, label_id in expected.items():
            assert PhonemeLabel.from_code(code).label_id == label_id
            assert PhonemeLabel.from_id(label_id).arpabet == code

    def test_roundtrip_all_valid_names(self):
        # all 4 groups x 99 speakers x 12 phonemes
        for group, speaker, code in itertools.product(
                SpeakerGroup, range(1, 100), ARPABET_CODES):
            phoneme = PhonemeLabel.from_code(code)
            name = encode_filename(group, speaker, phoneme)
            assert decode_filename(name) == (group, speaker, phoneme)


def write_dat(tmp_path, rows, header_lines=0):
    path = tmp_path / "sample.dat"
    lines = ["header junk"] * header_lines + rows
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def simple_layout():
    # filename + 13 consecutive numeric columns in canonical key order
    from ocon.dataset import FEATURE_KEYS
    return ColumnLayout(columns={k: i + 1 for i, k in enumerate(FEATURE_KEYS)})


def row_for(name, values):
    return name + " " + " ".join(str(v) for v in values)


class TestLoadDataset:
    def test_row_count_preserved(self, tmp_path):
        rows = [row_for("m01ae", [100] + [500] * 12),
                row_for("w02ih", [200] + [0] * 12)]   # zeros kept, not filtered
        records = load_dataset(write_dat(tmp_path, rows), simple_layout())
        assert len(records) == 2
        assert records[1].f1_10 == 0.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("")
        assert load_dataset(str(path), simple_layout()) == []

    def test_non_numeric_cell(self, tmp_path):
        rows = [row_for("m01ae", [100] + [500] * 11 + ["oops"])]
        with pytest.raises(MalformedRow) as err:
            load_dataset(write_dat(tmp_path, rows), simple_layout())
        assert err.value.line_no == 1

    def test_negative_value_rejected(self, tmp_path):
        rows = [row_for("m01ae", [100, -5] + [500] * 11)]
        with pytest.raises(MalformedRow):
            load_dataset(write_dat(tmp_path, rows), simple_layout())

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "NaN", "1e999", "Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, token):
        rows = [row_for("m01ae", [100] + [500] * 12),
                row_for("w02ih", [200] + [500] * 5 + [token] + [500] * 6)]
        with pytest.raises(MalformedRow) as err:
            load_dataset(write_dat(tmp_path, rows), simple_layout())
        assert err.value.line_no == 2

    def test_non_ascii_digit_speaker_rejected(self, tmp_path):
        rows = [row_for("m\u00b2\u00b2ae", [100] + [500] * 12)]  # superscript twos
        with pytest.raises(MalformedRow):
            load_dataset(write_dat(tmp_path, rows), simple_layout())

    def test_non_utf8_bytes_reported_with_line(self, tmp_path):
        path = tmp_path / "latin1.dat"
        path.write_bytes(b"m01ae " + b"500 " * 13 + b"\nm02ae 5\xe900\n")
        with pytest.raises(MalformedRow) as err:
            load_dataset(str(path), simple_layout())
        assert err.value.line_no == 2

    def test_missing_column(self, tmp_path):
        rows = [row_for("m01ae", [100] * 5)]
        with pytest.raises(MissingColumn):
            load_dataset(write_dat(tmp_path, rows), simple_layout())

    def test_skip_rows_and_comma_delimiting(self, tmp_path):
        layout = ColumnLayout(columns=simple_layout().columns, skip_rows=2)
        rows = ["m01ae," + ",".join(["100"] + ["500"] * 12)]
        records = load_dataset(write_dat(tmp_path, rows, header_lines=2), layout)
        assert len(records) == 1
        assert records[0].f0_ss == 100.0

    def test_bad_filename_reported_with_line(self, tmp_path):
        rows = [row_for("m01ae", [100] + [500] * 12),
                row_for("z01ae", [100] + [500] * 12)]
        with pytest.raises(MalformedRow) as err:
            load_dataset(write_dat(tmp_path, rows), simple_layout())
        assert err.value.line_no == 2

    def test_default_layout_matches_public_distribution(self):
        layout = ColumnLayout.hgcw_bigdata()
        assert layout.skip_rows == 43
        assert layout.columns["f0_ss"] == 2
        assert layout.columns["f1_ss"] == 3
        assert layout.columns["f1_10"] == 6
        assert layout.columns["f3_50"] == 20
        assert layout.columns["f2_80"] == 28

    def test_layout_file_roundtrip(self, tmp_path):
        layout = ColumnLayout.hgcw_bigdata()
        path = tmp_path / "layout.cfg"
        path.write_text(f"skip_rows = {layout.skip_rows}\n"
                        + "".join(f"{k} = {v}\n" for k, v in layout.columns.items()))
        assert ColumnLayout.from_file(str(path)) == layout


class TestFilterUsable:
    def test_partition_property(self):
        records = [make_record(), make_record(f2_50=0.0), make_record(f0_ss=0.0)]
        kept, dropped = filter_usable(records, FeatureSetKind.TT12)
        assert len(kept) + len(dropped) == len(records)
        assert set(map(id, kept)).isdisjoint(map(id, dropped))

    def test_zero_timetrack_kept_for_ss_set(self):
        # f2@50% failure only matters to the time-tracks set
        rec = make_record(f2_50=0.0)
        kept, _ = filter_usable([rec], FeatureSetKind.SS3)
        assert kept == [rec]
        kept, dropped = filter_usable([rec], FeatureSetKind.TT12)
        assert dropped == [rec]

    def test_zero_f0_dropped_everywhere(self):
        rec = make_record(f0_ss=0.0)
        for kind in FeatureSetKind:
            _, dropped = filter_usable([rec], kind)
            assert dropped == [rec]

    @given(st.lists(st.sampled_from([0.0, 250.0, 1200.0]), min_size=13, max_size=13))
    def test_partition_for_random_zero_patterns(self, values):
        from ocon.dataset import FEATURE_KEYS
        rec = make_record(**dict(zip(FEATURE_KEYS, values)))
        for kind in FeatureSetKind:
            kept, dropped = filter_usable([rec], kind)
            assert len(kept) + len(dropped) == 1
            expected_kept = all(rec.value(k) > 0 for k in kind.required_keys)
            assert bool(kept) == expected_kept


class TestClassStatistics:
    def test_counts_and_totals(self):
        records = [make_record("ae"), make_record("ae", group=SpeakerGroup.BOY),
                   make_record("ih", group=SpeakerGroup.GIRL)]
        stats = class_statistics(records)
        assert stats.count(0, SpeakerGroup.MAN) == 1
        assert stats.count(0, SpeakerGroup.BOY) == 1
        assert stats.phoneme_total(0) == 2
        assert stats.group_total(SpeakerGroup.GIRL) == 1
        assert stats.total == 3

    def test_empty_input(self):
        stats = class_statistics([])
        assert stats.total == 0
        assert all(stats.phoneme_total(i) == 0 for i in range(12))

    def test_row_sums_match_cells(self, synth_corpus):
        stats = class_statistics(synth_corpus)
        for label_id in range(12):
            assert stats.phoneme_total(label_id) == sum(stats.counts[label_id])
        assert stats.total == sum(stats.phoneme_total(i) for i in range(12))

    def test_format_table_mentions_every_code(self):
        text = class_statistics([make_record()]).format_table()
        for code in ARPABET_CODES:
            assert code in text


@functools.lru_cache(maxsize=None)
def valid_text(writer, n):
    """Text of a file that ``writer`` makes from ``n`` synthetic records."""
    records = synth_records(seed=4, men=1, women=1, boys=1, girls=1)[:n]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "valid")
        writer(records, path)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


def records_csv_lines(n=3):
    """Header plus ``n`` valid rows of a records CSV, as text lines."""
    return valid_text(write_records_csv, n).splitlines()


class TestRecordsCsv:
    def test_roundtrip_exact(self, tmp_path, synth_corpus):
        path = tmp_path / "records.csv"
        subset = synth_corpus[:50]
        write_records_csv(subset, str(path))
        back = read_records_csv(str(path))
        assert back == subset

    def read_lines(self, tmp_path, lines):
        path = tmp_path / "records.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return read_records_csv(str(path))

    def test_missing_header_column(self, tmp_path):
        lines = records_csv_lines()
        lines[0] = lines[0].replace(",f2_ss,", ",f2_xx,")
        with pytest.raises(MalformedRow) as err:
            self.read_lines(tmp_path, lines)
        assert err.value.line_no == 1 and "f2_ss" in str(err.value)

    def test_empty_file_lacks_header(self, tmp_path):
        with pytest.raises(MalformedRow) as err:
            self.read_lines(tmp_path, [])
        assert err.value.line_no == 1

    def test_short_row(self, tmp_path):
        lines = records_csv_lines()
        lines[2] = ",".join(lines[2].split(",")[:8])
        with pytest.raises(MalformedRow) as err:
            self.read_lines(tmp_path, lines)
        assert err.value.line_no == 3

    def test_columns_are_found_by_name(self, tmp_path):
        lines = records_csv_lines()
        moved = [",".join(reversed(line.split(","))) for line in lines]
        assert moved[0].startswith("f3_80,") and moved[0].endswith(",filename")
        assert self.read_lines(tmp_path, moved) == self.read_lines(tmp_path, lines)

    @pytest.mark.parametrize("cells, named", [
        ({0: "w99iy", 4: "7"}, "filename 'w99iy'"),
        ({0: "w99iy"}, "filename 'w99iy'"),
        ({4: "7"}, "label_id '7'"),
        ({4: "00"}, "label_id '00'"),
    ], ids=["both", "filename", "label_id", "padded_label_id"])
    def test_filename_and_label_id_must_match_the_row(self, tmp_path, cells, named):
        lines = records_csv_lines()
        row = lines[1].split(",")
        assert row[:5] == ["m01ae", "m", "1", "ae", "0"]
        for column, token in cells.items():
            row[column] = token
        lines[1] = ",".join(row)
        with pytest.raises(MalformedRow) as err:
            self.read_lines(tmp_path, lines)
        assert err.value.line_no == 2 and named in str(err.value)

    @pytest.mark.parametrize("column, token", [
        (1, "q"), (1, ""), (2, "x1"), (2, "1.5"), (2, "100"), (2, "-1"), (3, "zz"),
        (3, "AE"), (5, "inf"), (7, "nan"), (16, "-1e999"), (9, "-3"), (12, "five")])
    def test_bad_cell(self, tmp_path, column, token):
        lines = records_csv_lines()
        cells = lines[3].split(",")
        cells[column] = token
        lines[3] = ",".join(cells)
        with pytest.raises(MalformedRow) as err:
            self.read_lines(tmp_path, lines)
        assert err.value.line_no == 4


# --- fuzzing: malformed input ends in an OconError, never a raw exception ---

BAD_CELLS = st.sampled_from(["inf", "-inf", "nan", "NaN", "1e999", "", "x", "-1", "1e5e", "0x10"])
DAT_NAMES = st.sampled_from(["x01ae", "m1xae", "m01zz", "m01a", "m\u00b2\u00b2ae", "M01AE"])
CSV_IDENTITY = st.sampled_from([(1, "q"), (1, "M"), (2, ""), (2, "1.5"), (2, "100"),
                                (3, "zz"), (3, "AE")])
#: Hand-picked cell tokens mixed with arbitrary text, for unconstrained lines.
TOKENS = st.sampled_from(["m01ae", "w12iy", "500", "0", "-1", "nan", "inf", "1e400", ","]) \
    | st.text(max_size=6)
LINES = st.lists(st.lists(TOKENS, max_size=32).map(" ".join)
                 | st.lists(TOKENS, max_size=20).map(",".join), max_size=4)


def dat_lines():
    """43 header lines plus three valid rows in the public layout."""
    return valid_text(records_to_dat, 3).splitlines()


@st.composite
def malformed_dat(draw):
    """(file bytes, 1-based line of the defect) for a measurement file."""
    lines = dat_lines()
    at = draw(st.integers(44, len(lines)))
    tokens = lines[at - 1].split()
    kind = draw(st.sampled_from(["cell", "short", "name", "bytes"]))
    if kind == "cell":
        col = draw(st.sampled_from(sorted(set(ColumnLayout.hgcw_bigdata().columns.values()))))
        tokens[col] = draw(BAD_CELLS.filter(bool))
    elif kind == "short":
        tokens = tokens[:draw(st.integers(1, max(ColumnLayout.hgcw_bigdata().columns.values())))]
    elif kind == "name":
        tokens[0] = draw(DAT_NAMES)
    lines[at - 1] = " ".join(tokens)
    data = ("\n".join(lines) + "\n").encode()
    if kind == "bytes":
        lines[at - 1] += " \udcff"
        data = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    return data, at


@st.composite
def malformed_records_csv(draw):
    """(file bytes, 1-based line of the defect) for a records CSV."""
    lines = records_csv_lines()
    at = draw(st.integers(2, len(lines)))
    cells = lines[at - 1].split(",")
    kind = draw(st.sampled_from(["cell", "identity", "short", "header", "bytes"]))
    if kind == "cell":
        cells[draw(st.integers(5, len(cells) - 1))] = draw(BAD_CELLS)
    elif kind == "identity":
        col, token = draw(CSV_IDENTITY)
        cells[col] = token
    elif kind == "short":
        cells = cells[:draw(st.integers(1, len(cells) - 1))]
    lines[at - 1] = ",".join(cells)
    if kind == "header":
        at = 1
        header = lines[0].split(",")
        del header[draw(st.sampled_from([1, 2, 3] + list(range(5, len(header)))))]
        lines[0] = ",".join(header)
    data = ("\n".join(lines) + "\n").encode()
    if kind == "bytes":
        lines[at - 1] += "\udcff"
        data = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    return data, at


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader_fuzz")


def run_cli(argv):
    """Exit code and stderr of an in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_sane(records):
    for rec in records:
        values = [rec.value(k) for k in FEATURE_KEYS]
        assert all(math.isfinite(v) and v >= 0 for v in values)


class TestReaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(lines=LINES)
    def test_dat_reader_returns_sane_records_or_ocon_error(self, fuzz_dir, lines):
        path = fuzz_dir / "any.dat"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            assert_sane(load_dataset(str(path), simple_layout()))
        except OconError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(lines=LINES, header=st.booleans())
    def test_csv_reader_returns_sane_records_or_ocon_error(self, fuzz_dir, lines, header):
        path = fuzz_dir / "any.csv"
        path.write_text("\n".join(records_csv_lines(0) * header + lines) + "\n",
                        encoding="utf-8")
        try:
            assert_sane(read_records_csv(str(path)))
        except OconError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(lines=LINES)
    def test_infer_file_reader_returns_floats_or_ocon_error(self, fuzz_dir, lines):
        path = fuzz_dir / "any.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            vectors = _read_vectors(Namespace(input=None, input_file=str(path)))
        except OconError:
            return
        assert vectors.dtype == np.float64 and vectors.ndim == 2
        assert np.isfinite(vectors).all()

    @settings(max_examples=60, deadline=None)
    @given(case=malformed_dat())
    def test_malformed_dat_is_named_by_ingest(self, fuzz_dir, case):
        data, line_no = case
        path = fuzz_dir / "bad.dat"
        path.write_bytes(data)
        with pytest.raises((MalformedRow, MissingColumn)) as err:
            load_dataset(str(path))
        assert err.value.line_no == line_no
        code, stderr = run_cli(["ingest", "--data", str(path),
                                "--out", str(fuzz_dir / "out.csv")])
        assert code == 1
        assert stderr.startswith(f"ERROR {type(err.value).__name__}: ")
        assert "Traceback" not in stderr

    @settings(max_examples=60, deadline=None)
    @given(case=malformed_records_csv())
    def test_malformed_records_csv_is_named_by_preprocess(self, fuzz_dir, case):
        data, line_no = case
        path = fuzz_dir / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(MalformedRow) as err:
            read_records_csv(str(path))
        assert err.value.line_no == line_no
        code, stderr = run_cli(["preprocess", "--records", str(path),
                                "--out", str(fuzz_dir / "out.ocm")])
        assert code == 1
        assert stderr.startswith("ERROR MalformedRow: ")
        assert "Traceback" not in stderr


def test_synthetic_full_corpus_shape(tmp_path):
    # the default synthetic corpus mirrors the real table's 1668 raw rows
    from ocon.synth import write_synth_dat
    path = str(tmp_path / "synth.dat")
    write_synth_dat(path, seed=0, zero_rate=0.04)
    records = load_dataset(path)  # default public-distribution layout
    assert len(records) == 1668
    kept, dropped = filter_usable(records, FeatureSetKind.TT12)
    assert len(kept) + len(dropped) == 1668
    assert dropped  # zero_rate injected some extraction failures
