import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocon import container
from ocon.dataset import ARPABET_CODES, ColumnLayout, filter_usable, load_dataset
from ocon.errors import ConstantColumn, CorruptPayload, DimensionMismatch, UnusableRecord, VersionMismatch
from ocon.features import (
    MATRIX_KIND,
    MATRIX_VERSION,
    FeatureSetKind,
    build_feature_matrix,
    fit_minmax,
    load_matrix,
    normalize_by_f0,
    ratio_matrix,
    save_matrix,
)
from tests.conftest import hgcw_data_path
from tests.test_dataset import make_record


class TestFeatureSetKind:
    def test_dimensionalities(self):
        assert FeatureSetKind.SS3.dim == 3
        assert FeatureSetKind.SS4.dim == 4
        assert FeatureSetKind.TT12.dim == 12

    def test_tt12_component_order_formant_major(self):
        assert FeatureSetKind.TT12.ratio_keys == (
            "f1_10", "f1_50", "f1_ss", "f1_80",
            "f2_10", "f2_50", "f2_ss", "f2_80",
            "f3_10", "f3_50", "f3_ss", "f3_80")


class TestNormalizeByF0:
    def test_exact_division(self):
        rec = make_record(f0_ss=100.0, f1_ss=500.0, f2_ss=1500.0, f3_ss=2500.0)
        out = normalize_by_f0(rec, FeatureSetKind.SS3)
        assert out.tolist() == [5.0, 15.0, 25.0]

    def test_identity_ratio(self):
        rec = make_record(**{k: 123.0 for k in
                             ("f0_ss", "f1_ss", "f2_ss", "f3_ss")})
        out = normalize_by_f0(rec, FeatureSetKind.SS3)
        assert out.tolist() == [1.0, 1.0, 1.0]

    def test_high_vowel_ordering(self, synth_corpus):
        # for /iy/ the second formant ratio dominates the first
        iy_men = [r for r in synth_corpus
                  if r.phoneme.arpabet == "iy" and r.group.value == "m"]
        out = normalize_by_f0(iy_men[0], FeatureSetKind.SS3)
        assert out[1] > out[0]

    def test_high_vowel_ordering_real_data(self):
        path = hgcw_data_path()
        if path is None:
            pytest.skip("real measurement file not available")
        records = load_dataset(path, ColumnLayout.hgcw_bigdata())
        rec = next(r for r in records
                   if r.phoneme.arpabet == "iy" and r.group.value == "m"
                   and r.f0_ss > 0 and r.f1_ss > 0 and r.f2_ss > 0 and r.f3_ss > 0)
        out = normalize_by_f0(rec, FeatureSetKind.SS3)
        assert out[1] > out[0]

    def test_unusable_record(self):
        rec = make_record(f1_ss=0.0)
        with pytest.raises(UnusableRecord):
            normalize_by_f0(rec, FeatureSetKind.SS3)

    @pytest.mark.parametrize("f0", [5e-324, 1e-320, 1e-306])
    def test_tiny_f0_overflows_to_unusable(self, f0):
        with pytest.raises(UnusableRecord, match="non-finite F0 ratio"):
            normalize_by_f0(make_record(f0_ss=f0), FeatureSetKind.TT12)
        assert np.isfinite(normalize_by_f0(make_record(f0_ss=1e-300), FeatureSetKind.TT12)).all()

    def test_ss4_appends_f0_channel(self):
        rec = make_record(f0_ss=100.0, f1_ss=500.0, f2_ss=1500.0, f3_ss=2500.0)
        raw = normalize_by_f0(rec, FeatureSetKind.SS4)
        assert raw.tolist() == [5.0, 15.0, 25.0, 100.0]

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, c):
        rec = make_record(f0_ss=110.0, f1_ss=430.0, f2_ss=1790.0, f3_ss=2650.0)
        scaled = make_record(f0_ss=110.0 * c, f1_ss=430.0 * c,
                             f2_ss=1790.0 * c, f3_ss=2650.0 * c)
        a = normalize_by_f0(rec, FeatureSetKind.SS3)
        b = normalize_by_f0(scaled, FeatureSetKind.SS3)
        assert np.allclose(a, b, rtol=1e-12, atol=0)


class TestRatioMatrix:
    @pytest.mark.parametrize("kind", list(FeatureSetKind))
    def test_rows_equal_per_record_division(self, synth_corpus, kind):
        kept, _ = filter_usable(synth_corpus, kind)
        matrix = ratio_matrix(kept, kind)
        reference = np.array([[rec.value(k) / rec.f0_ss for k in kind.ratio_keys]
                              + ([rec.f0_ss] if kind is FeatureSetKind.SS4 else [])
                              for rec in kept])
        stacked = np.stack([normalize_by_f0(rec, kind) for rec in kept])
        for other in (reference, stacked):
            assert np.array_equal(matrix.view(np.uint64), other.view(np.uint64))

    @pytest.mark.parametrize("bad, reason", [
        ({"f2_50": 0.0}, "non-positive required fields"),
        ({"f0_ss": -5.0}, "non-positive required fields"),
        ({"f0_ss": 1e-320}, "a non-finite F0 ratio"),
        ({"f0_ss": 5e-324, "f1_10": 0.0}, "non-positive required fields")])
    def test_first_unusable_record_named_without_warnings(self, bad, reason):
        records = [make_record(speaker=s) for s in range(1, 6)]
        records[2] = make_record(speaker=3, **bad)
        records[4] = make_record(speaker=5, f0_ss=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked RuntimeWarning would raise here
            with pytest.raises(UnusableRecord, match=f"record m03ae has {reason}"):
                ratio_matrix(records, FeatureSetKind.TT12)
            with pytest.raises(UnusableRecord, match=f"record m03ae has {reason}"):
                normalize_by_f0(records[2], FeatureSetKind.TT12)


class TestMinMax:
    def test_fit_simple_column(self):
        scaling = fit_minmax(np.array([[2.0], [4.0], [6.0]]))
        assert scaling.lo[0] == 2.0 and scaling.hi[0] == 6.0

    def test_constant_column(self):
        with pytest.raises(ConstantColumn) as err:
            fit_minmax(np.array([[1.0, 7.0], [2.0, 7.0]]))
        assert err.value.index == 1

    def test_apply_endpoints_and_midpoint(self):
        scaling = fit_minmax(np.array([[2.0], [6.0]]))
        assert scaling.apply(np.array([2.0]))[0] == 0.0
        assert scaling.apply(np.array([6.0]))[0] == 1.0
        assert scaling.apply(np.array([4.0]))[0] == 0.5

    def test_clamping(self):
        scaling = fit_minmax(np.array([[2.0], [6.0]]))
        assert scaling.apply(np.array([0.0]))[0] == 0.0
        assert scaling.apply(np.array([60.0]))[0] == 1.0

    def test_dimension_mismatch(self):
        scaling = fit_minmax(np.array([[2.0], [6.0]]))
        with pytest.raises(DimensionMismatch):
            scaling.apply(np.array([1.0, 2.0]))

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_fit_data_hits_exact_unit_interval(self, n, d, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d)) * rng.uniform(0.5, 20.0, size=d)
        data[0] += 1e-3 * np.arange(d)  # avoid degenerate constant columns
        try:
            scaling = fit_minmax(data)
        except ConstantColumn:
            return
        scaled = scaling.apply(data)
        assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)
        assert np.allclose(scaled.min(axis=0), 0.0)
        assert np.allclose(scaled.max(axis=0), 1.0)

    def test_real_ratio_matrix_has_positive_mins(self):
        path = hgcw_data_path()
        if path is None:
            pytest.skip("real measurement file not available")
        records = load_dataset(path, ColumnLayout.hgcw_bigdata())
        matrix, _ = build_feature_matrix(records, FeatureSetKind.TT12)
        assert matrix.scaling.dim == 12
        assert np.all(matrix.scaling.lo > 0)


class TestBuildFeatureMatrix:
    def test_labels_groups_and_unit_range(self, synth_corpus):
        matrix, dropped = build_feature_matrix(synth_corpus, FeatureSetKind.TT12)
        assert matrix.values.shape == (len(synth_corpus) - len(dropped), 12)
        assert np.all(matrix.values >= 0) and np.all(matrix.values <= 1)
        assert set(np.unique(matrix.labels)) == set(range(12))
        assert set(np.unique(matrix.groups)) <= {0, 1, 2, 3}

    def test_tiny_f0_row_raises_instead_of_writing_nan(self, synth_corpus):
        kept, _ = filter_usable(synth_corpus, FeatureSetKind.TT12)
        records = list(synth_corpus)
        at = records.index(kept[5])
        records[at] = replace(records[at], f0_ss=1e-320)
        with pytest.raises(UnusableRecord, match=records[at].filename):
            build_feature_matrix(records, FeatureSetKind.TT12)

    def test_infinite_ss4_f0_raises(self, synth_corpus):
        # its ratios are all 0.0 and pass ratio_matrix; the raw F0 channel
        # then scales to NaN, which the scaled-matrix check refuses
        kept, _ = filter_usable(synth_corpus, FeatureSetKind.SS4)
        records = list(synth_corpus)
        at = records.index(kept[5])
        records[at] = replace(records[at], f0_ss=np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(UnusableRecord, match="not finite"):
            build_feature_matrix(records, FeatureSetKind.SS4)


class TestMatrixSerialization:
    def test_roundtrip_bitwise(self, tmp_path, synth_matrix):
        path = tmp_path / "matrix.ocm"
        save_matrix(synth_matrix, str(path))
        back = load_matrix(str(path))
        assert np.array_equal(
            back.values.view(np.uint64), synth_matrix.values.view(np.uint64))
        assert np.array_equal(back.labels, synth_matrix.labels)
        assert np.array_equal(back.groups, synth_matrix.groups)
        assert back.feature_set is synth_matrix.feature_set
        assert np.array_equal(back.scaling.lo.view(np.uint64),
                              synth_matrix.scaling.lo.view(np.uint64))

    def test_other_scaling_mode_is_corrupt(self, tmp_path, synth_matrix):
        # a z-score matrix read as min-max would be scaled silently wrong
        path = str(tmp_path / "matrix.ocm")
        save_matrix(synth_matrix, path)
        _, meta, arrays = container.read_container(path, MATRIX_KIND, MATRIX_VERSION)
        assert meta["scaling_mode"] == "minmax"
        container.write_container(path, MATRIX_KIND, MATRIX_VERSION,
                                  {**meta, "scaling_mode": "zscore"}, arrays)
        with pytest.raises(CorruptPayload, match="zscore"):
            load_matrix(path)

    def test_truncated_file(self, tmp_path, synth_matrix):
        path = tmp_path / "matrix.ocm"
        save_matrix(synth_matrix, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptPayload):
            load_matrix(str(path))

    def test_future_version_byte(self, tmp_path, synth_matrix):
        import struct
        import zlib
        path = tmp_path / "matrix.ocm"
        save_matrix(synth_matrix, str(path))
        blob = bytearray(path.read_bytes())
        blob[24] = 99  # version byte sits after the 8-byte magic + 16-byte kind
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_matrix(str(path))

    def test_flipped_bit_fails_checksum(self, tmp_path, synth_matrix):
        path = tmp_path / "matrix.ocm"
        save_matrix(synth_matrix, str(path))
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptPayload):
            load_matrix(str(path))

    def rewrite(self, tmp_path, matrix, meta=None, arrays=None):
        """A saved ``matrix`` with metadata or arrays replaced."""
        path = str(tmp_path / "matrix.ocm")
        save_matrix(matrix, path)
        _, saved_meta, saved_arrays = container.read_container(path, MATRIX_KIND, MATRIX_VERSION)
        container.write_container(path, MATRIX_KIND, MATRIX_VERSION, {**saved_meta, **(meta or {})},
                                  {**saved_arrays, **(arrays or {})})
        return path

    @pytest.mark.parametrize("names", ["".join(ARPABET_CODES), list(range(12)),
                                       [*ARPABET_CODES[:11], None]])
    def test_class_names_not_a_list_of_strings_is_corrupt(self, tmp_path, synth_matrix, names):
        # a string would load as one class per character, and integer names
        # would train a bank that load_ensemble refuses
        path = self.rewrite(tmp_path, synth_matrix, meta={"class_names": names})
        with pytest.raises(CorruptPayload, match="class_names"):
            load_matrix(path)

    @pytest.mark.parametrize("arrays", [
        lambda m: {"labels": m.labels[:-1]},
        lambda m: {"groups": m.groups[:-1]},
        lambda m: {"values": m.values[:, :-1]},
        lambda m: {"scaling_lo": m.scaling.lo[:-1], "scaling_hi": m.scaling.hi[:-1]},
    ], ids=["labels_length", "groups_length", "width", "scaling_width"])
    def test_misshapen_arrays_are_corrupt_and_name_the_file(self, tmp_path, synth_matrix,
                                                             arrays):
        path = self.rewrite(tmp_path, synth_matrix, arrays=arrays(synth_matrix))
        with pytest.raises(CorruptPayload, match=re.escape(path)):
            load_matrix(path)
