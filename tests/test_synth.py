"""The synthetic corpus generator: pinned bytes and refused arguments.

Every workload, fixture and demo runs on ``synth_records``/``write_synth_dat``
output, so the records and the ``.dat`` bytes are pinned here directly; a
rewrite of the generator must reproduce them exactly.
"""

import dataclasses
import hashlib
import math

import pytest

from ocon import synth
from ocon.errors import MalformedFilename
from ocon.synth import records_to_dat, synth_records, write_synth_dat
from ocon.util import sha256_file

# sha256 of repr(synth_records(**kwargs)); float reprs round-trip exactly
RECORD_DIGESTS = {
    "seed11": (dict(seed=11),
               "3b2b6913d633439cc1b6e1399fe2b57f7edfb8fdd72650ef8ea3af03e6e6fe4f"),
    "seed0_zero_rate": (dict(seed=0, zero_rate=0.04),
                        "429c404aaa09a53dc33d582cdcce3b494446a3998e4d072af8283bed17585885"),
}

# case -> (write_synth_dat kwargs, rows, sha256 of the file)
DAT_DIGESTS = {
    "seed11": (dict(seed=11), 1668,
               "924973a111684ad077d596ef4aff12d49118b61f52dbe920b76ec9a6acd141ea"),
    "seed0_zero_rate": (dict(seed=0, zero_rate=0.04), 1668,
                        "a30ee76f4e39c4e112563a9593bb96d95aa3d411766c66b4aa093ded894b20da"),
    "no_women": (dict(seed=5, women=0), 1092,
                 "af487157cffb56e9214c0aab0eae51d0dddb13adea3830607a88245936358e98"),
    "no_speakers": (dict(seed=7, men=0, women=0, boys=0, girls=0), 0,
                    "df8334345c2ac1bd9f6537351cb415ab7d0f8f780e1fb6759a9d5b3ba95cd4d0"),
    "zero_rate_1": (dict(seed=8, zero_rate=1.0, men=5, women=5, boys=5, girls=5), 240,
                    "4ffc05e185e20095e97efd01620599b4dd872b178757783f8601d61d3457bfd6"),
}


@pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
def test_records_are_pinned(name):
    kwargs, pinned = RECORD_DIGESTS[name]
    assert hashlib.sha256(repr(synth_records(**kwargs)).encode()).hexdigest() == pinned


@pytest.mark.parametrize("name", sorted(DAT_DIGESTS))
def test_dat_bytes_are_pinned(tmp_path, name):
    kwargs, rows, pinned = DAT_DIGESTS[name]
    path = str(tmp_path / "synth.dat")
    records = write_synth_dat(path, **kwargs)
    assert len(records) == rows
    with open(path, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 43 + rows
    assert sha256_file(path) == pinned


@pytest.mark.parametrize("value, error", [
    (math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError),
])
@pytest.mark.parametrize("field", ["f0_ss", "f2_50", "f3_80"])
def test_non_finite_cell_raises(tmp_path, field, value, error):
    records = synth_records(seed=4, men=1, women=0, boys=0, girls=0)
    records[2] = dataclasses.replace(records[2], **{field: value})
    with pytest.raises(error):
        records_to_dat(records, str(tmp_path / "bad.dat"))


@pytest.mark.parametrize("kwargs", [
    dict(men=-1), dict(girls=-3), dict(zero_rate=-0.01), dict(zero_rate=1.5),
    dict(zero_rate=2), dict(zero_rate=math.nan),
])
def test_bad_arguments_are_refused(kwargs):
    with pytest.raises(ValueError):
        synth_records(seed=1, **kwargs)


@pytest.mark.parametrize("kwargs", [dict(men=100), dict(girls=250)])
def test_unwritable_speaker_count_is_refused_before_any_draw(monkeypatch, tmp_path, kwargs):
    monkeypatch.setattr(synth.np.random, "default_rng", lambda seed: pytest.fail("drew"))
    with pytest.raises(ValueError, match="not in 0..99"):
        write_synth_dat(str(tmp_path / "big.dat"), seed=1, **kwargs)
    assert not (tmp_path / "big.dat").exists()


@pytest.mark.parametrize("change, error", [
    (dict(f2_50=math.nan), ValueError), (dict(f3_80=-math.inf), OverflowError),
    (dict(speaker_no=100), MalformedFilename),
], ids=["nan", "inf", "speaker_no"])
def test_unwritable_record_leaves_no_file(tmp_path, change, error):
    records = synth_records(seed=4, men=1, women=0, boys=0, girls=0)
    records[-1] = dataclasses.replace(records[-1], **change)
    path = tmp_path / "bad.dat"
    with pytest.raises(error):
        records_to_dat(records, str(path))
    assert not path.exists()
