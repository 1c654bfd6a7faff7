"""Synthetic /hVd/ corpus with plausible vowel formants.

Demos and desk-scale tests need measurement files with the real corpus
shape: 12 vowels, four speaker groups, F0 plus F1..F3 tracks, occasional
zeroed cells from upstream extraction failures.  Values are drawn around
published adult-male vowel formant averages, scaled per speaker group, with
per-speaker and per-utterance variation.  This is stand-in data for
exercising the pipeline, not a substitute for the real measurements.
"""

import math
from itertools import product
from operator import attrgetter

import numpy as np

from .dataset import ARPABET_CODES, FEATURE_KEYS, FeatureRecord, PhonemeLabel, SpeakerGroup

# Steady-state (F1, F2, F3) means in Hz for adult male speakers.
_MALE_FORMANTS = {
    "ae": (588, 1952, 2601), "ah": (768, 1333, 2522), "aw": (652, 997, 2538),
    "eh": (580, 1799, 2605), "er": (474, 1379, 1710), "ei": (476, 2089, 2691),
    "ih": (427, 2034, 2684), "iy": (342, 2322, 3000), "oa": (497, 910, 2459),
    "oo": (469, 1122, 2434), "uh": (623, 1200, 2550), "uw": (378, 997, 2343),
}

# F2 drift per unit time for the diphthongized vowels, as a fraction of SS.
_F2_SLOPE = {"ei": 0.18, "oa": -0.14, "aw": -0.08, "uw": -0.05}

# Per speaker group: formant scale and F0 mean in Hz.
_GROUPS = {SpeakerGroup.MAN: (1.00, 131.0), SpeakerGroup.WOMAN: (1.15, 220.0),
           SpeakerGroup.BOY: (1.22, 237.0), SpeakerGroup.GIRL: (1.28, 242.0)}

_TRACK_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

# Standard normals per utterance, in draw order: SS lognormals, drift
# curvature normals, one lognormal per track fraction and formant, F0 lognormal.
_SIGMAS = np.array([0.05] * 3 + [0.015] * 3 + [0.015] * 3 * len(_TRACK_FRACTIONS) + [0.04])


def _exp(x):  # libm's exp, elementwise: np.exp rounds some values differently
    return np.fromiter(map(math.exp, x.flat), np.float64, x.size).reshape(x.shape)


def synth_records(seed=0, men=45, women=48, boys=27, girls=19, zero_rate=0.0):
    """Generate one utterance per (speaker, vowel); optionally zero out a
    random required field on a ``zero_rate`` fraction of rows.  A lognormal is
    ``exp(sigma * z)`` of a standard normal z, as numpy's own draw computes it."""
    counts = {SpeakerGroup.MAN: men, SpeakerGroup.WOMAN: women,
              SpeakerGroup.BOY: boys, SpeakerGroup.GIRL: girls}
    if not 0 <= min(counts.values()) <= max(counts.values()) <= 99 or not 0.0 <= zero_rate <= 1.0:
        raise ValueError(f"counts {[*counts.values()]} not in 0..99 (2-digit speaker "
                         f"numbers) or zero_rate {zero_rate} not in [0, 1]")
    rng = np.random.default_rng(seed)
    speakers = [(group, no) for group, n in counts.items() for no in range(1, n + 1)]
    speaker_z = np.empty((len(speakers), 2))
    noise = np.empty((len(speakers), len(ARPABET_CODES), len(_SIGMAS)))
    zeroed = []
    for s in range(len(speakers)):
        rng.standard_normal(out=speaker_z[s])
        for v in range(len(ARPABET_CODES)):
            rng.standard_normal(out=noise[s, v])
            if zero_rate > 0 and rng.random() < zero_rate:
                zeroed.append((s, v, FEATURE_KEYS.index(rng.choice(FEATURE_KEYS))))
    group_scale_f0 = np.array([_GROUPS[g] for g, _ in speakers]).reshape(-1, 1, 2)
    speaker_scale_f0 = _exp(speaker_z * [0.04, 0.08])[:, None, :]
    noise *= _SIGMAS
    lognormal = _exp(noise)
    ss = (np.array([_MALE_FORMANTS[code] for code in ARPABET_CODES], dtype=np.float64)
          * group_scale_f0[..., :1] * speaker_scale_f0[..., :1] * lognormal[..., 0:3])
    slope = np.array([(0.0, _F2_SLOPE.get(code, 0.0), 0.0) for code in ARPABET_CODES])
    tracks = []  # at 10 %, 50 % and 80 %
    for k in (0, 4, 7):
        dt = _TRACK_FRACTIONS[k] - 0.45
        drift = 1.0 + slope * dt + noise[..., 3:6] * dt * dt
        tracks.append(ss * drift * lognormal[..., 6 + 3 * k:9 + 3 * k])
    f0 = group_scale_f0[..., 1] * speaker_scale_f0[..., 1] * lognormal[..., -1]
    values = np.stack([f0] + [x[..., i] for i in range(3)
                              for x in (tracks[0], tracks[1], ss, tracks[2])], axis=-1)
    del noise, lognormal  # free the draws before the records take memory
    for cell in zeroed:
        values[cell] = 0.0
    labels = [PhonemeLabel.from_id(label_id) for label_id in range(len(ARPABET_CODES))]
    return [FeatureRecord(group, no, label, *row) for ((group, no), label), row
            in zip(product(speakers, labels), values.reshape(-1, len(FEATURE_KEYS)).tolist())]


def write_synth_dat(path, seed=0, zero_rate=0.0, **counts):
    """Write a synthetic measurement file in the public distribution's column
    layout (43 header lines, then filename + 29 integer columns)."""
    records = synth_records(seed=seed, zero_rate=zero_rate, **counts)
    records_to_dat(records, path, seed=seed + 1)
    return records


def records_to_dat(records, path, seed=0):
    """Serialize records into the public distribution's column layout.  Cells
    round half to even; NaN raises ``ValueError``, infinity ``OverflowError``
    and an unwritable name ``MalformedFilename``, before the file is opened."""
    rng = np.random.default_rng(seed)
    durations = np.maximum(80, rng.normal(250, 40, size=len(records)).astype(np.int64))
    col = {key: np.fromiter(map(attrgetter(key), records), np.float64, len(records))
           for key in FEATURE_KEYS}
    cols = [col["f0_ss"]] + [col[f"{fmt}_ss"] for fmt in ("f1", "f2", "f3")]
    # tracks at 10%..80%; the fractions not modeled blend the modeled ones
    known = {0.1: "10", 0.5: "50", 0.8: "80"}
    for frac, fmt in product(_TRACK_FRACTIONS, ("f1", "f2", "f3")):
        lo, hi, span = (0.1, 0.5, 0.4) if frac < 0.5 else (0.5, 0.8, 0.3)
        a, b, w = col[f"{fmt}_{known[lo]}"], col[f"{fmt}_{known[hi]}"], (frac - lo) / span
        cols.append(col[f"{fmt}_{known[frac]}"] if frac in known
                    else np.where((a == 0) | (b == 0), 0.0, (1 - w) * a + w * b))
    table = np.rint(np.column_stack(cols))
    lines = [f"{rec.filename} {duration} {' '.join(map(str, map(int, row.tolist())))}\n"
             for rec, duration, row in zip(records, durations.tolist(), table)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("Synthetic /hVd/ measurement table\n" + "#\n" * 42)
        fh.writelines(lines)
    return records
