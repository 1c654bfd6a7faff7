"""Balanced one-vs-rest encoding, the construction behind every binary task.

For a chosen true class the encoder keeps all its rows and draws an evenly
sized random down-sample from each of the other classes, keeping the binary
task balanced to within three samples.  The same construction drives the
3-class speaker-group task on ``speaker_view(matrix)``, the same rows
relabelled by speaker group with boys and girls pooled into a children class.
"""

import numpy as np

from ocon.balancer import build_balanced_subset
from ocon.features import FeatureSetKind, build_feature_matrix, speaker_view
from ocon.synth import synth_records

matrix, _ = build_feature_matrix(synth_records(seed=5), FeatureSetKind.SS3)
print(f"matrix: {matrix.n_rows} rows, {matrix.n_classes} phoneme classes")

subset = build_balanced_subset(matrix, true_class=7, seed=42)  # iy
print(f"\ntrue class iy: {subset.n_positive} positives, "
      f"{subset.n_negative} negatives "
      f"(|diff| = {abs(subset.n_positive - subset.n_negative)})")
print("per-false-class draw sizes:",
      {matrix.class_names[c]: len(rows)
       for c, rows in subset.negatives_by_class.items()})

# Deterministic per seed: the same seed always reproduces the same subset.
again = build_balanced_subset(matrix, true_class=7, seed=42)
print("same seed reproduces subset:", np.array_equal(subset.indices, again.indices))
other = build_balanced_subset(matrix, true_class=7, seed=43)
print("different seed redraws negatives:",
      not np.array_equal(subset.negatives, other.negatives))

# Speaker-group task: male vs (female + children), and so on.
speakers = speaker_view(matrix)
for true_class, group in enumerate(speakers.class_names):
    sub = build_balanced_subset(speakers, true_class, seed=1)
    sizes = {sub.class_names[c]: len(rows)
             for c, rows in sub.negatives_by_class.items()}
    print(f"speaker task, true={group:>8}: {sub.n_positive} positives, "
          f"draws {sizes}")
