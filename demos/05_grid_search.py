"""The staged informed grid search, desk-scale.

The full ladder sweeps topology/optimizer/learning-rate, then dropout, then
batch-norm with a learning-rate recheck, then L2 decay, inheriting the best
estimate between stages (648 / 864 / 360 / 360 training cycles at paper
scale).  Here stage 1 runs desk-scale on a synthetic corpus to stay fast;
the mechanics are identical.
"""

import warnings

from ocon.balancer import BalanceWarning
from ocon.features import FeatureSetKind, build_feature_matrix
from ocon.search import desk_scale, run_stage, stage_presets
from ocon.synth import synth_records

warnings.simplefilter("ignore", BalanceWarning)

for stage in stage_presets():
    print(f"{stage.name:<32} {stage.n_combinations:>3} combos x 12 classes "
          f"x {stage.k_folds} folds = {stage.cycle_count(12):>4} cycles")

matrix, _ = build_feature_matrix(synth_records(seed=9, men=12, women=12,
                                               boys=7, girls=5),
                                 FeatureSetKind.SS3)

stage1 = desk_scale(stage_presets()[0], factor=40)  # 2 folds, 25 epochs
print(f"\nrunning {stage1.name} desk-scale "
      f"({stage1.cycle_count(12)} cycles, epochs={stage1.epochs})")
result = run_stage(matrix, stage1, seed=0, workers=1)

print("\ntop five combinations:")
for row in result.ranked[:5]:
    hps = ", ".join(f"{k}={v}" for k, v in row.hps.items())
    print(f"  {row.mean_accuracy:6.2f}%  {hps}")

best = result.selected
print(f"\nselected: {best.hps} at {best.mean_accuracy:.2f}% mean accuracy")
print("\nthe winning values would be inherited as the next stage's fixed HPs")
