import numpy as np
import pytest

from ocon import search
from ocon.errors import OconError, TooFewSamples
from ocon.mlp import MlpConfig
from ocon.search import SearchStage, desk_scale, run_stage, stage_presets
from ocon.training import TrainConfig, k_fold_evaluate
from ocon.util import derive_seed
from tests.test_training import blob_matrix


def tiny_stage(**overrides):
    base = dict(name="tiny",
                fixed={"hidden_layers": 1, "batch_size": 16, "batch_norm": False,
                       "dropout_keep_input": 1.0, "dropout_keep_hidden": 1.0,
                       "l2_lambda": 0.0, "optimizer": "adam"},
                grid={"hidden_nodes": [4, 8], "learning_rate": [3e-3]},
                k_folds=2, epochs=8)
    base.update(overrides)
    return SearchStage(**base)


class TestPresets:
    def test_stage_shapes_and_cycle_counts(self):
        s1, s2, s3, s4 = stage_presets()
        assert s1.n_combinations == 18
        assert s1.cycle_count(12) == 648
        assert s2.n_combinations == 12
        assert s2.cycle_count(12) == 864
        assert s3.n_combinations == 3
        assert s3.cycle_count(12) == 360
        assert s4.n_combinations == 3
        assert s4.cycle_count(12) == 360

    def test_stage1_grid_contents(self):
        s1 = stage_presets()[0]
        assert s1.grid["hidden_nodes"] == [10, 50, 100]
        assert s1.grid["optimizer"] == ["adam", "rmsprop"]
        assert s1.grid["learning_rate"] == [1e-3, 1e-4, 1e-5]
        assert s1.k_folds == 3 and s1.epochs == 1000
        assert s1.fixed["hidden_layers"] == 1
        assert s1.fixed["batch_size"] == 32

    def test_inheritance_chain(self):
        _, s2, s3, s4 = stage_presets()
        # stage 2 inherits the stage-1 winner
        assert s2.fixed["hidden_nodes"] == 100
        assert s2.fixed["optimizer"] == "adam"
        assert s2.fixed["learning_rate"] == 1e-4
        assert s2.k_folds == 6 and s2.epochs == 3000
        assert s2.grid["dropout_keep_input"] == [0.8, 0.9]
        assert s2.grid["dropout_keep_hidden"] == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        # stage 3 inherits the dropout winner and rechecks the learning rate
        assert s3.fixed["dropout_keep_input"] == 0.8
        assert s3.fixed["dropout_keep_hidden"] == 0.5
        assert s3.grid["learning_rate"] == [1e-3, 1e-4, 1e-5]
        # stage 4 sweeps the decay strength
        assert s4.fixed["batch_norm"] is True
        assert s4.grid["l2_lambda"] == [1e-2, 1e-3, 1e-4]

    def test_final_tuned_config_reflects_stage4_winner(self):
        cfg = MlpConfig.tuned(input_dim=12)
        assert cfg.l2_lambda == 1e-4
        assert cfg.hidden_layers == (100,)
        assert cfg.optimizer == "adam"
        assert cfg.learning_rate == 1e-4
        assert cfg.dropout_keep_input == 0.8
        assert cfg.dropout_keep_hidden == 0.5
        assert cfg.batch_norm is True
        assert cfg.batch_size == 32

    def test_desk_scale(self):
        s2 = stage_presets()[1]
        small = desk_scale(s2, 3)
        assert small.k_folds == 2 and small.epochs == 1000
        assert small.grid == s2.grid

    @pytest.mark.parametrize("factor", [0, -1])
    def test_desk_scale_refuses_a_factor_below_1(self, factor):
        with pytest.raises(ValueError, match="desk-scale factor must be >= 1"):
            desk_scale(stage_presets()[0], factor)


class TestStageFiles:
    def test_parse_stage_text(self, tmp_path):
        text = """
        name = custom_stage
        k_folds = 4
        epochs = 250
        fixed.hidden_layers = 1
        fixed.optimizer = adam
        grid.hidden_nodes = [10, 20]
        grid.learning_rate = [1e-3, 1e-4]
        """
        path = tmp_path / "stage.cfg"
        path.write_text(text)
        stage = SearchStage.from_file(str(path))
        assert stage.name == "custom_stage"
        assert stage.k_folds == 4 and stage.epochs == 250
        assert stage.fixed == {"hidden_layers": 1, "optimizer": "adam"}
        assert stage.n_combinations == 4

    def test_combinations_lexicographic(self):
        stage = tiny_stage(grid={"a": [1, 2], "b": ["x", "y"]})
        combos = list(stage.combinations())
        assert combos == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                          {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]


class TestRunStage:
    def test_ranked_and_selected(self):
        matrix = blob_matrix(n_per_class=40, n_classes=2, seed=7)
        result = run_stage(matrix, tiny_stage(), seed=3)
        assert len(result.rows) == 2
        ranked = result.ranked
        assert ranked[0].mean_accuracy >= ranked[1].mean_accuracy
        assert set(result.selected.hps) == {"hidden_nodes", "learning_rate"}

    def test_singleton_grid_matches_plain_kfold(self):
        matrix = blob_matrix(n_per_class=40, n_classes=2, seed=7)
        stage = tiny_stage(grid={"hidden_nodes": [6]})
        stage_seed = 11
        result = run_stage(matrix, stage, seed=stage_seed)
        row = result.rows[0]

        accs = []
        for class_id in range(2):
            cell_seed = derive_seed(stage_seed, "cell", 0, class_id)
            mlp = MlpConfig.from_hps({**stage.fixed, "hidden_nodes": 6,
                                      "seed": derive_seed(cell_seed, "init")},
                                     matrix.feature_set.dim, "hyperparameters")
            tc = TrainConfig(epochs_per_batch_set=stage.epochs, max_batch_sets=1,
                             early_stop=None, k_folds=stage.k_folds,
                             seed=derive_seed(cell_seed, "train"),
                             reencode_per_batch_set=False)
            accs.append(k_fold_evaluate(matrix, class_id, mlp, tc,
                                        k=stage.k_folds).mean_accuracy)
        assert row.mean_accuracy == pytest.approx(sum(accs) / 2)

    def test_parallel_csv_identical(self, tmp_path):
        matrix = blob_matrix(n_per_class=30, n_classes=2, seed=2)
        stage = tiny_stage()
        serial = run_stage(matrix, stage, seed=5, workers=1)
        parallel = run_stage(matrix, stage, seed=5, workers=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        serial.write_csv(str(a))
        parallel.write_csv(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fewer_combinations_than_workers_match_workers_1(self):
        # one combination on 3 workers: fan_out cuts its classes into 3 runs
        matrix = blob_matrix(n_per_class=30, n_classes=3, seed=2)
        stage = tiny_stage(grid={"hidden_nodes": [4]})
        serial = run_stage(matrix, stage, seed=5, workers=1)
        parallel = run_stage(matrix, stage, seed=5, workers=3)
        assert parallel.to_csv_text() == serial.to_csv_text()
        assert [{name: acc for name, (acc, _) in r.per_class.items()} for r in parallel.rows] == \
            [{name: acc for name, (acc, _) in r.per_class.items()} for r in serial.rows]
        assert [r.failures for r in parallel.rows] == [r.failures for r in serial.rows] == [{}]

    def test_failed_class_in_a_class_run_keeps_the_others(self, monkeypatch):
        import concurrent.futures
        plan = search.plan_k_fold

        def too_few_for_class_1(matrix, class_id, *args, **kwargs):
            if class_id == 1:
                raise TooFewSamples("no folds")
            return plan(matrix, class_id, *args, **kwargs)
        matrix = blob_matrix(n_per_class=30, n_classes=3, seed=2)
        stage = tiny_stage(grid={"hidden_nodes": [4]})
        clean = run_stage(matrix, stage, seed=5, workers=1)
        monkeypatch.setattr(search, "plan_k_fold", too_few_for_class_1)
        # threads stand in for the 3 worker processes, so they see the patch
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            concurrent.futures.ThreadPoolExecutor)
        [row] = run_stage(matrix, stage, seed=5, workers=3).rows
        assert row.failures == {"c1": "TooFewSamples"} and row.diverged
        assert row.per_class["c1"][0] == row.mean_accuracy == float("-inf")
        assert [row.per_class[c][0] for c in ("c0", "c2")] == \
            [clean.rows[0].per_class[c][0] for c in ("c0", "c2")]

    def test_each_combination_builds_one_config(self, monkeypatch):
        builds, handed = [], []
        build, run_cell = MlpConfig.from_hps, search._run_cell

        def counting(cls, *args):
            builds.append(args)
            return build(*args)

        def recording(matrix, stage, mlp_cfg, *args):
            handed.append(mlp_cfg)
            return run_cell(matrix, stage, mlp_cfg, *args)
        monkeypatch.setattr(MlpConfig, "from_hps", classmethod(counting))
        monkeypatch.setattr(search, "_run_cell", recording)
        stage = tiny_stage(grid={"hidden_nodes": [4, 8], "learning_rate": [3e-3, 1e-3]})
        run_stage(blob_matrix(n_per_class=20, n_classes=3, seed=2), stage, seed=1, workers=1)
        assert len(builds) == stage.n_combinations == 4     # not 1 + n_classes each
        assert len(handed) == 4 and all(isinstance(cfg, MlpConfig) for cfg in handed)

    def test_diverged_cell_scores_neg_inf(self):
        matrix = blob_matrix(n_per_class=20, n_classes=2, seed=2)
        matrix.values[3] = np.nan
        result = run_stage(matrix, tiny_stage(), seed=1)
        assert all(r.mean_accuracy == float("-inf") for r in result.rows)
        assert all(r.diverged for r in result.rows)
        assert all(r.failures == {name: "diverged" for name in matrix.class_names}
                   for r in result.rows)

    def test_domain_error_in_cell_ranks_last(self, monkeypatch):
        def too_few(*args, **kwargs):
            raise TooFewSamples("no folds")
        monkeypatch.setattr(search, "plan_k_fold", too_few)
        result = run_stage(blob_matrix(n_per_class=20, n_classes=2, seed=2),
                           tiny_stage(), seed=1)
        assert all(r.mean_accuracy == float("-inf") and r.diverged for r in result.rows)

    def test_failed_cell_names_its_error_outside_the_csv(self, monkeypatch):
        plan = search.plan_k_fold

        def too_few_for_class_1(matrix, class_id, *args, **kwargs):
            if class_id == 1:
                raise TooFewSamples("no folds")
            return plan(matrix, class_id, *args, **kwargs)
        matrix = blob_matrix(n_per_class=20, n_classes=2, seed=2)
        clean = run_stage(matrix, tiny_stage(), seed=1)
        monkeypatch.setattr(search, "plan_k_fold", too_few_for_class_1)
        result = run_stage(matrix, tiny_stage(), seed=1)
        first, second = matrix.class_names
        assert [r.failures for r in result.rows] == [{second: "TooFewSamples"}] * 2
        assert [r.failures for r in clean.rows] == [{}, {}]
        # the class that planned trains as it does alone; the CSV keeps its columns
        assert [r.per_class[first][0] for r in result.rows] == \
            [r.per_class[first][0] for r in clean.rows]
        header = result.to_csv_text().splitlines()[0]
        assert header == (f"rank,combo_index,hidden_nodes,learning_rate,mean_accuracy,"
                          f"diverged,acc_{first},acc_{second}")

    def test_widest_combinations_run_first(self, monkeypatch):
        order = []
        run_cell = search._run_cell

        def recording(matrix, stage, hps, combo_index, *args):
            order.append(combo_index)
            return run_cell(matrix, stage, hps, combo_index, *args)
        monkeypatch.setattr(search, "_run_cell", recording)
        stage = tiny_stage(grid={"hidden_nodes": [4, 8], "hidden_layers": [1, 2]})
        result = run_stage(blob_matrix(n_per_class=20, n_classes=2, seed=2), stage, seed=1)
        assert order == [3, 1, 2, 0]           # widths 16, 8, 8, 4; ties in grid order
        assert [row.index for row in result.rows] == [0, 1, 2, 3]
        assert [row.hps for row in result.rows] == list(stage.combinations())

    @pytest.mark.parametrize("grid, named", [
        ({"learnin_rate": [0.1, 1e-5]}, "unknown key 'learnin_rate'"),
        ({"learning_rate": ["x"]}, "learning_rate = 'x' is not of type float"),
        ({"batch_norm": ["no"]}, "batch_norm = 'no' is not of type bool"),
        ({"hidden_nodes": ["4"]}, "hidden_nodes '4' must be ints"),
        ({"seed": [1, 2]}, "not hyperparameters"),
    ], ids=["misspelt", "str_rate", "str_flag", "str_nodes", "seed"])
    def test_bad_hyperparameter_raises_before_any_cell(self, monkeypatch, grid, named):
        monkeypatch.setattr(search, "_run_cell", lambda *args: pytest.fail("a cell ran"))
        matrix = blob_matrix(n_per_class=20, n_classes=2, seed=2)
        with pytest.raises(OconError, match=named):
            run_stage(matrix, tiny_stage(grid=grid), seed=1)
        with pytest.raises(OconError, match=named):
            tiny_stage(grid=grid).configs(3)

    def test_stage_file_with_a_bad_hyperparameter_is_refused(self, tmp_path):
        path = tmp_path / "stage.cfg"
        path.write_text("grid.hidden_nodes = [4, 8]\ngrid.learnin_rate = [0.1, 1e-05]\n")
        named = f"{path}: hyperparameters: unknown key 'learnin_rate'"
        with pytest.raises(OconError, match=named):
            SearchStage.from_file(str(path))

    def test_programming_error_in_cell_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("operands could not be broadcast")
        monkeypatch.setattr(search, "plan_k_fold", broken)
        with pytest.raises(TypeError, match="broadcast"):
            run_stage(blob_matrix(n_per_class=20, n_classes=2, seed=2), tiny_stage(), seed=1)

    def test_selection_deterministic_tiebreak(self):
        from ocon.search import CombinationResult, SearchResult
        rows = [
            CombinationResult(0, {"x": 1}, 90.0, 2.0, {}, {}),
            CombinationResult(1, {"x": 2}, 95.0, 5.0, {}, {}),
            CombinationResult(2, {"x": 3}, 95.0, 3.0, {}, {}),
            CombinationResult(3, {"x": 4}, 95.0, 3.0, {}, {}),
        ]
        result = SearchResult(stage_name="t", rows=rows)
        # best accuracy, then grid order: wall-clock time does not count, so
        # the winner is rank 1 of the reproducible ranked CSV
        assert result.selected.index == 1
        assert [r.index for r in result.ranked] == [1, 2, 3, 0]
        assert result.selected is result.ranked[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tie_picks_the_same_winner_whatever_the_times(self, monkeypatch, workers):
        import concurrent.futures

        def forged(matrix, stage, mlp_cfg, combo_index, stage_seed, class_ids):
            # every cell scores 50 %; later combinations claim to train faster
            return [(50.0, 1.0 / (1 + combo_index + workers), None) for _ in class_ids]
        monkeypatch.setattr(search, "_run_cell", forged)
        # threads stand in for the worker processes, so they see the patch
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            concurrent.futures.ThreadPoolExecutor)
        stage = tiny_stage(grid={"hidden_nodes": [4, 8], "learning_rate": [3e-3, 1e-3]})
        result = run_stage(blob_matrix(n_per_class=20, n_classes=2, seed=2), stage,
                           seed=1, workers=workers)
        assert result.rows[-1].mean_time < result.rows[0].mean_time
        assert result.selected.index == 0 and result.selected is result.ranked[0]

    def test_stage_where_nothing_scored_raises_search_failed(self):
        from ocon.errors import SearchFailed
        matrix = blob_matrix(n_per_class=20, n_classes=2, seed=2)
        matrix.values[3] = np.nan
        result = run_stage(matrix, tiny_stage(), seed=1)
        with pytest.raises(SearchFailed, match=r"stage tiny: no combination scored \(diverged\)"):
            result.selected
