"""Config file parsing, validation, and round-trips."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from samplerank.clustering import default_cluster_count
from samplerank.config import Config, ConfigError, dump_config, load_config, parse_config_text
from samplerank.pca import fit_pca
from samplerank.pipeline import fit_models
from samplerank.synthetic import NovelClusterSpec, default_spec, generate_synthetic

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# the user-facing config keys, in dump order; a field rename must not change them
KEYS = [
    "core_embeddings", "finetune_embeddings", "out_dir",
    "pca.components", "pca.variance_threshold", "pca.fit",
    "knn.k",
    "cluster.k", "cluster.k_err", "cluster.k_ft", "cluster.iou_weight",
    "loop.k_nn", "loop.lambda", "loop.pool_core",
    "coeff.bps_a", "coeff.bps_b", "coeff.mps_a", "coeff.mps_b", "coeff.mps_c", "coeff.mps_d",
    "strategy", "seed",
    "sim.dims", "sim.core_n", "sim.ft_n", "sim.outlier_fraction", "sim.novel_sizes",
    "sim.novel_stddev", "sim.n_seeds", "sim.budgets",
]


@pytest.fixture(scope="module")
def tiny_data():
    spec = replace(default_spec(seed=3), core_n=120, ft_n=90, novel_clusters=(NovelClusterSpec(size=12),))
    core, ft, _ = generate_synthetic(spec)
    return core, ft


class TestParsing:
    def test_empty_text_gives_defaults(self):
        config = load_config(None)
        assert config.seed == 42
        assert config.sim_budgets == tuple(range(250, 2151, 100))
        assert config.bps_a == 0.75

    def test_key_value_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nseed = 7\nknn.k = 9\nloop.lambda = 2.5\nstrategy = mps\n")
        config = load_config(str(path))
        assert (config.seed, config.knn_k, config.loop_lambda, config.strategy) == (7, 9, 2.5, "mps")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("pca.rank = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("seed 7\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("seed = pi\n")

    def test_budget_range_syntax(self):
        values = parse_config_text("sim.budgets = 250:550:100\n")
        assert values["sim_budgets"] == (250, 350, 450, 550)

    def test_budget_list_syntax(self):
        values = parse_config_text("sim.budgets = 10,20,30\n")
        assert values["sim_budgets"] == (10, 20, 30)

    def test_novel_sizes_list(self):
        values = parse_config_text("sim.novel_sizes = 5,9\n")
        assert values["sim_novel_sizes"] == (5, 9)

    def test_bool_key(self):
        assert parse_config_text("loop.pool_core = true\n")["loop_pool_core"] is True
        assert parse_config_text("loop.pool_core = False\n")["loop_pool_core"] is False
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("loop.pool_core = maybe\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")


class TestValidation:
    def test_coefficient_sum_checked(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            load_config(None, {"bps_a": 0.9})

    def test_strategy_checked(self):
        with pytest.raises(ConfigError, match="strategy"):
            load_config(None, {"strategy": "entropy"})

    def test_loop_lambda_positive(self):
        with pytest.raises(ConfigError, match="lambda"):
            load_config(None, {"loop_lambda": -1.0})

    def test_outlier_fraction_range(self):
        with pytest.raises(ConfigError, match="outlier_fraction"):
            load_config(None, {"sim_outlier_fraction": 0.3})


class TestOverridesAndDump:
    def test_flag_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 7\nout_dir = /tmp/a\n")
        config = load_config(str(path), {"seed": 99})
        assert config.seed == 99 and config.out_dir == "/tmp/a"

    def test_dump_reloads_to_equivalent_config(self, tmp_path):
        original = load_config(None, {"seed": 13, "knn_k": 7, "sim_budgets": (10, 20)})
        path = tmp_path / "dump.cfg"
        path.write_text(dump_config(original))
        assert load_config(str(path)) == original

    def test_dump_mentions_every_key(self):
        text = dump_config(Config())
        for key in ("pca.components", "cluster.iou_weight", "coeff.mps_d", "sim.budgets"):
            assert f"{key} = " in text

    def test_zero_counts_select_the_default_rules(self, tiny_data):
        core, ft = tiny_data
        fitted = fit_models(core, ft, load_config(None, {"cluster_k": 4, "pca_components": 3}))
        assert fitted.reduction.n_components == 3 and fitted.clusters.core_indices.size == 4
        defaults = fit_models(core, ft, load_config(None))
        auto_rank = fit_pca(np.vstack([core.vectors(), ft.vectors()])).n_components
        assert defaults.reduction.n_components == auto_rank != 3
        assert defaults.clusters.core_indices.size == default_cluster_count(len(core)) != 4

    def test_synthetic_spec_mapping(self):
        config = load_config(None, {"sim_novel_sizes": (5, 9), "sim_ft_n": 120, "sim_core_n": 100})
        spec = config.synthetic_spec()
        assert [c.size for c in spec.novel_clusters] == [5, 9]
        assert spec.ft_n == 120 and spec.core_n == 100 and spec.seed == 42


class TestKeySurface:
    def test_keys_are_pinned_in_order(self):
        keys = [line.split(" = ")[0] for line in dump_config(Config()).splitlines()]
        assert keys == KEYS

    def test_readme_names_every_key(self):
        text = README.read_text()
        start = text.index("Config keys")
        paragraph = text[start : text.index("\n\n", start)]
        named = set(re.findall(r"`([^`]+)`", paragraph))
        assert [key for key in KEYS if key not in named] == []


class TestReadmeExample:
    def test_library_use_block_runs(self):
        text = README.read_text()
        start = text.index("```python\n", text.index("## Library use")) + len("```python\n")
        code = text[start : text.index("```", start)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
