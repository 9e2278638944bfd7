"""Tests for the CLI, ASCII visualization and reporting helpers."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.reporting import format_series, format_table
from repro.experiments.viz import render_fidelity_strip, render_field


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table("T", ["col", "value"], [("a", 1.0), ("bb", 22)])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]
        assert "1.000" in table
        assert "22" in table

    def test_format_table_empty_rows(self):
        table = format_table("Empty", ["x"], [])
        assert "Empty" in table
        assert "x" in table

    def test_format_series_bars(self):
        text = format_series("S", [(1, 1.0), (2, 0.0)], width=10)
        lines = text.splitlines()
        assert "#" * 10 in lines[2]
        assert "#" not in lines[3]

    def test_format_series_clamps(self):
        text = format_series("S", [(1, 2.0), (2, -1.0)], width=10)
        assert "#" * 10 in text  # clamped to 1.0


class TestViz:
    def test_render_fidelity_strip_wraps(self):
        series = [(k, 1.0) for k in range(1, 131)]
        strip = render_fidelity_strip(series, width=60)
        lines = strip.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("k=   1")
        assert lines[2].startswith("k= 121")

    def test_render_fidelity_strip_levels(self):
        strip = render_fidelity_strip([(1, 0.0), (2, 0.5), (3, 1.0)])
        assert strip.endswith("#")

    def test_render_field_contains_nodes_and_legend(self, sim):
        from .conftest import line_positions, make_network

        network = make_network(sim, line_positions(5, 100.0), region_side=500.0)
        network.apply_backbone([0, 2, 4])
        art = render_field(network, width=50)
        assert "O" in art
        assert "." in art
        assert "legend" in art

    def test_render_field_with_path_area_user(self, sim):
        from repro.geometry.vec import Vec2
        from repro.mobility.path import PiecewisePath
        from repro.core.query import QuerySpec
        from .conftest import line_positions, make_network

        network = make_network(sim, line_positions(5, 100.0), region_side=500.0)
        network.apply_backbone([0, 2, 4])
        path = PiecewisePath.from_velocity(Vec2(50, 250), Vec2(2, 0), 0.0, 100.0)
        spec = QuerySpec(radius_m=120.0, lifetime_s=100.0)
        art = render_field(
            network,
            width=50,
            path=path,
            area=spec.area_at(Vec2(100, 250)),
            user=Vec2(50, 250),
        )
        assert "U" in art
        assert "*" in art
        assert ":" in art


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_rejects_bad_fig(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "3"])

    def test_analysis_command(self, capsys):
        assert main(["analysis"]) == 0
        out = capsys.readouterr().out
        assert "vprfh (mph)" in out
        assert "v* (mph)" in out

    def test_topology_command(self, capsys):
        assert main(["topology", "--seed", "1", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "backbone:" in out
        assert "legend" in out

    def test_run_command_idle(self, capsys):
        assert main(["run", "--mode", "idle", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "idle run" in out

    def test_run_command_jit_short(self, capsys):
        assert main(["run", "--mode", "jit", "--duration", "12", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "success ratio" in out
        assert "fidelity per period" in out


    def test_run_on_a_cluster_prints_what_the_cluster_scores(self, capsys):
        """``run --shards N`` exited 2 from PR 7 until PR 16 (it read
        ``handle.result()`` after ``close()`` had sealed the handles)."""
        assert main(["run", "--users", "4", "--shards", "2", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "shards=2 partitioner=balanced-kd users=4" in out
        rows = [line.split() for line in out.splitlines()
                if line[:5].strip().isdigit()]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]

        from repro.api.config import ExperimentConfig
        from repro.cluster import ClusterService
        from repro.experiments.runner import legacy_requests
        from repro.sim.rng import RandomStreams

        config = ExperimentConfig(duration_s=20.0, num_users=4)
        cluster = ClusterService(config, shards=2)
        for request in legacy_requests(config, RandomStreams(config.seed)):
            cluster.submit(request)
        ratios = cluster.close().success_ratios()
        assert [row[3] for row in rows] == [f"{r:.1%}" for r in ratios]


class TestBenchCommandRetired:
    """Speed is measured by ``python3 -m bench`` alone; ``repro`` has no bench."""

    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_help_lists_no_bench(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "bench" not in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_scenario_short(self, capsys, tmp_path):
        out_path = str(tmp_path / "prof.out")
        assert main([
            "profile", "fig4_jit", "--duration", "10", "--top", "5",
            "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "function calls" in out  # pstats header
        assert f"raw profile written to {out_path}" in out
        assert (tmp_path / "prof.out").exists()

    def test_profile_unknown_scenario(self, capsys):
        assert main(["profile", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "fig4_jit" in err  # error lists the valid names

    def test_profile_bad_sort_key(self, capsys, tmp_path):
        out_path = str(tmp_path / "prof.out")
        assert main([
            "profile", "fig4_jit", "--duration", "5", "--sort", "bogus",
            "--out", out_path,
        ]) == 2
        assert "invalid --sort key" in capsys.readouterr().err

    def test_profile_rejects_nonpositive_top(self, capsys):
        assert main(["profile", "fig4_jit", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_profile_bad_duration_clean_error(self, capsys):
        assert main(["profile", "fig4_jit", "--duration", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro profile: error:")
