"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, parse_nodes


def test_catalog_lists_everything(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "A100-40" in out
    assert "a2-highgpu-4g" in out
    assert "OPT-350M" in out


def test_catalog_kind_filter(capsys):
    assert main(["catalog", "--kind", "models"]) == 0
    out = capsys.readouterr().out
    assert "OPT-350M" in out
    assert "a2-highgpu-4g" not in out


def test_parse_nodes_builds_topology():
    topology = parse_nodes(["us-central1-a:a2-highgpu-4g:2",
                            "us-central1-a:n1-standard-v100-4:1",
                            "us-west1-a:a2-highgpu-4g:1"])
    assert topology.node_count("us-central1-a", "a2-highgpu-4g") == 2
    assert topology.total_gpus() == 16
    with pytest.raises(SystemExit):
        parse_nodes(["bad-spec"])
    with pytest.raises(SystemExit):
        parse_nodes(["zone:no-such-node:2"])
    with pytest.raises(SystemExit):
        parse_nodes(["zone:a2-highgpu-4g:two"])


def test_plan_and_simulate_roundtrip(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    result_path = tmp_path / "result.json"
    code = main([
        "plan", "--model", "OPT-350M", "--global-batch-size", "256",
        "--nodes", "us-central1-a:a2-highgpu-4g:4",
        "--objective", "throughput",
        "--output", str(plan_path), "--result-output", str(result_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimated throughput" in out
    assert plan_path.exists() and result_path.exists()
    document = json.loads(plan_path.read_text())
    assert document["job"]["model"] == "OPT-350M"

    code = main(["simulate", "--plan", str(plan_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations" in out or "iters/s" in out


def test_plan_reports_search_stats(capsys):
    code = main([
        "plan", "--model", "OPT-350M", "--global-batch-size", "256",
        "--nodes", "us-central1-a:a2-highgpu-4g:2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "search stats" in out
    assert "nodes=" in out


def test_plan_accepts_workers_flag(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    code = main([
        "plan", "--model", "OPT-350M", "--global-batch-size", "256",
        "--nodes", "us-central1-a:a2-highgpu-4g:2",
        "--workers", "2", "--result-output", str(result_path),
    ])
    assert code == 0
    document = json.loads(result_path.read_text())
    assert "parallel" in document["notes"]
    assert document["search_stats"]["nodes_explored"] > 0


def test_plan_with_impossible_constraint_fails(capsys):
    code = main([
        "plan", "--model", "OPT-350M", "--global-batch-size", "256",
        "--nodes", "us-central1-a:a2-highgpu-4g:1",
        "--objective", "cost", "--min-throughput", "1000",
    ])
    assert code == 1
    assert "no valid plan" in capsys.readouterr().out


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["plan", "--model", "GPT-17T",
              "--nodes", "us-central1-a:a2-highgpu-4g:1"])


@pytest.mark.parametrize("flag,objective", [("--max-cost", "throughput"),
                                            ("--min-throughput", "cost")])
@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_invalid_objective_cap_rejected(monkeypatch, flag, objective, value):
    """A non-positive or NaN cap exits with a one-line message before the
    environment is profiled."""
    import repro.cli as cli

    def no_profiling(*args, **kwargs):
        raise AssertionError("environment built for an invalid objective")

    monkeypatch.setattr(cli, "build_environment", no_profiling)
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "--model", "OPT-350M",
              "--nodes", "us-central1-a:a2-highgpu-4g:1",
              "--objective", objective, flag, value])
    message = str(excinfo.value.code)
    assert message.startswith("invalid objective:")
    assert "\n" not in message


def test_experiment_subcommand_runs(capsys):
    assert main(["experiment", "figure2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
