import re

import pytest

import blocksca.cli
import blocksca.harness
from blocksca.cli import main
from blocksca.harness import RunConfig, read_trace_csv
from blocksca.repro import TOPOLOGIES, repro_paper

QUICK_BLOCKS = (1, 2)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("repro")
    return outdir, repro_paper(outdir, blocks=QUICK_BLOCKS, quick=True)


def output_files(outdir):
    return {p.relative_to(outdir): p.read_bytes() for p in sorted(outdir.rglob("*")) if p.is_file()}


def first_below_tol(path, tol=1e-3):
    """t of the first trace row with J below tol, or None."""
    _, cols = read_trace_csv(path)
    return next((t for t, j in zip(cols["t"], cols["J"]) if j < tol), None)


def test_reference_parameters_match_reported_experiment():
    cfg = RunConfig()
    assert cfg.n_agents == 50
    assert cfg.n_vars == 500
    assert cfg.m_per_agent == 50
    assert cfg.sparsity == 0.8
    assert cfg.noise_var == 0.5
    assert cfg.box_halfwidth == 10.0
    assert cfg.lam == 0.1
    assert cfg.theta == 10.0
    assert cfg.gamma0 == 0.1
    assert cfg.mu == 1e-4
    taus = {tau for _, _, tau in TOPOLOGIES}
    assert taus == {1.0, 5.0}


def test_repro_quick_smoke(quick_run):
    outdir, report = quick_run
    assert "topology dense" in report
    assert "topology sparse" in report
    assert "headline (poorly connected) sweep:" in report
    for name in ("dense", "sparse"):
        assert (outdir / f"summary_{name}.csv").exists()
        svg = (outdir / f"fig_convergence_{name}.svg").read_text(encoding="utf-8")
        # one solid/dashed pair per block count plus the baseline pair
        assert svg.count("<polyline") == 2 * 3
    assert (outdir / "fig_completion_vs_blocks.svg").exists()


def test_repro_report_and_summaries_match_written_traces(quick_run):
    outdir, report = quick_run
    sections = report.split("topology ")[1:]
    assert [s.split(":")[0] for s in sections] == [name for name, _, _ in TOPOLOGIES]
    for name, section in zip((name for name, _, _ in TOPOLOGIES), sections):
        summary = (outdir / f"summary_{name}.csv").read_text(encoding="utf-8").splitlines()[1:]
        summary_t_end = {int(b): int(t) for b, t, _, _ in (row.split(",") for row in summary)}
        assert sorted(summary_t_end) == list(QUICK_BLOCKS)
        for n_blocks in QUICK_BLOCKS:
            (path,) = (outdir / name).glob(f"trace_B{n_blocks}_*.csv")
            t_end = first_below_tol(path)
            where = re.search(rf"\] B={n_blocks}: .*\((t/B=([^,]+)|not reached),", section)
            if t_end is None:
                assert where.group(1) == "not reached"
                assert summary_t_end[n_blocks] == -1
            else:
                assert where.group(2) == f"{t_end / n_blocks:g}"
                assert summary_t_end[n_blocks] == t_end
        (path,) = (outdir / name).glob("trace_baseline_*.csv")
        t_end = first_below_tol(path)
        reached = re.search(r"baseline gradient push: t_end=(.*)", section).group(1)
        assert reached == ("not reached" if t_end is None else str(t_end))


def test_repro_solves_each_block_run_once(tmp_path, monkeypatch):
    calls = {"run_block_sca": 0, "run_gradient_push": 0}
    for name in calls:
        original = getattr(blocksca.harness, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(blocksca.harness, name, counted)
    repro_paper(tmp_path, blocks=QUICK_BLOCKS, quick=True)
    # one block run per block count and topology, one baseline per topology
    assert calls == {"run_block_sca": 2 * len(QUICK_BLOCKS), "run_gradient_push": 2}


def test_repro_quick_reruns_are_byte_identical(quick_run, tmp_path):
    outdir, report = quick_run
    assert repro_paper(tmp_path, blocks=QUICK_BLOCKS, quick=True) == report
    first, second = output_files(outdir), output_files(tmp_path)
    assert sorted(first) == sorted(second)
    assert len(first) == 2 * (len(QUICK_BLOCKS) + 1) + 2 + 3
    assert first == second


@pytest.mark.parametrize("args, message", [
    (["--quick", "--blocks", "3,7"], "100 variables cannot split into 3 blocks"),
    (["--quick", "--blocks", "0"], "100 variables cannot split into 0 blocks"),
    (["--quick", "--blocks", "3,2,-3"], "100 variables cannot split into 3 blocks"),
    (["--blocks", "0"], "500 variables cannot split into 0 blocks"),
])
def test_repro_rejects_block_lists_before_the_first_solve(args, message, tmp_path, monkeypatch,
                                                          capsys):
    # a solve would call None and fail with a TypeError, which main does not catch
    monkeypatch.setattr(blocksca.harness, "run_block_sca", None)
    monkeypatch.setattr(blocksca.harness, "run_gradient_push", None)
    assert main(["repro-paper", *args, "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.rglob("*.*"))


def test_repro_empty_block_list_is_rejected(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(blocksca.cli, "repro_paper", lambda *a, **k: calls.append(a))
    assert main(["repro-paper", "--blocks", "", "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: --blocks must be comma-separated integers, got ''\n"
    assert calls == []


def test_repro_empty_block_tuple_raises_before_any_output(tmp_path):
    # an empty sweep would report the headline PASS having run nothing
    with pytest.raises(ValueError, match="no block count to run"):
        repro_paper(tmp_path / "out", blocks=(), quick=True)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("blocks", ["0", "2,0"])
def test_repro_rejected_block_list_creates_no_directory(blocks, tmp_path):
    outdir = tmp_path / "out"
    assert main(["repro-paper", "--quick", "--blocks", blocks, "--outdir", str(outdir)]) == 1
    assert not outdir.exists()
