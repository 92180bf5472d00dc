"""Tests for the command-line interface (in-process)."""

import numpy as np
import pytest

from repro.cli import main


def test_collection(capsys):
    assert main(["collection", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "urand27" in out and "road_usa" in out


def test_gaps(capsys):
    assert main(["gaps", "ecology", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "count" in out


def test_layout_to_files(tmp_path, capsys):
    coords = tmp_path / "coords.txt"
    png = tmp_path / "drawing.png"
    rc = main(
        [
            "layout",
            "barth",
            "--scale",
            "tiny",
            "-s",
            "8",
            "--coords-out",
            str(coords),
            "--png",
            str(png),
            "--width",
            "120",
        ]
    )
    assert rc == 0
    data = np.loadtxt(coords)
    assert data.ndim == 2 and data.shape[1] == 2
    from repro.drawing import read_png

    assert read_png(png).shape == (120, 120, 3)


def test_layout_stdout(capsys):
    assert main(["layout", "ecology", "--scale", "tiny", "-s", "4"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) > 100


@pytest.mark.parametrize("algo", ["phde", "pivotmds"])
def test_layout_other_algorithms(algo, tmp_path):
    coords = tmp_path / "c.txt"
    rc = main(
        ["layout", "ecology", "--scale", "tiny", "--algo", algo,
         "-s", "6", "--coords-out", str(coords)]
    )
    assert rc == 0
    assert np.loadtxt(coords).shape[1] == 2


@pytest.mark.parametrize("algo", ["phde", "pivotmds"])
def test_layout_pivots_flag_reaches_every_algorithm(algo, capsys):
    """--pivots selects the pivots exactly as the library's kernels= does."""
    from repro import datasets
    from repro.service.engine import DEFAULT_ALGORITHMS

    g = datasets.load("ecology", scale="tiny", seed=0)
    ref = DEFAULT_ALGORITHMS[algo](g, 6, kernels={"pivots": "random"})
    default = DEFAULT_ALGORITHMS[algo](g, 6)
    assert list(ref.pivots) != list(default.pivots)
    assert main(
        ["layout", "ecology", "--scale", "tiny", "--algo", algo, "-s", "6",
         "--pivots", "random"]
    ) == 0
    assert f"pivots={list(map(int, ref.pivots))}" in capsys.readouterr().err


def test_layout_rejects_kernel_flags_the_algorithm_ignores(capsys):
    with pytest.raises(SystemExit):
        main(["layout", "ecology", "--scale", "tiny", "--algo", "phde",
              "--rounds", "2"])
    assert "phde does not honour kernels ['rounds']" in capsys.readouterr().err


def test_bench(capsys):
    rc = main(
        ["bench", "ecology", "--scale", "tiny", "-s", "4",
         "--threads", "1", "4", "28"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "BFS" in out
    assert "p=28" in out


def test_layout_from_edge_list(tmp_path, capsys):
    path = tmp_path / "g.txt"
    lines = [f"{i} {i + 1}" for i in range(30)]
    lines += [f"{i} {i + 2}" for i in range(29)]
    path.write_text("\n".join(lines) + "\n")
    coords = tmp_path / "c.txt"
    rc = main(["layout", str(path), "-s", "4", "--coords-out", str(coords)])
    assert rc == 0
    assert np.loadtxt(coords).shape == (31, 2)


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_partition_command(tmp_path, capsys):
    labels = tmp_path / "parts.txt"
    png = tmp_path / "parts.png"
    rc = main(
        ["partition", "barth", "--scale", "tiny", "-k", "4",
         "-s", "8", "--out", str(labels), "--png", str(png)]
    )
    assert rc == 0
    parts = np.loadtxt(labels)
    assert set(np.unique(parts)) == {0.0, 1.0, 2.0, 3.0}
    from repro.drawing import read_png

    assert read_png(png).shape[2] == 3


def test_partition_refine(capsys):
    rc = main(["partition", "ecology", "--scale", "tiny", "--refine"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "FM: cut" in err


def test_partition_refine_requires_k2():
    with pytest.raises(SystemExit):
        main(["partition", "ecology", "--scale", "tiny", "-k", "3", "--refine"])


def test_zoom_command(tmp_path, capsys):
    png = tmp_path / "zoom.png"
    rc = main(
        ["zoom", "barth", "--scale", "tiny", "--center", "5",
         "--hops", "6", "--png", str(png)]
    )
    assert rc == 0
    assert "within 6 hops of 5" in capsys.readouterr().err
    from repro.drawing import read_png

    assert read_png(png).shape[2] == 3


def test_zoom_coords_stdout(capsys):
    rc = main(["zoom", "ecology", "--scale", "tiny", "--hops", "4", "-s", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) > 5


def test_cluster_spectral(tmp_path, capsys):
    out = tmp_path / "labels.txt"
    rc = main(
        ["cluster", "ecology", "--scale", "tiny", "-k", "3",
         "--out", str(out)]
    )
    assert rc == 0
    labels = np.loadtxt(out)
    assert set(np.unique(labels)) == {0.0, 1.0, 2.0}


def test_cluster_labelprop(capsys):
    rc = main(["cluster", "barth", "--scale", "tiny", "--method", "labelprop"])
    assert rc == 0
    assert "label propagation" in capsys.readouterr().err


def test_cluster_png(tmp_path):
    png = tmp_path / "c.png"
    rc = main(
        ["cluster", "ecology", "--scale", "tiny", "-k", "2", "--png", str(png)]
    )
    assert rc == 0
    from repro.drawing import read_png

    assert read_png(png).shape[2] == 3


def test_export_html(tmp_path, capsys):
    out = tmp_path / "view.html"
    rc = main(["export-html", "barth", "--scale", "tiny", "-s", "6", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "addEventListener" in text


def test_reproduce_list(capsys):
    rc = main(["reproduce", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "table3_prior" in out
    assert "fig4_scaling" in out


def test_reproduce_runs_one(capsys):
    import os

    rc = main(["reproduce", "table2", "--scale", "tiny"])
    assert rc == 0
    os.environ.pop("REPRO_BENCH_SCALE", None)


def test_reproduce_unknown_id():
    with pytest.raises(SystemExit):
        main(["reproduce", "nonexistent_experiment_xyz"])


def test_layout_save_and_reuse(tmp_path, capsys):
    """--save-layout writes an archive that zoom/partition/export-html reuse."""
    archive = tmp_path / "barth.npz"
    rc = main(
        ["layout", "barth", "--scale", "tiny", "-s", "6",
         "--save-layout", str(archive)]
    )
    assert rc == 0
    assert archive.exists()
    # Saving suppresses the stdout coordinate dump.
    assert capsys.readouterr().out == ""

    from repro.core import load_layout

    saved = load_layout(archive)
    assert saved.params["s"] == 6 and isinstance(saved.params["s"], int)

    rc = main(
        ["partition", "barth", "--scale", "tiny", "-k", "2",
         "--layout", str(archive)]
    )
    assert rc == 0
    labels = np.loadtxt(
        capsys.readouterr().out.strip().splitlines(), dtype=int
    )
    assert set(labels) == {0, 1}

    rc = main(
        ["zoom", "barth", "--scale", "tiny", "--center", "0", "--hops", "3",
         "--layout", str(archive)]
    )
    assert rc == 0
    coords = np.loadtxt(capsys.readouterr().out.strip().splitlines())
    assert coords.ndim == 2 and coords.shape[1] == 2
    # The zoomed coordinates are the saved layout restricted to the ball.
    from repro import datasets
    from repro.core import khop_subgraph

    g = datasets.load("barth", scale="tiny", seed=0)
    _, ids = khop_subgraph(g, 0, 3)
    np.testing.assert_allclose(coords, saved.coords[ids], atol=1e-6)

    html = tmp_path / "view.html"
    rc = main(
        ["export-html", "barth", "--scale", "tiny", str(html),
         "--layout", str(archive)]
    )
    assert rc == 0
    assert html.read_text().startswith("<!DOCTYPE html>")


def test_layout_flag_rejects_mismatched_graph(tmp_path):
    archive = tmp_path / "eco.npz"
    assert main(
        ["layout", "ecology", "--scale", "tiny", "-s", "4",
         "--save-layout", str(archive)]
    ) == 0
    with pytest.raises(SystemExit):
        main(["zoom", "barth", "--scale", "tiny", "--layout", str(archive)])


def test_stream_wal_journals_and_resumes(tmp_path, capsys):
    events = tmp_path / "events.txt"
    events.write_text("+ 0 20\n+ 1 30\n---\n- 0 1\n")
    wal = tmp_path / "wal"
    rc = main(
        ["stream", "barth", str(events), "--scale", "tiny", "-s", "4",
         "--wal", str(wal)]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "resumed from WAL" not in captured.err
    assert (wal / "quarantine").exists() is False
    assert any(wal.glob("wal-*.log")) or any(wal.glob("snapshot-*.json"))

    # Second run over the same directory resumes at the journaled epoch.
    rc = main(
        ["stream", "barth", str(events), "--scale", "tiny", "-s", "4",
         "--wal", str(wal)]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert f"resumed from WAL {wal} (epoch 2)" in captured.err


def test_stream_from_layout_journals_to_wal(tmp_path):
    """--layout F --wal D warm-starts from F and journals every update."""
    from repro import datasets
    from repro.core import load_layout
    from repro.stream import StreamSession

    archive = tmp_path / "start.npz"
    assert main(
        ["layout", "barth", "--scale", "tiny", "-s", "4",
         "--save-layout", str(archive)]
    ) == 0
    events = tmp_path / "events.txt"
    events.write_text("+ 0 20\n---\n+ 1 30\n---\n+ 2 40\n")
    wal = tmp_path / "wal"
    final = tmp_path / "final.npz"
    assert main(
        ["stream", "barth", str(events), "--scale", "tiny",
         "--layout", str(archive), "--wal", str(wal),
         "--save-layout", str(final)]
    ) == 0
    resumed = StreamSession.resume_wal(
        datasets.load("barth", scale="tiny", seed=0), wal
    )
    assert resumed.epoch == 3
    np.testing.assert_array_equal(
        resumed.coords, load_layout(final).coords
    )
    resumed.close()


def test_serve_rejects_bad_wal_fsync():
    with pytest.raises(SystemExit):
        main(["serve", "--wal-fsync", "sometimes"])
