import csv
import io
import os
import subprocess
import sys

import pytest

from forestq.cli import main


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "cycle.txt"
    p.write_text("# directed 3-cycle\n0 1\n1 2\n2 0\n")
    return str(p)


def run(args):
    return main(args)


def test_parser_offers_exactly_the_documented_subcommands(cycle_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "{query,replay,validate}" in usage
    for args in (["bench"], ["--threads", "1", "query", "0", "0"]):
        with pytest.raises(SystemExit) as exc:
            run(["--graph", cycle_file] + args)
        assert exc.value.code == 2


def test_cli_import_leaves_scipy_unloaded():
    paths = [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = "import sys, forestq.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# ---- query ----

def test_query_prints_estimate(cycle_file, capsys):
    assert run(["--graph", cycle_file, "--seed", "3", "query", "0", "0",
                "--samples", "4000"]) == 0
    out = capsys.readouterr().out
    assert "entry=(0,0)" in out
    assert "method=sfqplus" in out
    assert "samples=4000" in out
    value = float(out.split("value=")[1].split()[0])
    assert value == pytest.approx(4 / 7, abs=0.05)


def test_query_sfq_method_and_derived_samples(cycle_file, capsys):
    assert run(["--graph", cycle_file, "--epsilon", "0.1", "--delta", "0.05",
                "query", "1", "1", "--method", "sfq"]) == 0
    out = capsys.readouterr().out
    assert "method=sfq" in out
    assert "samples=117" in out  # diagonal schedule at (0.1, 0.05)


def test_query_rejects_fewer_than_one_sample(cycle_file, capsys):
    for samples in ("0", "-3"):
        assert run(["--graph", cycle_file, "query", "0", "0", "--samples", samples]) == 2
        assert "--samples must be >= 1" in capsys.readouterr().err


def test_query_validates_nodes(cycle_file, capsys):
    assert run(["--graph", cycle_file, "query", "0", "9"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_query_requires_graph(capsys):
    assert run(["query", "0", "0"]) == 2
    assert "requires --graph" in capsys.readouterr().err


def test_missing_graph_file(capsys):
    assert run(["--graph", "/nonexistent/g.txt", "query", "0", "0"]) == 2
    assert "error" in capsys.readouterr().err


# ---- replay ----

def write_stream(tmp_path, text):
    p = tmp_path / "stream.txt"
    p.write_text(text)
    return str(p)


def test_replay_csv_structure(cycle_file, tmp_path, capsys):
    stream = write_stream(tmp_path, "I 0 2\nD 2 0\n")
    out_path = tmp_path / "replay.csv"
    assert run(["--graph", cycle_file, "--seed", "5", "replay",
                "--stream", stream, "--samples", "100",
                "--query", "0,0", "--query", "0,1,sfq",
                "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert comments[0] == "# forestq replay"
    assert any("seed=5" in l for l in comments)
    assert any("n=3 m=3" in l for l in comments)
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    header, data = rows[0], rows[1:]
    assert header[:6] == ["seq", "kind", "u", "v", "total_weight", "distinct"]
    assert header[6:] == ["q_0_0_sfqplus", "q_0_1_sfq"]
    assert len(data) == 3  # init + 2 events
    assert data[0][1] == "init"
    assert data[1][1] == "insert"
    assert data[2][1] == "delete"
    for row in data:
        assert 0.0 <= float(row[6]) <= 1.0
        assert int(row[4]) >= 100


def test_replay_is_byte_deterministic(cycle_file, tmp_path):
    stream = write_stream(tmp_path, "I 0 2\nD 1 2\nI 1 0\n")
    args = ["--graph", cycle_file, "--seed", "11", "replay",
            "--stream", stream, "--samples", "150", "--query", "2,2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_replay_timings_are_separate(cycle_file, tmp_path):
    stream = write_stream(tmp_path, "I 0 2\n")
    base = ["--graph", cycle_file, "--seed", "2", "replay",
            "--stream", stream, "--samples", "80"]
    plain, timed = tmp_path / "p.csv", tmp_path / "t.csv"
    timings = tmp_path / "times.csv"
    assert run(base + ["--out", str(plain)]) == 0
    assert run(base + ["--out", str(timed), "--timings-out", str(timings)]) == 0
    assert plain.read_bytes() == timed.read_bytes()
    trows = timings.read_text().splitlines()
    assert trows[0] == "seq,kind,update_seconds,query_seconds"
    assert len(trows) == 2


def test_replay_rejects_bad_query_spec(cycle_file, tmp_path, capsys):
    stream = write_stream(tmp_path, "I 0 2\n")
    for spec in ("0", "x,1"):
        assert run(["--graph", cycle_file, "replay", "--stream", stream,
                    "--samples", "50", "--query", spec]) == 2
        assert f"bad --query '{spec}'" in capsys.readouterr().err


def test_replay_rejects_invalid_event(cycle_file, tmp_path, capsys):
    stream = write_stream(tmp_path, "D 0 2\n")  # not an edge
    assert run(["--graph", cycle_file, "replay", "--stream", stream,
                "--samples", "50"]) == 2
    assert "event 0: edge (0, 2) not found" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--prune-factor", "0.5", "factor must be >= 1, got 0.5"),
    ("--epsilon", "2", "epsilon must be in (0, 1), got 2.0"),
    ("--delta", "0", "delta must be in (0, 1), got 0.0"),
])
def test_replay_errors_name_the_option(cycle_file, tmp_path, capsys, option, value, message):
    stream = write_stream(tmp_path, "I 0 2\n")
    samples = ["--samples", "5"] if option == "--prune-factor" else []
    assert run(["--graph", cycle_file, option, value, "replay", "--stream", stream]
               + samples) == 2
    assert capsys.readouterr().err == f"error: {option}: {message}\n"


# ---- validate ----

def test_validate_passes_on_cycle(cycle_file, capsys):
    assert run(["--graph", cycle_file, "--seed", "1", "validate",
                "--samples", "3000"]) == 0
    out = capsys.readouterr().out
    assert "PASS oracle cross-check" in out
    assert "PASS sampled forests valid" in out
    assert "PASS sampler uniformity" in out
    assert "PASS single-edge updates preserve uniformity" in out
    assert "FAIL" not in out


def test_validate_random_sweep(capsys):
    assert run(["--seed", "6", "validate", "--random", "25"]) == 0
    out = capsys.readouterr().out
    assert "PASS random-digraph cross-check" in out


def test_validate_detects_injected_cycle(cycle_file, capsys):
    assert run(["--graph", cycle_file, "--seed", "1", "validate",
                "--samples", "3000", "--inject-cycle"]) == 1
    out = capsys.readouterr().out
    assert "FAIL sampled forests valid" in out
    assert "cycle" in out


def test_validate_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    assert run(["--graph", str(p), "validate", "--samples", "100"]) == 0
    out = capsys.readouterr().out
    assert "PASS oracle cross-check: cross-check ok: n=0 forests=1" in out
    assert "PASS sampler uniformity: skipped: one forest, nothing to test" in out
    assert "zero-size" not in out and "n > 4" not in out


def test_validate_one_node_graph_has_one_forest(tmp_path, capsys):
    p = tmp_path / "one.txt"
    p.write_text("0 0\n")  # the self-loop is dropped, leaving node 0 alone
    assert run(["--graph", str(p), "validate", "--samples", "100"]) == 0
    out = capsys.readouterr().out
    assert "n=1 forests=1" in out
    assert "PASS sampler uniformity: skipped: one forest, nothing to test" in out


def test_validate_needs_target(capsys):
    assert run(["validate"]) == 2
    assert "needs --graph" in capsys.readouterr().err


def test_validate_skips_oracle_beyond_limits(tmp_path, capsys):
    # a 20-node star fan-out is enumerable, but make it big enough to skip
    # enumeration: complete-ish digraph on 14 nodes
    p = tmp_path / "dense.txt"
    lines = [f"{u} {v}" for u in range(14) for v in range(14) if u != v]
    p.write_text("\n".join(lines) + "\n")
    assert run(["--graph", str(p), "validate", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


# ---- modes ----

def test_undirected_mode(tmp_path, capsys):
    p = tmp_path / "und.txt"
    p.write_text("0 1\n")
    assert run(["--graph", str(p), "--mode", "undirected", "validate",
                "--samples", "2000"]) == 0
    out = capsys.readouterr().out
    assert "n=2 m=2" in out
