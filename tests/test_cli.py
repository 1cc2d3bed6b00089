import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import covsum
from covsum.cli import main
from covsum.corpus import build_vocabulary, load_corpus, save_corpus
from covsum.harness import cmd_evaluate, cmd_summarize, cmd_train, load_experiment_config

from conftest import make_doc
from test_harness import grid_docs


def test_cli_pipeline_with_flags(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    save_corpus(grid_docs(), corpus)
    common = [
        "--corpus", str(corpus),
        "--out", str(tmp_path / "out"),
        "--repr", "BOW,DBOW",
        "--method", "RELEVANCE_ONLY,JXDTD",
        "--seed", "5",
    ]
    assert main(["train", *common]) == 0
    assert main(["summarize", *common]) == 0
    assert main(["evaluate", *common]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "results.tsv").is_file()


def test_cli_config_file_with_override(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    save_corpus(grid_docs(), corpus)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"corpus = {corpus}\nout = {tmp_path / 'out'}\n"
        "representations = BOW\nmethods = MMR\nratio = 0.5\n"
    )
    assert main(["summarize", "--config", str(cfg), "--method", "XDTD"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "summaries" / "BOW__XDTD.jsonl").is_file()
    assert not (tmp_path / "out" / "summaries" / "BOW__MMR.jsonl").is_file()


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["train", "--corpus", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err

    corpus = tmp_path / "c.jsonl"
    save_corpus([make_doc("d", [["a", "b"]])], corpus)
    assert main(["summarize", "--corpus", str(corpus), "--ratio", "7"]) == 2
    assert "ratio" in capsys.readouterr().err

    # Other I/O failures: an output directory that is a file, a corpus that
    # is a directory. An error line and exit 2, not a traceback.
    (tmp_path / "a-file").write_text("")
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "a-file")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    # `run` stops at its first stage's failure, as that stage's command does.
    assert main(["run", "--corpus", str(corpus), "--out", str(tmp_path / "a-file")]) == 2
    assert capsys.readouterr().err == err
    assert main(["train", "--corpus", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_cli_reports_an_out_of_range_pick(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    save_corpus(grid_docs(), corpus)
    common = ["--corpus", str(corpus), "--out", str(tmp_path / "out"), "--repr", "BOW",
              "--method", "RELEVANCE_ONLY"]
    assert main(["summarize", *common]) == 0
    cell = tmp_path / "out" / "summaries" / "BOW__RELEVANCE_ONLY.jsonl"
    record = json.loads(cell.read_text().splitlines()[0])
    cell.write_text(json.dumps(dict(record, selected=[999])) + "\n")
    capsys.readouterr()
    assert main(["evaluate", *common]) == 2  # not an IndexError traceback
    assert "BOW__RELEVANCE_ONLY.jsonl:1: document 'ga'" in capsys.readouterr().err


def test_cli_reports_diverged_training(tmp_path):
    # The command as a user runs it: an error line and exit 2, no traceback.
    src = Path(covsum.__file__).resolve().parents[1]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"corpus = {src / 'covsum' / 'data' / 'selftest_corpus.jsonl'}\n"
        f"out = {tmp_path / 'out'}\nrepresentations = DBOW\nembed.learning_rate = 1e200\n"
    )
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "covsum", "train", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "error: para matrix diverged; lower the learning rate\n" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr  # nor numpy's warnings on the way there
    assert "embedding.py" not in proc.stderr


def _tree(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_stages_in_one_process_write_what_separate_commands_write(tmp_path):
    # One process per command parses the corpus each time; stages run in one
    # process after a set-up load share the parse and the vocabulary, and so
    # do the three stages of `covsum run`.
    corpus = tmp_path / "c.jsonl"
    save_corpus(grid_docs(), corpus)
    src = Path(covsum.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    trees = []
    for run in ("commands", "stages", "run"):
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(
            f"corpus = {corpus}\nout = {tmp_path / run}\nper_document_training = true\n"
            "representations = BOW+DBOW\nembed.dim = 4\nembed.epochs = 2\nseed = 9\n"
        )
        if run != "stages":
            for stage in ("train", "summarize", "evaluate") if run == "commands" else ("run",):
                subprocess.run([sys.executable, "-m", "covsum", stage, "--config", str(cfg)],
                               env=env, check=True, capture_output=True, timeout=120)
        else:
            config = load_experiment_config(str(cfg))
            build_vocabulary(load_corpus(config.corpus_path))
            cmd_train(config)
            cmd_summarize(config)
            cmd_evaluate(config)
        trees.append(_tree(tmp_path / run))
    assert len(trees[0]) == 3 + 4 + 2  # per-document models, cells, results
    assert trees[0] == trees[1] == trees[2]


def test_cli_rejects_unknown_flags():
    with pytest.raises(SystemExit):
        main(["train", "--bogus"])
    with pytest.raises(SystemExit):
        main(["replicate"])


def test_cli_selftest(capsys, monkeypatch, tmp_path):
    # The determinism check's runs write only into a temporary directory,
    # which is removed, and the selftest prints none of their paths.
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 10  # nine checks + a summary line
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"PASS {name}"
        for name in ("greedy-oracle-equivalence", "first-pick-reduction",
                     "probability-invariants", "rouge-golden-and-lcs", "embedding-gradients",
                     "dbow-invariances", "duplicate-suppression", "coverage-beats-relevance",
                     "determinism")
    ]
    assert lines[-1] == "9/9 checks passed"
    assert list(cwd.iterdir()) == [] and list(tmp.iterdir()) == []
    assert str(tmp_path) not in out  # the stages print the paths they write
