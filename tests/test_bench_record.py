"""The figures ``scripts/bench_record.py`` records about the pipeline's
import path: its lines, in all and per module, its modules and how many
have a bytecode cache."""

import compileall
import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts/bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_path_reports_bytecode_caches(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    import_path = _bench_record().import_path
    before = import_path(tmp_path)
    assert before["import_path_modules"] > 1
    assert before["import_path_lines"] > 0
    files = before["import_path_files"]
    assert len(files) == before["import_path_modules"] and "covsum.harness" in files
    assert sum(files.values()) == before["import_path_lines"]
    assert before["import_path_cached"] == 0
    assert not list(tmp_path.rglob("__pycache__"))  # counting writes no cache
    compileall.compile_dir(tmp_path / "src", quiet=1)
    assert import_path(tmp_path) == {**before, "import_path_cached": before["import_path_modules"]}
