"""``scripts/setup_time.py``: the benchmark's cold start, never from caches."""

import importlib.util
import shutil
from pathlib import Path

import classinv

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "setup_time.py"
_spec = importlib.util.spec_from_file_location("setup_time", _SCRIPT)
setup_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(setup_time)

_PACKAGE = Path(classinv.__file__).resolve().parent


def _copy(tmp_path):
    """A copy of the package's sources, without bytecode caches."""
    shutil.copytree(_PACKAGE, tmp_path / "classinv",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_times_the_benchmark_child_and_lists_the_modules_it_loaded(tmp_path, capsys):
    source = str(_copy(tmp_path))
    assert setup_time.main(["--repeat", "2", source]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{source}: 2 children"
    assert lines[1].startswith("  wall median ")
    assert lines[2].startswith("  reference median ")
    loaded, = lines[3:]
    assert loaded.startswith("  loaded classinv classinv.classpoly")
    assert "classinv.oracle" not in loaded and "classinv.helper" not in loaded
    assert setup_time.cached(source) == []


def test_refuses_a_tree_with_bytecode_caches(tmp_path, capsys):
    source = _copy(tmp_path)
    (source / "classinv" / "__pycache__").mkdir()
    assert setup_time.main(["--repeat", "2", str(source)]) == 2
    assert "refused" in capsys.readouterr().err
