import runpy
import sys
from pathlib import Path

import scoresets.oracle as oracle

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *argv])
    assert main() == 0
    return capsys.readouterr().out.splitlines()


def test_remark_census(monkeypatch, capsys):
    scan = oracle.catalog_for_shape

    def sets_only(m, n, **options):
        assert options.get("pairs") is False, "the census reads no sequence pairs"
        return scan(m, n, **options)

    monkeypatch.setattr(oracle, "catalog_for_shape", sets_only)
    argv = ["--max-m", "2", "--max-n", "2", "--max-value", "3"]
    lines = run_script("remark_census.py", argv, monkeypatch, capsys)
    assert lines[0].endswith("with m <= 2, n <= 2")
    missing = {line.split()[0] for line in lines[2:]}
    assert {"{0}", "{0,1}", "{0,1,2}"} <= missing
    assert "{0,2}" not in missing  # the 1x1 graph with one arc
