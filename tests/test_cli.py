import errno
import hashlib
import io
import json
import os
import resource
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import scoresets
from scoresets import cli
from scoresets.cli import main

from conftest import run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_summary(capsys):
    code, out, err = run(capsys, "realize", "--set", "7", "--format", "summary")
    assert code == 0
    assert "m = 7, n = 7" in out
    assert "{7}" in out


def test_realize_json_document(capsys):
    code, out, _ = run(capsys, "realize", "--set", "1,2,5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["m"], doc["n"]) == (3, 4)
    assert "blocks" in doc and doc["blocks"]["U"]


def test_realize_dot(capsys):
    code, out, _ = run(capsys, "realize", "--set", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph {")
    assert "cluster_U" in out


def test_realize_out_file_and_score_pipeline(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(capsys, "realize", "--set", "1,2,5", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "score", "--graph", str(target), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["set"] == [1, 2, 5]
    assert doc["a"] == [1, 1, 5]
    assert doc["b"] == [2, 5, 5, 5]


def test_score_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"m":1,"n":1,"arcs":[]}'))
    code, out, _ = run(capsys, "score", "--graph", "-")
    assert code == 0
    assert "score set {1}" in out


def test_score_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "score", "--graph", str(bad))
    assert code == 1
    assert "error" in err


def refuse_write(*args):
    raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    write = refuse_write


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "--set", "1,2,5", "--format", "json"],
        ["search", "--set", "1,2", "--max-m", "1", "--max-n", "2"],
        ["check-pair", "--a", "1", "--b", "1"],
    ],
)
def test_closed_stdout_exits_0_quietly(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_reader_closing_in_the_middle_of_an_export_exits_0_quietly(fmt):
    # 1640x1640: tens of MB of text, so the reader goes away mid-stream
    src = str(Path(scoresets.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["realize", "--set", "1,3,9,27,81,243,729,2187", "--format", fmt]
    with subprocess.Popen(
        [sys.executable, "-m", "scoresets", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.read(1) in (b"{", b"d")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


def test_closed_stdout_file_descriptor_goes_to_null_device(capsys, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe:
        monkeypatch.setattr(pipe, "write", refuse_write)
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["check-pair", "--a", "1", "--b", "1"]) == 0
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_out_file_broken_pipe_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: ClosedPipe(), raising=False)
    code, out, err = run(
        capsys, "realize", "--set", "1,2,5", "--format", "json", "--out", str(tmp_path / "g.json")
    )
    assert (code, out) == (1, "")
    assert err == "error: [Errno 32] Broken pipe\n"


def test_realize_unsupported_exit_2(capsys):
    code, _, err = run(capsys, "realize", "--set", "3,5,8,14")
    assert code == 2
    assert "unsupported" in err


def test_realize_zero_exit_2(capsys):
    for flag in ("0", "0,1", "0,1,2", "0,2"):
        code, _, err = run(capsys, "realize", "--set", flag)
        assert code == 2, flag
        assert "unsupported" in err and "scoresets search" in err


def test_realize_unsorted_set_warns_but_succeeds(capsys):
    code, out, err = run(capsys, "realize", "--set", "5,1,2")
    assert code == 0
    assert "warning" in err
    assert "{1,2,5}" in out


def test_realize_negative_set_exits_1(capsys):
    code, out, err = run(capsys, "realize", "--set", "3,-1,3")
    assert code == 1 and out == ""
    assert err.strip() == "error: sequence 'values' has a negative entry: (-1, 3)"


def test_check_pair_invalid(capsys):
    code, out, _ = run(capsys, "check-pair", "--a", "0", "--b", "0")
    assert code == 0
    assert out.strip() == "invalid at (p=1, q=1): 0 < 2"


def test_check_pair_valid(capsys):
    code, out, _ = run(capsys, "check-pair", "--a", "1,1,5", "--b", "2,5,5,5")
    assert code == 0
    assert out.strip() == "valid"


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["scoresets", "check-pair", "--a", "1,1,5", "--b", "2,5,5,5"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("scoresets", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_check_pair_rejects_unsorted(capsys):
    code, _, err = run(capsys, "check-pair", "--a", "1,0", "--b", "1")
    assert code == 1
    assert "nondecreasing" in err


def test_check_oriented(capsys):
    code, out, _ = run(capsys, "check-oriented", "--scores", "1,1")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "check-oriented", "--scores", "2,2")
    assert code == 0
    assert out.strip() == "invalid at (k=2): 4 != 2 (equality required)"


def test_enumerate_sets(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "1", "--n", "1", "--emit", "sets")
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(line)["key"] for line in lines] == [[0, 2], [1]]
    assert all(json.loads(line)["kind"] == "set" for line in lines)


def test_enumerate_pairs_to_file(tmp_path, capsys):
    target = tmp_path / "catalog.jsonl"
    code, out, _ = run(
        capsys, "enumerate", "--m", "1", "--n", "1", "--emit", "pairs", "--out", str(target)
    )
    assert code == 0 and out == ""
    records = [json.loads(line) for line in target.read_text().splitlines()]
    assert [rec["key"] for rec in records] == [[[0], [2]], [[1], [1]], [[2], [0]]]


def test_enumerate_budget_exit_3(capsys):
    code, _, err = run(capsys, "enumerate", "--m", "5", "--n", "4", "--emit", "sets")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_enumerate_empty_part_exit_1(capsys, m):
    code, out, err = run(capsys, "enumerate", "--m", m, "--n", "2", "--emit", "sets")
    assert code == 1 and out == ""
    assert "empty part" in err


def test_enumerate_beyond_int64_exit_1(capsys):
    code, _, err = run(
        capsys, "enumerate", "--m", "1", "--n", "40", "--emit", "sets", "--budget", str(3**40)
    )
    assert code == 1
    assert "int64" in err


def _refuse_large_buffers(monkeypatch):
    import scoresets.graph_core as graph_core

    def guarded(size=0):
        assert size <= 1 << 20, f"allocated {size} bytes"
        return bytearray(size)

    monkeypatch.setattr(graph_core, "bytearray", guarded, raising=False)


def test_score_dense_limit_exit_1(capsys, monkeypatch):
    import io

    _refuse_large_buffers(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO('{"m":100000,"n":100000,"arcs":[]}'))
    code, out, err = run(capsys, "score", "--graph", "-")
    assert code == 1 and out == ""
    assert "dense limit" in err


@pytest.mark.parametrize("fmt", ["summary", "json", "dot"])
def test_realize_dense_limit_exit_1(capsys, monkeypatch, tmp_path, fmt):
    # geometric(1, 3, 10): 44287 x 44287; the summary reads only the blocks
    _refuse_large_buffers(monkeypatch)
    values = ",".join(str(3**k) for k in range(11))
    code, out, err = run(capsys, "realize", "--set", values, "--format", fmt)
    if fmt == "summary":
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[2] == "m = 44287, n = 44287"
        assert len(lines[3].split()) == 2 + 11  # "U blocks:" and 11 blocks
    else:
        assert code == 1 and out == ""
        assert "dense limit" in err
        # refused before the --out file is opened
        target = tmp_path / "graph.txt"
        code, out, err = run(capsys, "realize", "--set", values, "--format", fmt, "--out", str(target))
        assert (code, out) == (1, "") and "dense limit" in err
        assert not target.exists()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def run_in_2gib(*argv):
    """The CLI in a fresh process limited to a 2 GiB address space."""
    src = str(Path(scoresets.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "scoresets", *argv],
        env=env,
        preexec_fn=_limit_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_realize_above_limit_ladder_exits_1():
    # {2,4,...,32770}: arithmetic d == a, 16386 x 16386 in blocks of size 2,
    # just above the dense limit; within a 2 GiB address space the summary
    # answers and the json export is refused
    values = ",".join(map(str, range(2, 32771, 2)))
    proc = run_in_2gib("realize", "--set", values, "--format", "summary")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[2] == "m = 16386, n = 16386"
    proc = run_in_2gib("realize", "--set", values, "--format", "json")
    assert proc.returncode == 1 and proc.stdout == ""
    assert "dense limit" in proc.stderr


def test_search_for_a_huge_value_allocates_no_mask():
    # 10**11 exceeds every score at 1x1, so no shape is scanned and no
    # 10**11-bit set mask is built
    proc = run_in_2gib("search", "--set", "1,100000000000", "--max-m", "1", "--max-n", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "not realizable within bounds\n"


def test_realize_summary_allocates_no_dense_graph(capsys, monkeypatch):
    _refuse_large_buffers(monkeypatch)
    values = ",".join(str(3**k) for k in range(9))  # geometric(1, 3, 8): 4921 x 4921
    code, out, _ = run(capsys, "realize", "--set", values)
    assert code == 0
    assert "m = 4921, n = 4921" in out


def test_search_negative_answer_exits_zero(capsys):
    code, out, _ = run(capsys, "search", "--set", "0", "--max-m", "3", "--max-n", "3")
    assert code == 0
    assert out.strip() == "not realizable within bounds"


def test_search_witness(capsys):
    code, out, _ = run(capsys, "search", "--set", "1,2", "--max-m", "2", "--max-n", "2")
    assert code == 0
    assert out.splitlines()[0] == "witness found: m=1 n=2 index=0"


def test_search_json_format(capsys):
    code, out, _ = run(
        capsys, "search", "--set", "1,2", "--max-m", "2", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["realizable"] is True
    assert doc["graph"]["m"] == 1 and doc["graph"]["n"] == 2
    code, out, _ = run(
        capsys, "search", "--set", "0", "--max-m", "2", "--max-n", "2", "--format", "json"
    )
    assert out == '{"realizable":false}\n'
    code, out, _ = run(
        capsys, "search", "--set", "0,2,6", "--max-m", "2", "--max-n", "3", "--format", "json"
    )
    assert code == 0
    assert out == (
        '{"realizable":true,"m":2,"n":3,"index":"368","graph":{"m":2,"n":3,"arcs":['
        '{"u":0,"v":0,"dir":"vu"},{"u":0,"v":1,"dir":"vu"},{"u":0,"v":2,"dir":"uv"},'
        '{"u":1,"v":0,"dir":"uv"},{"u":1,"v":1,"dir":"uv"},{"u":1,"v":2,"dir":"uv"}]}}\n'
    )


def test_conjecture_scan_small_values_all_constructed(capsys):
    code, out, _ = run(
        capsys, "conjecture-scan", "--max-value", "3", "--max-m", "3", "--max-n", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # 7 subsets + total line
    assert all("constructed" in line for line in lines[:-1])
    assert lines[-1].startswith("total: 7 constructed")


def test_conjecture_scan_unknown_within_tight_bounds(capsys):
    # {1,2,3,5} is outside every construction family and cannot fit a
    # 2x2-bounded graph because 5 exceeds every attainable score there
    code, out, _ = run(
        capsys, "conjecture-scan", "--max-value", "5", "--max-m", "2", "--max-n", "2"
    )
    assert code == 0
    lines = dict(line.rsplit(": ", 1) for line in out.strip().splitlines()[:-1])
    assert lines["{1,2,3,5}"] == "unknown within bounds"
    assert lines["{1,2,3,4,5}"].startswith("constructed")


def test_conjecture_scan_golden_digest(capsys):
    # pins every byte of a scan in which all three statuses occur, total line included
    code, out, _ = run(
        capsys, "conjecture-scan", "--max-value", "5", "--max-m", "2", "--max-n", "3"
    )
    assert code == 0
    assert "oracle-witnessed" in out and "unknown within bounds" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d7e74c076addd264aaa3b3f61798b578a3a019a400111c4747740def6eadc399"
    )


@pytest.mark.parametrize(
    "argv,code",
    [
        (("--max-value", "4", "--max-m", "0", "--max-n", "3"), 1),
        (("--max-value", "5", "--max-m", "0", "--max-n", "3"), 1),
        (("--max-value", "5", "--max-m", "2", "--max-n", "2", "--budget", "10"), 3),
    ],
)
def test_conjecture_scan_checks_bounds_before_output(capsys, argv, code):
    # every shape within the bounds is checked before the first line
    assert run(capsys, "conjecture-scan", *argv)[:2] == (code, "")


def test_conjecture_scan_refuses_max_value_below_1(capsys):
    assert run(capsys, "conjecture-scan", "--max-value", "0", "--max-m", "2", "--max-n", "2") == (
        1,
        "",
        "error: --max-value must be at least 1\n",
    )


def assert_bad_input(outcome):
    """Exit 1, nothing on stdout, and one ``error:`` line on stderr."""
    code, out, err = outcome
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


def test_unknown_command_and_flags_exit_1(tmp_path, capsys):
    assert_bad_input(run(capsys, "no-such-command"))
    assert_bad_input(run(capsys, "realize", "--no-such-flag", "1"))
    assert_bad_input(run(capsys, "realize"))
    assert_bad_input(run(capsys, "enumerate", "--m", "x"))
    # a parse error stops the command before --out is opened
    target = tmp_path / "f"
    assert_bad_input(run(capsys, "realize", "--set", "1", "--out", str(target), "--bogus"))
    assert not target.exists()


def test_malformed_integer_list_exit_1(capsys):
    outcome = run(capsys, "realize", "--set", "1,x,3")
    assert_bad_input(outcome)
    assert "integers" in outcome[2]


def test_score_of_json_nested_past_recursion_limit_exits_1():
    script = (
        "import io, sys; sys.stdin = io.StringIO('[' * 100000); "
        "from scoresets.cli import main; sys.exit(main(['score', '--graph', '-']))"
    )
    result = run_python(script)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: not valid JSON: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def test_realize_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "realize", "--set", "1,3,9", "--format", "json")
    _, second, _ = run(capsys, "realize", "--set", "1,3,9", "--format", "json")
    assert first == second


def test_repeated_calls_are_independent(tmp_path, capsys):
    # one parser serves every call of a process: no default, --out or
    # command handler may carry over from one call to the next
    target = tmp_path / "graph.json"
    calls = [
        ("search", "--set", "0,2,6", "--max-m", "2", "--max-n", "3", "--format", "json"),
        ("search", "--set", "0,2,6", "--max-m", "2", "--max-n", "3"),
        ("realize", "--set", "1,2,5", "--format", "json", "--out", str(target)),
        ("realize", "--set", "1,2,5"),
        ("realize", "--no-such-flag", "1"),
        ("no-such-command",),
        ("enumerate", "--m", "2", "--n", "2", "--emit", "sets", "--budget", "5"),
        ("check-pair", "--a", "0", "--b", "0"),
        ("conjecture-scan", "--max-value", "3", "--max-m", "2", "--max-n", "2"),
    ]

    def outcome(argv):
        result = run(capsys, *argv)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        return (*result, written)

    forward = {argv: outcome(argv) for argv in calls}
    backward = {argv: outcome(argv) for argv in reversed(calls)}
    assert forward == backward
    assert [forward[argv][0] for argv in calls] == [0, 0, 0, 0, 1, 1, 3, 0, 0]
    assert forward[calls[2]][1] == "" and forward[calls[2]][3].startswith('{"m":3,"n":4')
    assert forward[calls[3]][1].startswith("score set {1,2,5}\n")

    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "conjecture-scan" in texts[0]


def test_import_builds_no_parser():
    # importing the CLI costs no parser; the first main() builds it and
    # later calls reuse it
    script = """
import argparse
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import scoresets.cli
counts = [built]
for _ in range(2):
    scoresets.cli.main(["check-pair", "--a", "1", "--b", "1,1"])
    counts.append(built)
print(*counts)
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    before, first, second = map(int, proc.stdout.split()[-3:])
    assert before == 0 and first > 0 and second == first


_TRIPLE_SUMMARY = (
    "score set {1,2,5}\nfamily Triple\nm = 3, n = 4\n"
    "U blocks: X1[0:2)=1 X2[2:3)=5\nV blocks: Y1[0:1)=2 Y2[1:4)=5\n"
)
_TRIPLE_JSON = (
    '{"m":3,"n":4,"arcs":[{"u":0,"v":1,"dir":"vu"},{"u":0,"v":2,"dir":"vu"},'
    '{"u":0,"v":3,"dir":"vu"},{"u":1,"v":1,"dir":"vu"},{"u":1,"v":2,"dir":"vu"},'
    '{"u":1,"v":3,"dir":"vu"},{"u":2,"v":0,"dir":"uv"}],"blocks":{"U":[{"label":"X1",'
    '"from":0,"to":2},{"label":"X2","from":2,"to":3}],"V":[{"label":"Y1","from":0,"to":1},'
    '{"label":"Y2","from":1,"to":4}]}}\n'
)


def test_numpy_free_commands_import_no_numpy():
    # importing the CLI and the commands that need no array leave numpy
    # unimported; the commands that do need it still answer as before
    script = """
import contextlib, io, json, sys
import scoresets.cli
report = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    sys.stdin, out = io.StringIO(sys.argv[2]), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = scoresets.cli.main(argv)
    report.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(report))
"""
    numpy_free = [
        (["realize", "--set", "1,2,5"], 0, _TRIPLE_SUMMARY),
        (["check-pair", "--a", "1,1,5", "--b", "2,5,5,5"], 0, "valid\n"),
        (["check-oriented", "--scores", "2,2"], 0, "invalid at (k=2): 4 != 2 (equality required)\n"),
        (["check-pair", "--a", "x", "--b", "1"], 1, ""),
        (["realize", "--set", "0,2"], 2, ""),
    ]
    with_numpy = [
        (["realize", "--set", "1,2,5", "--format", "json"], 0, _TRIPLE_JSON),
        (["score", "--graph", "-"], 0, "a = [1,1,5]\nb = [2,5,5,5]\nscore set {1,2,5}\n"),
        (
            ["search", "--set", "1,3", "--max-m", "2", "--max-n", "2"],
            0,
            'witness found: m=2 n=2 index=12\n{"m":2,"n":2,"arcs":[{"u":0,"v":1,"dir":"uv"},'
            '{"u":1,"v":0,"dir":"uv"}]}\n',
        ),
    ]
    commands = numpy_free + with_numpy
    proc = run_python(script, json.dumps([argv for argv, _, _ in commands]), _TRIPLE_JSON)
    assert proc.returncode == 0, proc.stderr
    imported, *runs = json.loads(proc.stdout)
    assert imported is False, "import scoresets.cli imported numpy"
    for (argv, code, expected), (got_code, out, _) in zip(commands, runs):
        assert (got_code, out) == (code, expected), argv
    assert [loaded for *_, loaded in runs] == [False] * len(numpy_free) + [True] * len(with_numpy)


def test_no_code_path_imports_dataclasses(capsys, monkeypatch):
    # the package, the CLI and the oracle answer where dataclasses cannot be
    # imported, as they do in process; importing the CLI loads no inspect
    script = """
import contextlib, io, json, sys
sys.modules["dataclasses"] = None
import scoresets, scoresets.cli
inspect_loaded = "inspect" in sys.modules
import scoresets.oracle
runs, previous = [], ""
for argv in json.loads(sys.argv[1]):
    sys.stdin, out = io.StringIO(previous), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = scoresets.cli.main(argv)
    previous = out.getvalue()
    runs.append([code, previous])
print(json.dumps([inspect_loaded, runs]))
"""
    commands = [
        ["realize", "--set", "1,2,5"],
        ["realize", "--set", "1,2,5", "--format", "json"],
        ["score", "--graph", "-"],  # reads the json above on stdin
        ["search", "--set", "1,3", "--max-m", "2", "--max-n", "2"],
        ["enumerate", "--m", "2", "--n", "2", "--emit", "sets"],
        ["check-pair", "--a", "1,1,5", "--b", "2,5,5,5"],
    ]
    proc = run_python(script, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    inspect_loaded, runs = json.loads(proc.stdout)
    assert inspect_loaded is False, "import scoresets.cli imported inspect"
    previous = ""
    for argv, got in zip(commands, runs):
        monkeypatch.setattr("sys.stdin", io.StringIO(previous))
        code, previous, _ = run(capsys, *argv)
        assert got == [code, previous] and code == 0, argv


def test_package_exports_resolve():
    # the oracle's names resolve on first access, as the same objects
    namespace = {}
    exec("from scoresets import *", namespace)
    for name in scoresets.__all__:
        assert getattr(scoresets, name) is namespace[name], name
    assert scoresets.BudgetExceededError is scoresets.oracle.BudgetExceededError
    assert scoresets.DEFAULT_BUDGET == scoresets.oracle.DEFAULT_BUDGET == 3**16
    assert scoresets.bounded_search is scoresets.oracle.bounded_search
    with pytest.raises(AttributeError, match="no_such_name"):
        scoresets.no_such_name
