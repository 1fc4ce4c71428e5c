"""The process entry, ``cli.run``: a ``python -m anonset.cli`` process ends
without interpreter teardown and keeps ``main``'s output, reports and exit
codes, with its stdout block-buffered into a file.  A stdout that cannot
be flushed exits 2, not with the interpreter's 120."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import anonset
from anonset.cli import main
from anonset.dataset import RECORD_FILES

from .test_dataset_cli import write_multi_deposit_claimants

SRC = Path(anonset.__path__[0]).parent


def process_env() -> dict[str, str]:
    """This environment without ``PYTHONUNBUFFERED``, so a child's stdout
    into a file is block-buffered, with a fixed help width."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["COLUMNS"] = "80"
    return env


def in_process(argv: list[str], capsys) -> tuple[int, str, str]:
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def as_process(argv: list[str], stdout_path: Path) -> tuple[int, str, str]:
    with open(stdout_path, "w") as stdout:
        proc = subprocess.run([sys.executable, "-m", "anonset.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=process_env())
    return proc.returncode, stdout_path.read_text(), proc.stderr


def files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path; none when it is missing."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("datasets")
    mixed = root / "mixed"
    assert main(["synth", "--out", str(mixed), "--profile", "mixed", "--seed", "7",
                 "--users", "20", "--blocks", "600"]) == 0
    bare = root / "no-sidecar"
    shutil.copytree(mixed, bare)
    (bare / "ground_truth.json").unlink()
    broken = root / "malformed"
    shutil.copytree(mixed, broken)
    events = broken / "pool_events.jsonl"
    events.write_text("{not json\n" + events.read_text())
    write_multi_deposit_claimants(root / "multi")
    return {"mixed": mixed, "no-sidecar": bare, "malformed": broken, "multi": root / "multi"}


CASES = {
    "am-link": (["am-link", "--data", "{mixed}"], 0),
    "anonymity": (["anonymity", "--combine", "--tas", "--data", "{mixed}"], 0),
    "malformed": (["relayers", "--data", "{malformed}"], 2),
    "no-sidecar": (["anonymity", "--tas", "--data", "{no-sidecar}"], 3),
    "inconclusive": (["am-link", "--search-cap", "1", "--strict", "--data", "{multi}"], 4),
}


@pytest.mark.parametrize("case", CASES)
def test_a_command_keeps_its_output_reports_and_exit_code(case, datasets, tmp_path,
                                                          capsys, monkeypatch):
    template, expected = CASES[case]
    out = tmp_path / "out"
    argv = [arg.format(**datasets) for arg in template] + ["--out", str(out)]
    monkeypatch.setenv("COLUMNS", "80")
    direct = in_process(argv, capsys)
    reports = files(out)
    shutil.rmtree(out, ignore_errors=True)
    spawned = as_process(argv, tmp_path / "stdout.txt")
    assert spawned == direct
    assert spawned[0] == expected
    assert files(out) == reports
    code, stdout, stderr = spawned
    if code in (0, 4):
        loaded = [line for line in stdout.splitlines() if line.startswith("loaded ")]
        assert [line.rsplit(" ", 1)[1] for line in loaded] == sorted(RECORD_FILES)
        name = argv[0]
        assert stdout.endswith(f"wrote {out / name}.json and {out / name}.txt\n")
    else:
        assert stderr.startswith("error: ") and "Traceback" not in stderr


def test_synth_writes_the_same_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    argv = ["synth", "--out", str(out), "--profile", "mixed", "--seed", "3",
            "--users", "20", "--blocks", "600"]
    direct = in_process(argv, capsys)
    dataset = files(out)
    shutil.rmtree(out)
    spawned = as_process(argv, tmp_path / "stdout.txt")
    assert spawned == direct
    assert spawned[0] == 0 and spawned[1].startswith("wrote synthetic dataset to ")
    assert files(out) == dataset


@pytest.mark.parametrize("argv,expected", [
    (["am-link", "--data", "data"], 2),
    (["--help"], 0),
], ids=["usage-error", "help"])
def test_argparse_exits_keep_their_code_and_text(argv, expected, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    direct = in_process(argv, capsys)
    spawned = as_process(argv, tmp_path / "stdout.txt")
    assert spawned == direct
    code, stdout, stderr = spawned
    assert code == expected
    if code:
        assert stderr.startswith("usage: anonset am-link")
        assert "error: the following arguments are required: --out" in stderr
    else:
        assert stdout.startswith("usage: anonset")
        for command in ("anonymity", "clusters", "relayers", "flows", "flags",
                        "am-link", "validate", "synth"):
            assert command in stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["block-buffered", "unbuffered"])
def test_a_stdout_that_cannot_be_flushed_exits_2(datasets, tmp_path, unbuffered):
    out = tmp_path / "out"
    env = process_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "anonset.cli", "am-link",
                               "--data", str(datasets["mixed"]), "--out", str(out)],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2
    # one line that names what failed, in either buffering mode: the last
    # flush of the lines ``_load`` could not write adds none
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: "), lines
    # the ``loaded …`` lines are flushed before any analysis, so in either
    # buffering mode the command stops there and writes no report
    assert files(out) == {}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,unbuffered", [
    pytest.param(argv, unbuffered, id=name + ("-unbuffered" if unbuffered else ""))
    for name, argv in [("help", ["--help"]), ("command-help", ["relayers", "--help"]),
                       ("usage-error", ["no-such-command"])]
    for unbuffered in (False, True)])
def test_an_argparse_exit_whose_stdout_cannot_be_flushed_exits_2(argv, unbuffered):
    # block-buffered, argparse leaves through SystemExit and ``run``'s flush
    # fails; unbuffered, the help's own write fails, which argparse alone
    # would drop and exit 0.  Either way the help that cannot be written is
    # one error line and exit 2, not the interpreter's 120
    env = process_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "anonset.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if argv[-1] == "--help":
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write output: "), lines
    else:
        assert "invalid choice: 'no-such-command'" in proc.stderr


def test_the_console_script_is_the_process_entry():
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert 'anonset = "anonset.cli:run"' in pyproject
