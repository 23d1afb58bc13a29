"""tools/differential.py finds no difference between a tree and its copy,
and reports every run that a planted change moves; no run of this tree
warns or raises."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import blockprod

TOOL = Path(__file__).resolve().parents[1] / "tools" / "differential.py"
SRC = Path(blockprod.__file__).resolve().parents[1]


def differential(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip


def run_tree(src, out):
    proc = differential("run", "--src", src, "--out", out)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in out.read_text().splitlines()]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("differential") / "src.jsonl"
    return out, run_tree(SRC, out)


def copy_of_src(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def test_a_copy_does_not_differ(baseline, tmp_path):
    out, records = baseline
    copied = run_tree(copy_of_src(tmp_path), tmp_path / "copy.jsonl")
    assert copied == records
    # every subcommand runs, on fixtures and on generated files at each
    # scale, and so do the stream analyses
    commands = {r["argv"][0] for r in records}
    assert commands == {"product", "analyze", "certify-rcp", "norm",
                        "analyze(Stream)", "corollary1_analyze(Stream)"}  # fmt: skip
    assert any(r["csv"] for r in records)
    names = " ".join(r["argv"][2] for r in records)
    assert "<fixtures>/constant.json" in names and "-b2^997.json" in names
    proc = differential("compare", out, tmp_path / "copy.jsonl")
    assert proc.returncode == 0, proc.stdout
    # the summary, then one count of false certified verdicts per file
    first, *counts = proc.stdout.splitlines()
    assert first == f"{len(records)} runs in both; 0 moved; 0 in one file only"
    files = [line.split(": ")[0] for line in counts]
    assert files == [str(out), str(tmp_path / "copy.jsonl")]


FALSE_COUNT = re.compile(
    r"(.+): (\d+) of (\d+) certified verdicts disagree with the exact verdict"
)


def test_compare_counts_false_certified_verdicts(baseline):
    # the gate count of ROADMAP items 1 and 2: on this tree, most exact
    # dyadic pairs get a false CertifiedDiverged or NOT_RCP verdict
    out, records = baseline
    proc = differential("compare", out, out)
    counts = [FALSE_COUNT.fullmatch(line) for line in proc.stdout.splitlines()[1:]]
    assert all(counts) and len(counts) == 2, proc.stdout
    false, certified = int(counts[0][2]), int(counts[0][3])
    assert 0 < false < certified
    # every analyze of a periodic dyadic file and every certify-rcp of a
    # set one has its exact verdict, and only cycle and set runs have one
    dyadic = [r for r in records if "-dyadic" in r["argv"][2]]
    judged = [r for r in dyadic if r["argv"][0] in ("analyze", "certify-rcp")]
    assert judged and all(r["exact"] in ("equal", "distinct") for r in judged)
    assert {r["exact"] for r in judged} == {"equal", "distinct"}
    assert all(r["exact"] is None for r in records if r["argv"][0] in ("product", "norm"))


def test_no_run_warns_or_raises(baseline):
    # a "raised" code is an exception that is not a library error, such as
    # the StopIteration once raised on a limit candidate that overflowed
    _, records = baseline
    assert [r["argv"] for r in records if str(r["code"]).startswith("raised")] == []
    assert [r["argv"] for r in records if "Warning" in r["stderr"]] == []


def planted(tmp_path, module, line, change):
    """The records of a copy of src/ whose *module* has *line* changed."""
    copy = copy_of_src(tmp_path)
    path = copy / "blockprod" / module
    text = path.read_text()
    assert line in text
    path.write_text(text.replace(line, change(line)))
    return run_tree(copy, tmp_path / "planted.jsonl")


def test_a_planted_change_is_reported_run_by_run(baseline, tmp_path):
    out, records = baseline
    line = 'format(float(x), ".17g")'
    to_16 = planted(tmp_path, "seqfile.py", line, lambda t: t.replace("17g", "16g"))
    moved = {" ".join(a["argv"]) for a, b in zip(records, to_16) if a != b}
    proc = differential("compare", out, tmp_path / "planted.jsonl")
    assert proc.returncode == 1
    # each moved run is listed on a line of its own, indented by two spaces
    lines = proc.stdout.splitlines()
    listed = {line[2:] for line in lines if line[:2] == "  " and line[2] != " "}
    assert listed == moved
    assert f"; {len(moved)} moved;" in lines[0]
    # fmt_float prints product's deviation bound and trace, and norm's
    # value; analyze and certify-rcp print cycles through fmt_matrix only
    assert {argv.split()[0] for argv in moved} == {"product", "norm"}


def test_a_planted_streak_window_moves_stream_runs_only(baseline, tmp_path):
    _, records = baseline
    line = "_STREAK_WINDOW = 20"
    changed = planted(tmp_path, "analyzer.py", line, lambda t: t.replace("20", "21"))
    moved = [a["argv"] for a, b in zip(records, changed) if a != b]
    assert len(changed) == len(records) and moved
    streams = {"analyze(Stream)", "corollary1_analyze(Stream)"}
    assert {argv[0] for argv in moved} <= streams
