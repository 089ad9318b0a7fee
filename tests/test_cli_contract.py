"""The CLI's one-line contract: whatever files and flags ``atk`` gets, it
ends with exit code 0, 1 or 2 and at most one line on stderr.

A hypothesis test drives ``cli.main`` with mutated copies of a small valid
instance (a partial k-tree with n <= 12, its ``.gr`` and ``.td`` files, and
``solve`` or ``td`` flags with ``exact-bf``): lines truncated, repeated or
dropped, tokens swapped or replaced by huge, negative or non-finite numbers,
and non-UTF-8 bytes. A usage error leaves through argparse's ``SystemExit``,
which the console script turns into its exit code, so that counts as one.
A ``.gr`` header over ``MAX_GR_VERTICES`` and a decomposition wider than
the treewidth DP's ``DP_WIDTH_CAP`` are refused before anything is built,
and so is an ``atk gen`` whose clique pool exceeds ``generate.MAX_POOL_SLOTS``,
which holds at least n slots, be it one of more vertices than
``MAX_GR_VERTICES`` or one of a wide pool. Run in a subprocess
whose address space is limited to 600 MB (``RLIMIT_AS``, set in the child
only), each must end ``atk solve`` or ``atk gen`` with exit 1 and one line,
fast.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atk.cli import DIRECT_ENGINES, compute_opt, main
from atk.errors import OracleRefused
from atk.friendly import builtin_instances
from atk.generate import gen_partial_ktree
from atk.oracles import DP_WIDTH_CAP, td_dp_solve
from atk.pace import MAX_GR_VERTICES, ParseError, parse_gr, write_gr, write_td
from atk.problems import KINDS
from atk.treedecomp import heuristic_td, make_nice
from helpers import gnp_graph

resource = pytest.importorskip("resource")

SRC = str(Path(__file__).resolve().parent.parent / "src")
PROBLEMS = {"direct": sorted(DIRECT_ENGINES), "friendly": sorted(builtin_instances())}
# No value lands between the instance's size and the .gr bound: a header of
# a million vertices is valid and costs about 600 MB to build.
ODD = ["0", "-1", "-7", "13", "1e309", "-1e309", "inf", "-inf", "nan", "1.5", "x", "",
       "99999999999999999999", str(2**63), "1e-300", "0x10", "٣"]


def _instance(rng):
    k = rng.randint(1, 2)
    g, td = gen_partial_ktree(rng.randint(k + 1, 12), k, rng.uniform(0.4, 1.0), rng.randrange(10_000))
    return write_gr(g), write_td(td, n_vertices=g.n)


def _mutate_text(rng, text: str) -> bytes:
    lines = text.splitlines()
    for _ in range(rng.randint(0, 3)):
        op = rng.randrange(6)
        i = rng.randrange(len(lines)) if lines else 0
        if op == 0 and lines:  # truncate
            lines = lines[:i]
        elif op == 1 and lines:  # repeat a line
            lines.insert(i, lines[i])
        elif op == 2 and lines:  # drop a line
            del lines[i]
        elif op == 3 and lines:  # swap two tokens anywhere in the file
            toks = [(a, b) for a, ln in enumerate(lines) for b in range(len(ln.split()))]
            if len(toks) > 1:
                (a1, b1), (a2, b2) = rng.sample(toks, 2)
                rows = [ln.split() for ln in lines]
                rows[a1][b1], rows[a2][b2] = rows[a2][b2], rows[a1][b1]
                lines = [" ".join(r) for r in rows]
        elif op == 4 and lines:  # replace a token by an odd number
            row = lines[i].split()
            if row:
                row[rng.randrange(len(row))] = rng.choice(ODD)
                lines[i] = " ".join(row)
        elif op == 5:  # cut the file mid-line
            joined = "\n".join(lines)
            lines = joined[: rng.randint(0, len(joined))].split("\n")
    data = ("\n".join(lines) + "\n").encode()
    if rng.random() < 0.15:  # bytes that are not UTF-8
        at = rng.randint(0, len(data))
        data = data[:at] + rng.choice([b"\xff", b"\x80\x80", b"\xc3("]) + data[at:]
    return data


def _argv(rng, gr: str, td: str) -> list[str]:
    if rng.random() < 0.2:
        argv = ["td", rng.choice(["validate", "nice", "subconnected"]), "--graph", gr, "--td", td]
    else:
        engine = rng.choice(sorted(PROBLEMS))
        argv = ["solve", "--problem", rng.choice(PROBLEMS[engine]), "--engine", engine,
                "--eps", rng.choice(["0.5", "1.0"]), "--graph", gr, "--oracle", "exact-bf"]
        if rng.random() < 0.7:
            argv += ["--td", td]
        if rng.random() < 0.3:
            argv += ["--threshold-scale", rng.choice(["1", "0.1", "0.01"])]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        op, i = rng.randrange(4), rng.randrange(1, len(argv))
        if op == 0:  # an odd flag value
            argv[i] = rng.choice(ODD)
        elif op == 1:  # swapped tokens
            j = rng.randrange(1, len(argv))
            argv[i], argv[j] = argv[j], argv[i]
        elif op == 2:  # a dropped token
            del argv[i]
        else:  # a repeated token
            argv.insert(i, argv[i])
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help (0) or a usage error (2)
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cli_ends_with_its_exit_code_and_one_line(seed):
    rng = random.Random(seed)
    gr_text, td_text = _instance(rng)
    with tempfile.TemporaryDirectory() as tmp:
        gr, td = os.path.join(tmp, "g.gr"), os.path.join(tmp, "g.td")
        with open(gr, "wb") as fh:
            fh.write(_mutate_text(rng, gr_text) if rng.random() < 0.5 else gr_text.encode())
        with open(td, "wb") as fh:
            fh.write(_mutate_text(rng, td_text) if rng.random() < 0.5 else td_text.encode())
        argv = _argv(rng, gr, td)
        code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert err.count("\n") <= 1 and err.strip().count("\n") == 0, (argv, err)


def _wide_graph():
    return gnp_graph(random.Random(1), 70, 0.12)  # heuristic width 32


def test_the_caps_refuse_before_building_anything():
    with pytest.raises(ParseError, match=f"line 2: {MAX_GR_VERTICES + 1} vertices exceed"):
        parse_gr(f"% a comment\np tw {MAX_GR_VERTICES + 1} 0\n")
    g = _wide_graph()
    td = heuristic_td(g)
    assert td.width > DP_WIDTH_CAP
    with pytest.raises(OracleRefused, match="exceeds cap"):
        td_dp_solve(KINDS["vc"], g, make_nice(g, td))
    assert compute_opt("vc", g, td) is None


def _limited():
    resource.setrlimit(resource.RLIMIT_AS, (600 * 1024**2, 600 * 1024**2))


@pytest.mark.parametrize("make", ["oversized_header", "wide_dp", "gen_many_vertices",
                                  "gen_wide_pool", "gen_out_of_memory"])
def test_oversized_input_exits_one_in_one_line_under_a_memory_limit(make, tmp_path):
    path = tmp_path / "g.gr"
    argv = [sys.executable, "-m", "atk.cli", "solve", "--problem", "is", "--eps", "0.5",
            "--oracle", "exact-dp", "--graph", str(path)]
    if make == "oversized_header":  # 16 bytes that ask for ten million vertices
        path.write_text("p tw 10000000 0\n")
    elif make == "wide_dp":
        path.write_text(write_gr(_wide_graph()))
    else:  # a hundred million vertices, one k-tree clique of 3000 (both refused), or a
        # million-vertex tree: within every bound, but its 1.7 GB peak is over the limit
        n, k = {"gen_many_vertices": ("100000000", "1"), "gen_wide_pool": ("3000", "2999"),
                "gen_out_of_memory": ("1000000", "1")}[make]
        argv = [sys.executable, "-m", "atk.cli", "gen", "--n", n, "--k", k, "--p", "0.5",
                "--seed", "1", "--out", str(path)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, preexec_fn=_limited,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    # well under 1 s on a quiet host; running out of memory takes about 6 s
    assert time.perf_counter() - start < (30.0 if make == "gen_out_of_memory" else 5.0)
