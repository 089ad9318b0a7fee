import ast
import json
import random
import re
from pathlib import Path

import pytest

from atk import cli
from atk.cli import main, run_one
from atk.errors import InternalInvariantViolation, OracleRefused
from atk.generate import gen_connected_partial_ktree, gen_partial_ktree
from atk.graph import Graph
from atk.pace import ParseError, parse_gr, parse_td, write_gr, write_td
from atk.friendly import builtin_instances
from atk.oracles import SEARCHES, Oracle
from atk.problems import KINDS, RECORDS, Solution
from atk.treedecomp import TreeDecomposition, validate
from helpers import complete_graph, path_graph, reference_subtree_vertices


# ---------------------------------------------------------------------------
# PACE .gr
# ---------------------------------------------------------------------------


def test_parse_gr_path():
    g = parse_gr("p tw 3 2\n1 2\n2 3\n")
    assert g == path_graph(3)


def test_parse_gr_isolated():
    g = parse_gr("p tw 2 0\n")
    assert g.n == 2 and g.m == 0


def test_parse_gr_comments_and_errors():
    g = parse_gr("% a comment\np tw 2 1\n1 2\n")
    assert g.m == 1
    with pytest.raises(ParseError):
        parse_gr("1 2\np tw 2 1\n")  # edge before header
    with pytest.raises(ParseError):
        parse_gr("p tw 2 1\n1 1\n")  # self-loop
    with pytest.raises(ParseError):
        parse_gr("p tw 2 2\n1 2\n1 2\n")  # duplicate edge
    with pytest.raises(ParseError):
        parse_gr("p tw 2 5\n1 2\n")  # wrong edge count
    with pytest.raises(ParseError):
        parse_gr("p tw 2 1\n1 7\n")  # out of range


def test_gr_round_trip_random():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 20)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.3
        ]
        g = Graph(range(1, n + 1), edges)
        assert parse_gr(write_gr(g)) == g


def test_write_gr_requires_contiguous_ids():
    with pytest.raises(ValueError):
        write_gr(Graph([2, 3], [(2, 3)]))


# ---------------------------------------------------------------------------
# PACE .td
# ---------------------------------------------------------------------------


def test_parse_td_single_bag():
    td = parse_td("s td 1 3 3\nb 1 1 2 3\n")
    assert td.bags[1] == {1, 2, 3} and td.width == 2


def test_parse_td_two_bags():
    td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert td.width == 1
    assert validate(path_graph(3), td).valid


def test_parse_td_errors():
    with pytest.raises(ParseError, match="line 5: duplicate tree edge"):
        parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n2 1\n")  # cyclic
    with pytest.raises(ParseError, match="line 6: duplicate tree edge"):
        parse_td("s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3 3\n1 2\n1 2\n")  # the same edge twice
    with pytest.raises(ParseError, match=r"line 4: bad tree edge \(1, 1\)"):
        parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 1\n")  # a loop
    with pytest.raises(ParseError, match="line 2"):
        parse_td("s td 2 2 3\nb 3 1\n1 2\n")  # bag index out of range
    with pytest.raises(ParseError, match="line 1"):
        parse_td("b 1 1\n")  # content before header
    with pytest.raises(ParseError, match="line 0: 3 bags need 2 tree edges"):
        parse_td("s td 3 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")  # forest, not a tree
    with pytest.raises(ParseError, match="line 0: tree edges do not form a tree"):
        parse_td("s td 4 2 3\nb 1 1\nb 2 2\nb 3 3\nb 4 3\n1 2\n2 3\n1 3\n")  # cycle, bag 4 apart
    # a header's bag count sizes nothing until the edge lines can form a tree of that many bags
    with pytest.raises(ParseError, match="1000000000 bags need 999999999 tree edges, found 0"):
        parse_td("s td 1000000000 1 1\nb 1 1\n")


def test_td_round_trip_random():
    rng = random.Random(23)
    for trial in range(25):
        g, td = gen_partial_ktree(rng.randint(5, 40), rng.choice([1, 2, 3]), 0.8, seed=trial)
        back = parse_td(write_td(td, n_vertices=g.n))
        # identity up to the writer's node renumbering
        order_a = sorted(td.bags.values(), key=sorted)
        order_b = sorted(back.bags.values(), key=sorted)
        assert order_a == order_b
        assert len(back.tree_edges) == len(td.tree_edges)
        assert validate(g, back).valid


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_gen_full_ktree():
    g, td = gen_partial_ktree(30, 3, 1.0, seed=1)
    assert validate(g, td).valid
    assert td.width == 3
    assert g.m == 6 + (30 - 4) * 3  # seed K4 + three edges per added vertex


def test_gen_forest_like():
    g, td = gen_partial_ktree(40, 1, 0.5, seed=2)
    assert validate(g, td).valid and td.width == 1
    sub = g
    assert sub.m == sub.n - len(sub.connected_components())  # forest


def test_gen_deterministic():
    g1, td1 = gen_partial_ktree(25, 2, 0.7, seed=9)
    g2, td2 = gen_partial_ktree(25, 2, 0.7, seed=9)
    assert g1 == g2 and td1.bags == td2.bags


def test_gen_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_partial_ktree(2, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_partial_ktree(10, 2, 1.5, seed=0)


def test_gen_always_valid_with_exact_width():
    rng = random.Random(4)
    for trial in range(30):
        k = rng.choice([1, 2, 3, 4])
        g, td = gen_partial_ktree(rng.randint(k + 1, 60), k, rng.random(), seed=trial)
        assert validate(g, td).valid
        assert td.width == k


def test_gen_connected_variant():
    for trial in range(10):
        g, td = gen_connected_partial_ktree(30, 2, 0.4, seed=trial)
        assert g.is_connected()
        assert validate(g, td).valid and td.width == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """json.loads that rejects the Infinity and NaN plain json.loads accepts."""
    return json.loads(text, parse_constant=_no_constant)


def test_cli_gen_validate_solve(tmp_path):
    gr = tmp_path / "g.gr"
    td = tmp_path / "g.td"
    out = tmp_path / "report.json"
    assert main(["gen", "--n", "30", "--k", "2", "--p", "0.9", "--seed", "5",
                 "--out", str(gr), "--td-out", str(td)]) == 0
    assert main(["td", "validate", "--graph", str(gr), "--td", str(td)]) == 0
    assert main([
        "solve", "--problem", "vc", "--eps", "0.5", "--graph", str(gr),
        "--td", str(td), "--oracle", "exact-dp", "--out", str(out),
    ]) == 0
    row = strict_json(out.read_text())
    assert row["ratio"] is not None and row["ratio"] <= 1.5
    assert row["max_query_vertices"] <= row["declared_query_bound"]


def test_cli_solve_without_td_uses_heuristic(tmp_path):
    gr = tmp_path / "g.gr"
    gr.write_text(write_gr(complete_graph(5)))
    out = tmp_path / "r.json"
    assert main(["solve", "--problem", "vc", "--eps", "1.0", "--graph", str(gr),
                 "--oracle", "exact-bf", "--out", str(out)]) == 0
    row = strict_json(out.read_text())
    assert row["td_source"] == "heuristic-min-degree"
    assert row["width"] == 4


def test_cli_friendly_engine(tmp_path):
    gr = tmp_path / "g.gr"
    td = tmp_path / "g.td"
    main(["gen", "--n", "40", "--k", "2", "--p", "0.9", "--seed", "3",
          "--out", str(gr), "--td-out", str(td)])
    out = tmp_path / "r.json"
    assert main(["solve", "--problem", "is", "--engine", "friendly", "--eps", "1.0",
                 "--graph", str(gr), "--td", str(td), "--oracle", "exact-dp",
                 "--out", str(out)]) == 0
    row = strict_json(out.read_text())
    assert row["ratio"] is not None and 2 * row["value"] >= row["opt"]


@pytest.mark.parametrize(
    "engine, flags, reason",
    [
        ("friendly", ["--threshold-scale", "0"], "threshold_scale"),
        ("friendly", ["--threshold-scale", "-1"], "threshold_scale"),
        ("friendly", ["--threshold-scale", "nan"], "threshold_scale"),
        ("direct", ["--threshold-scale", "nan"], "threshold_scale"),
        ("direct", ["--oracle", "lossy:inf"], "target ratio"),
        ("direct", ["--oracle", "lossy:nan"], "target ratio"),
    ],
)
def test_cli_rejects_out_of_range_numbers(tmp_path, capsys, engine, flags, reason):
    gr = tmp_path / "g.gr"
    td = tmp_path / "g.td"
    main(["gen", "--n", "40", "--k", "2", "--p", "0.9", "--seed", "3",
          "--out", str(gr), "--td-out", str(td)])
    capsys.readouterr()
    argv = ["solve", "--problem", "vc", "--engine", engine, "--eps", "0.5",
            "--graph", str(gr), "--td", str(td), "--oracle", "exact-dp", *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and reason in err[0]


def test_cli_direct_is_clamped_window_solves_small_remainder(tmp_path, capsys):
    # Once the remainder has width 0 the scaled window drops below one
    # vertex; the clamped window then covers the whole remainder, which is
    # solved directly instead of split at the root.
    gr = tmp_path / "g.gr"
    td = tmp_path / "g.td"
    main(["gen", "--n", "50", "--k", "1", "--p", "0.8", "--seed", "0",
          "--out", str(gr), "--td-out", str(td)])
    capsys.readouterr()
    argv = ["solve", "--problem", "is", "--engine", "direct", "--eps", "1.0",
            "--graph", str(gr), "--td", str(td), "--oracle", "exact-dp",
            "--threshold-scale", "0.05"]
    assert main(argv) == 0
    row = strict_json(capsys.readouterr().out)
    assert "window-clamped" in row["flags"] and row["recursion_depth"] > 0


@pytest.mark.parametrize(
    "engine, problem, flags",
    [
        # lossy padding once computed floor(c * value), which overflows at c = 1e308
        ("direct", "vc", ["--eps", "0.5", "--oracle", "lossy:1e308"]),
        # the is kernel's size bound (budget + 1) ** 2 overflowed on a huge budget
        ("friendly", "is", ["--eps", "1e-300", "--oracle", "exact-dp"]),
        ("friendly", "is", ["--eps", "0.5", "--threshold-scale", "1e300", "--oracle", "exact-dp"]),
    ],
)
def test_cli_extreme_finite_numbers_solve(tmp_path, capsys, engine, problem, flags):
    gr = tmp_path / "g.gr"
    td = tmp_path / "g.td"
    main(["gen", "--n", "40", "--k", "2", "--p", "0.8", "--seed", "1",
          "--out", str(gr), "--td-out", str(td)])
    argv = ["solve", "--problem", problem, "--engine", engine,
            "--graph", str(gr), "--td", str(td), *flags]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert strict_json(captured.out)["value"] > 0


def test_cli_subconnected_empty_graph(tmp_path, capsys):
    gr = tmp_path / "e.gr"
    td = tmp_path / "e.td"
    gr.write_text("p tw 0 0\n")
    td.write_text("s td 1 0 0\nb 1\n")
    assert main(["td", "subconnected", "--graph", str(gr), "--td", str(td)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert parse_td(captured.out).bags == {1: frozenset()}


def test_cli_subconnected_disconnected_graph(tmp_path, capsys):
    gr = tmp_path / "d.gr"
    td = tmp_path / "d.td"
    gr.write_text("p tw 4 2\n1 2\n3 4\n")
    td.write_text("s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n")
    assert main(["td", "subconnected", "--graph", str(gr), "--td", str(td)]) == 1
    err = capsys.readouterr().err
    assert err == "error: subconnected form needs a connected graph\n"


def test_cli_td_transforms(tmp_path):
    gr = tmp_path / "g.gr"
    td = tmp_path / "g.td"
    nice_out = tmp_path / "nice.td"
    sc_out = tmp_path / "sc.td"
    main(["gen", "--n", "25", "--k", "2", "--p", "1.0", "--seed", "7",
          "--out", str(gr), "--td-out", str(td)])
    assert main(["td", "nice", "--graph", str(gr), "--td", str(td), "--out", str(nice_out)]) == 0
    assert main(["td", "validate", "--graph", str(gr), "--td", str(nice_out)]) == 0
    assert main(["td", "subconnected", "--graph", str(gr), "--td", str(td), "--out", str(sc_out)]) == 0
    assert main(["td", "validate", "--graph", str(gr), "--td", str(sc_out)]) == 0
    # make_subconnected numbers its nodes bottom-up, so the file's last node is the root
    sc = parse_td(sc_out.read_text())
    g = parse_gr(gr.read_text())
    _, vsets = reference_subtree_vertices(TreeDecomposition(sc.bags, sc.tree_edges, root=max(sc.bags)))
    assert all(g.induced_subgraph(vs).is_connected() for vs in vsets.values())


def test_cli_errors_exit_code_one(tmp_path, capsys):
    gr = tmp_path / "bad.gr"
    gr.write_text("1 2\n")
    assert main(["solve", "--problem", "vc", "--eps", "0.5", "--graph", str(gr)]) == 1
    good = tmp_path / "g.gr"
    good.write_text(write_gr(path_graph(4)))
    assert main(["solve", "--problem", "nope", "--eps", "0.5", "--graph", str(good)]) == 1
    # invalid decomposition for the graph
    td = tmp_path / "bad.td"
    td.write_text("s td 1 1 4\nb 1 1\n")
    assert main(["td", "validate", "--graph", str(good), "--td", str(td)]) == 1
    # a bag count the edge lines cannot match, too large to build, ends in one line
    capsys.readouterr()
    td.write_text("s td 1000000000 1 1\nb 1 1\n")
    assert main(["td", "validate", "--graph", str(good), "--td", str(td)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_bench(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "problem": "vc",
        "engine": "direct",
        "eps": [0.5, 1.0],
        "oracle": "exact-dp",
        "generator": {"n": 60, "k": 2, "p": 0.9, "seed": 11, "repetitions": 2},
    }))
    out = tmp_path / "bench.json"
    csv_out = tmp_path / "bench.csv"
    assert main(["bench", str(spec), "--out", str(out), "--csv", str(csv_out)]) == 0
    data = strict_json(out.read_text())
    assert data["aggregate"]["runs"] == 4
    assert data["aggregate"]["failures"] == 0
    assert data["aggregate"]["max_ratio"] <= 2.0
    assert all(r["seed"] is not None for r in data["rows"])
    assert csv_out.read_text().count("\n") == 5  # header + 4 rows


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"eps": 0.5}, "'problem'"),
        ([1, 2], "JSON object"),
        ({"problem": "vc", "eps": "abc", "generator": {"n": 20, "k": 1, "p": 0.9, "seed": 1}},
         "'eps'"),
        ({"problem": "vc", "eps": 0.5, "generator": {"n": 20, "k": 1, "p": 0.9}}, "'seed'"),
    ],
)
def test_cli_bench_rejects_malformed_spec(tmp_path, capsys, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["bench", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]


def test_run_one_lossy_oracle():
    g, td = gen_partial_ktree(80, 2, 0.9, seed=21)
    row = run_one(g, td, "vc", "direct", 1.0, "lossy:1.5")
    assert row["ratio"] <= 1.5 * 2.0
    assert row["value"] >= row["opt"]


def test_run_one_ecc_forest_ratio_against_edge_count():
    g, td = gen_partial_ktree(300, 1, 0.8, seed=13)
    row = run_one(g, td, "ecc", "direct", 1.0, "exact-tf-ecc")
    assert row["opt"] == g.m  # triangle-free identity
    assert row["ratio"] <= 2.0
    assert row["max_query_vertices"] <= row["declared_query_bound"]


def test_cli_solve_exits_two_on_a_query_over_its_bound(tmp_path, capsys, monkeypatch):
    # Without its NT kernel, direct vc queries a 41-vertex star whole, over
    # the declared bound of 32 at eps 1; the engine loop's gate ends the run.
    import atk.kernels as kernels

    gr = tmp_path / "star.gr"
    gr.write_text(write_gr(Graph(range(1, 42), [(1, v) for v in range(2, 42)])))
    monkeypatch.setattr(kernels, "vc_nt_kernel", lambda: None)
    argv = ["solve", "--problem", "vc", "--eps", "1.0", "--graph", str(gr), "--oracle", "exact-dp"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "internal invariant violation: audited query size 41 exceeds declared bound 32.0\n"


MAPPED = (ParseError, ValueError, OracleRefused, OSError, InternalInvariantViolation)


def _infeasible_oracle(name, problem):
    return Oracle("infeasible", 1.0, 100, lambda kind, q, q_td: Solution.of_vertices(()))


@pytest.mark.parametrize(
    "error, argv, code",
    [
        (ParseError, ["solve", "--problem", "vc", "--eps", "0.5", "--graph", "{bad}"], 1),
        (ValueError, ["solve", "--problem", "nope", "--eps", "0.5", "--graph", "{gr}"], 1),
        (OracleRefused, ["solve", "--problem", "cc", "--engine", "friendly", "--eps", "1.0",
                         "--graph", "{gr}", "--td", "{td}", "--oracle", "exact-bf"], 1),
        (OSError, ["solve", "--problem", "vc", "--eps", "0.5", "--graph", "{missing}"], 1),
        (InternalInvariantViolation, ["solve", "--problem", "vc", "--eps", "0.5",
                                      "--graph", "{gr}", "--td", "{td}"], 2),
    ],
)
def test_cli_maps_each_error_to_its_exit_code(tmp_path, capsys, monkeypatch, error, argv, code):
    paths = {name: tmp_path / name for name in ("bad", "gr", "td", "missing")}
    paths["bad"].write_text("1 2\n")  # an edge before the header
    main(["gen", "--n", "30", "--k", "2", "--p", "0.8", "--seed", "0",
          "--out", str(paths["gr"]), "--td-out", str(paths["td"])])
    capsys.readouterr()
    if error is InternalInvariantViolation:
        monkeypatch.setattr(cli, "build_oracle", _infeasible_oracle)
    argv = [a.format(**paths) for a in argv]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(error) as raised:
        args.fn(args)
    # not one of the more specific mapped classes (ParseError is a ValueError)
    narrower = [c for c in MAPPED if c is not error and issubclass(c, error)]
    assert not isinstance(raised.value, tuple(narrower))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert "Traceback" not in err
    prefix = "internal invariant violation: " if code == 2 else "error: "
    assert err.startswith(prefix + str(raised.value))


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------


def test_readme_flag_table_lists_exactly_the_raised_flags():
    root = Path(__file__).resolve().parents[1]
    raised = {
        flag
        for path in (root / "src" / "atk").glob("*.py")
        for flag in re.findall(r'flags\.add\("([a-z0-9-]+)"\)', path.read_text())
    }
    readme = (root / "README.md").read_text()
    table = readme.split("| flag | raised by | when |", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `([a-z0-9-]+)` \|", table, re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == raised


# ---------------------------------------------------------------------------
# Problem records
# ---------------------------------------------------------------------------

PROBLEM_NAMES = {"vc", "is", "ecc", "etp", "cvc", "fvs", "eds", "cc", "hpack"}
NAME_TABLES = {"problems.py": "RECORDS", "oracles.py": "SEARCHES"}


def _names_in(node) -> bool:
    """Whether ``node`` is a problem-name string, or a literal collection holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_names_in, node.elts))
    return isinstance(node, ast.Constant) and node.value in PROBLEM_NAMES


def test_no_problem_name_is_tested_outside_the_record_tables():
    """What sets a problem apart is read from its record (``problems.RECORDS``)
    or, for its exhaustive search, from ``oracles.SEARCHES``: no comparison
    anywhere else in the package holds a problem's name."""
    tests = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "atk").glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = [range(node.lineno, node.end_lineno + 1) for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and NAME_TABLES.get(path.name) in {t.id for t in (
                      node.targets if isinstance(node, ast.Assign) else [node.target])
                      if isinstance(t, ast.Name)}]
        tests += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(map(_names_in, [node.left, *node.comparators]))
                  and not any(node.lineno in lines for lines in exempt)]
    assert tests == []


def test_the_package_holds_no_assert():
    """``cli.main`` maps no ``AssertionError`` to an exit code, and
    ``python -O`` drops assert statements: a check in the package raises
    one of its own errors (``InternalInvariantViolation`` for a case the
    analysis rules out), so neither an ``assert`` statement nor an
    ``AssertionError`` may appear in ``src/atk``."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "atk").glob("*.py")):
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert found == []


def test_the_package_scans_no_vertex_subsets():
    """Copies of a pattern are listed from adjacency, by
    ``problems.pattern_copies``: no module in ``src/atk`` imports
    ``permutations`` or runs ``combinations`` over a graph's vertices, the
    O(n^|H|) scans that it replaced."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "atk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            called = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "combinations"
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any(alias.name.endswith("permutations") for alias in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "permutations"
                    or called and node.args and isinstance(node.args[0], ast.Attribute)
                    and node.args[0].attr == "vertices"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_package_stores_no_node_kinds():
    """A nice node's kind follows from its shape (``NiceTreeDecomposition``
    says how), so no module in ``src/atk`` names one in a string: a stored
    kind list would need such names to be built and read."""
    kinds = {"leaf", "introduce", "forget", "join"}
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "atk").glob("*.py")):
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Constant) and node.value in kinds]
    assert found == []


def test_every_problem_record_has_one_exhaustive_search():
    assert set(SEARCHES) == set(RECORDS)
    assert {kind.record for kind in KINDS.values()} <= set(RECORDS.values())
    assert all(problem.kind == KINDS[name] for name, problem in builtin_instances().items())
