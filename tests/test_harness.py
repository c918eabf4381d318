import dataclasses
import hashlib
import io
import json
import random
import time

import pytest

from conftest import depth_capped, save_profile, validate_trace
from expander_routing.cli import main as cli_main
from expander_routing.errors import CallerError, FormatError
from expander_routing.expanders import gen_random_regular_graph
from expander_routing.graph import format_graph, load_graph, save_graph
from expander_routing.harness import (
    TraceCommand,
    _percentile,
    format_trace,
    gen_workload,
    load_trace,
    parse_trace,
    run_trace,
)
from expander_routing.preprocess import eulerian_orient
from expander_routing.profiles import derive_profile, desk_profile, format_profile, load_profile
from expander_routing.router import RoutingEngine


def test_parse_basic():
    cmds = parse_trace("find 0 5\nremove 0")
    assert [c.kind for c in cmds] == ["find", "remove"]
    assert (cmds[0].a, cmds[0].b) == (0, 5)
    assert cmds[1].ref == 0


def test_parse_skips_comments_and_blanks():
    cmds = parse_trace("# comment\n\nverify")
    assert [c.kind for c in cmds] == ["verify"]


def test_parse_error_carries_line_number():
    with pytest.raises(FormatError, match="line 1"):
        parse_trace("find 0")
    with pytest.raises(FormatError, match="line 3"):
        parse_trace("find 0 1\nverify\nwiggle")


def test_format_round_trip():
    cmds = [
        TraceCommand("find", a=1, b=2, line=1),
        TraceCommand("remove", ref=-1, line=2),
        TraceCommand("verify", line=3),
        TraceCommand("stats", line=4),
    ]
    assert parse_trace(format_trace(cmds)) == [
        TraceCommand("find", a=1, b=2, line=1),
        TraceCommand("remove", ref=-1, line=2),
        TraceCommand("verify", line=3),
        TraceCommand("stats", line=4),
    ]


def make_engine(n=150, d=30, seed=61):
    g = gen_random_regular_graph(n, d, seed=seed)
    return RoutingEngine(g, desk_profile(n, d))


def test_run_empty_trace():
    report = run_trace(make_engine(), [])
    assert report.requests_served == 0
    assert report.clean


def test_run_records_caller_error_and_continues():
    eng = make_engine()
    cmds = parse_trace("find 3 3\nfind 1 2\nverify")
    report = run_trace(eng, cmds)
    assert len(report.failures) == 1
    line, cls, _ = report.failures[0]
    assert (line, cls) == (1, "caller-error")
    assert report.requests_served == 1
    assert report.verifies_run == 1
    assert report.verify_findings == 0


def test_remove_by_negative_ref():
    eng = make_engine()
    cmds = parse_trace("find 0 10\nfind 1 11\nremove -2\nverify")
    report = run_trace(eng, cmds)
    assert report.clean
    assert list(eng.ledger.paths) == [1]  # -2 removed the older of the two


def test_stats_and_emit_lines():
    eng = make_engine()
    lines = []
    run_trace(eng, parse_trace("find 0 10\nstats"), emit=lines.append)
    assert lines[0].startswith("PATH 0 0 10 ")
    assert lines[0].split(" : ")[1].split()[0] == "0"
    assert lines[1] == "STATS live=1 served=1 failures=0"


def test_wall_clock_times_the_engine_only():
    eng = make_engine()
    nap = 0.1
    report = run_trace(
        eng, parse_trace("find 0 10\nfind 1 11\nfind 2 12\nfind 3 3"),
        emit=lambda line: time.sleep(nap),
    )
    assert report.requests_served == 3 and len(report.failures) == 1
    # every request emits a PATH or FAIL line, so a clock around emit reads >= nap
    assert report.wall_clock["p50"] < nap / 10
    assert report.wall_clock["max"] < nap / 2


@pytest.mark.parametrize(
    "values,p,expected",
    [(range(1, 101), 99, 99), (range(1, 101), 50, 50), ([1, 2], 50, 1), (range(1, 11), 90, 9)],
)
def test_percentile_is_nearest_rank(values, p, expected):
    assert _percentile(list(values), p) == expected


def test_verify_every_runs_checks():
    eng = make_engine()
    cmds = gen_workload("churn", eng.n, {"ops": 40, "live_target": 4}, 5,
                        eng.profile.endpoint_cap, eng.profile.r)
    report = run_trace(eng, cmds, verify_every=2)
    assert report.verifies_run == len(cmds) // 2
    assert report.clean


def test_verify_seconds_time_the_verify_calls_only():
    eng = make_engine()
    nap, verify = 0.05, eng.verify
    eng.verify = lambda: time.sleep(nap) or verify()
    report = run_trace(eng, parse_trace("find 0 10\nverify\nfind 1 11\nfind 2 12\nverify"),
                       verify_every=2, emit=lambda line: time.sleep(nap))
    # two verify commands and the one after the second request; the naps
    # in emit, which follows each request and each verify command, add nothing
    assert report.verifies_run == 3 and report.clean
    assert 3 * nap <= report.verify_s < 4 * nap


@pytest.mark.parametrize("kind", ["churn", "fill", "hotspot"])
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_generated_workloads_respect_rules(kind, seed):
    n, cap, r = 80, 3, 12
    params = {"ops": 200, "live_target": 6, "count": 10}
    cmds = gen_workload(kind, n, params, seed, cap, r)
    assert validate_trace(cmds, n, cap, r) == []
    if kind == "fill":
        assert sum(1 for c in cmds if c.kind == "find") == 10


def test_fill_of_zero_is_empty():
    assert gen_workload("fill", 50, {"count": 0}, 1, 2, 10) == []


def test_fill_must_stay_below_volume_cap():
    with pytest.raises(CallerError):
        gen_workload("fill", 50, {"count": 10}, 1, 2, 10)


@pytest.mark.parametrize("kind", ["churn", "hotspot"])
@pytest.mark.parametrize("live_target", [12, 1000])
def test_live_target_at_or_over_r_is_refused(kind, live_target):
    # hotspot used to clamp such a target to r - 1 without a word
    with pytest.raises(CallerError, match="^%s live_target must stay below r=12$" % kind):
        gen_workload(kind, 80, {"ops": 50, "live_target": live_target}, 1, 3, 12)


def test_hotspot_rotates_before_the_cap():
    cap = 4
    cmds = gen_workload("hotspot", 60, {"ops": 120, "live_target": 30}, 9, cap, 40)
    assert validate_trace(cmds, 60, cap, 40) == []
    streak = {}
    for c in cmds:
        if c.kind == "find":
            streak[c.a] = streak.get(c.a, 0) + 1
    assert max(streak.values()) <= cap - 1


# sha256 of format_trace(gen_workload(kind, 80, GEN_PARAMS, seed, 3, 12)) as
# recorded before the generator replayed the rules on router.Ledger; a
# change means the generator emits different requests
GEN_PARAMS = {"ops": 300, "live_target": 8, "count": 11}
GOLDEN_TRACES = {
    ("churn", 3): "22ea3068935b27fc45f0f62717366aa5c2793327af19f509c97032cd989f7c17",
    ("churn", 8): "e947aa89d80bf614bec20f8e96ba2f18f7de975dae3ff7957194e908955f2d32",
    ("fill", 3): "c4cbea9af50ad93c57c169cdac66d1556010451ab3c78fd7c5cea4b4d9c0ce63",
    ("fill", 8): "77ccfd1fb00025d6ba8cae29bb54bda9d5d3f330d63593aa609db68ceeb982a1",
    ("hotspot", 3): "bd71d97e8d7c059a8881b2454c87c0c500d24dc7da8787752084b6f0474420a1",
    ("hotspot", 8): "9a4118bd5cf8a30810c8a9e8d12f0b8354e1fa10d4b3c9dcb9cbea2a1597d9ec",
}


@pytest.mark.parametrize("kind,seed", sorted(GOLDEN_TRACES))
def test_generated_trace_matches_golden(kind, seed):
    text = format_trace(gen_workload(kind, 80, GEN_PARAMS, seed, 3, 12))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN_TRACES[kind, seed]


def rule_breaking_trace(rng, n, ops):
    """Finds and removes that often break the rules: endpoints out of range
    or equal, endpoints piled on four vertices, dead ids, negative refs
    past the live set."""
    lines = []
    finds = 0
    for _ in range(ops):
        if rng.random() < 0.6:
            a = rng.choice([rng.randrange(n), rng.randrange(4), -1, n])
            b = rng.choice([rng.randrange(n), rng.randrange(4), a])
            lines.append("find %d %d" % (a, b))
            finds += 1
        else:
            lines.append("remove %d" % rng.randrange(-8, finds + 2))
    return parse_trace("\n".join(lines))


@pytest.mark.parametrize("seed", range(5))
def test_engine_and_validator_refuse_the_same_requests(seed):
    n = 150
    eng = RoutingEngine(gen_random_regular_graph(n, 30, seed=61), dataclasses.replace(desk_profile(n, 30), r=6))
    cmds = rule_breaking_trace(random.Random(seed), n, 300)
    report = run_trace(eng, cmds)
    assert {cls for _, cls, _ in report.failures} == {"caller-error"}
    refused = [line for line, _, _ in report.failures]
    problems = validate_trace(cmds, n, eng.profile.endpoint_cap, eng.profile.r)
    assert refused == [int(p.split(":")[0].split()[1]) for p in problems]
    assert report.requests_served > 0


def test_removes_after_a_failed_find_reach_the_paths_they_name():
    # a one-hop budget makes most rule-abiding finds fail with an expansion
    # violation; they still take their trace id
    n = 150
    prof = depth_capped(desk_profile(n, 30), 1)
    eng = RoutingEngine(gen_random_regular_graph(n, 30, seed=21), prof)
    cmds = gen_workload("churn", n, {"ops": 200, "live_target": 4}, 3, prof.endpoint_cap, prof.r)
    lines = []
    report = run_trace(eng, cmds, emit=lines.append)
    finds = [c for c in cmds if c.kind == "find"]  # trace id = index here
    failed = {line for line, cls, _ in report.failures if cls == "expansion-violation"}
    failed_ids = {i for i, c in enumerate(finds) if c.line in failed}
    assert failed_ids
    by_line = {c.line: c for c in cmds}
    refused = [(line, msg) for line, cls, msg in report.failures if cls == "caller-error"]
    assert refused == [
        (c.line, "path id %d was never served: its find failed" % c.ref)
        for c in cmds if c.kind == "remove" and c.ref in failed_ids
    ]
    assert all(by_line[line].kind == "remove" for line, _ in refused)
    # PATH lines carry the trace id, and the paths left live are the ones
    # the trace left live, minus the failed finds
    served = {int(line.split()[1]) for line in lines if line.startswith("PATH")}
    assert served == set(range(len(finds))) - failed_ids
    removed = {c.ref for c in cmds if c.kind == "remove"}
    live = [(finds[i].a, finds[i].b) for i in sorted(served - removed)]
    assert [(rec.a, rec.b) for rec in eng.ledger.paths.values()] == live
    assert eng.verify().ok


def test_workload_rejects_unknown_kind():
    with pytest.raises(CallerError):
        gen_workload("stampede", 10, {}, 1, 2, 5)


# --- command line -----------------------------------------------------------


def test_cli_pipeline(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    profile_path = tmp_path / "p.txt"
    trace_path = tmp_path / "t.txt"
    json_path = tmp_path / "report.json"

    assert cli_main(["gen", "--n", "150", "--d", "30", "--seed", "3",
                     "--out", str(graph_path)]) == 0
    save_profile(profile_path, desk_profile(150, 30))
    assert cli_main(["gen-workload", "--graph", str(graph_path), "--profile",
                     str(profile_path), "--kind", "churn", "--seed", "11",
                     "--ops", "60", "--out", str(trace_path)]) == 0
    code = cli_main(["run", "--graph", str(graph_path), "--profile", str(profile_path),
                     "--trace", str(trace_path), "--verify-every", "10",
                     "--json", str(json_path), "--quiet"])
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["failures"] == []
    assert payload["requests_served"] == 60
    assert payload["path_length_histogram"] == {
        "2": 3, "3": 7, "4": 15, "5": 6, "6": 1
    }
    # the same 32 finds by connector length: 5 of one G3 edge, 11 of two,
    # 16 of three
    assert payload["connector_length_histogram"] == {"1": 5, "2": 11, "3": 16}
    assert payload["oracle_call_counts"] == {
        "out_add": 67, "out_remove": 63, "in_add": 27, "in_remove": 23, "walk_searches": 0
    }
    assert sorted(payload["wall_clock"]) == ["max", "p50", "p90", "p99"]
    # graph load and engine build, timed apart from the requests
    assert payload["build_s"] > 0
    assert (payload["verifies_run"], payload["verify_findings"]) == (6, 0)
    out = capsys.readouterr().out
    assert "connector lengths: 1:5 2:11 3:16\n" in out
    assert "build seconds: %.6f\n" % payload["build_s"] in out
    assert "verify seconds: %.6f\n" % payload["verify_s"] in out and payload["verify_s"] > 0


@pytest.mark.parametrize("r", [0, 1])
def test_hotspot_without_room_for_a_live_path_is_refused(tmp_path, capsys, r):
    with pytest.raises(CallerError, match="hotspot needs a live target"):
        gen_workload("hotspot", 150, {"ops": 50}, 1, 2, r)
    graph_path = tmp_path / "g.txt"
    profile_path = tmp_path / "p.txt"
    save_graph(graph_path, gen_random_regular_graph(150, 30, seed=3))
    save_profile(profile_path, dataclasses.replace(desk_profile(150, 30), r=r))
    code = cli_main(["gen-workload", "--graph", str(graph_path), "--profile",
                     str(profile_path), "--kind", "hotspot", "--seed", "1",
                     "--ops", "50", "--out", str(tmp_path / "t.txt")])
    assert code == 2
    assert "hotspot needs a live target" in capsys.readouterr().err


def _gen_workload_argv(tmp_path, kind):
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(150, 30, seed=3))
    return ["gen-workload", "--graph", str(graph_path), "--desk", "--kind", kind,
            "--seed", "1", "--out", str(tmp_path / "t.txt")]


@pytest.mark.parametrize(
    "kind,sizes,message",
    [
        ("churn", [], "--kind churn needs --ops"),
        ("hotspot", ["--live-target", "3"], "--kind hotspot needs --ops"),
        ("fill", ["--ops", "5"], "--kind fill needs --count"),
        ("churn", ["--ops", "10", "--count", "5"], "--kind churn takes no --count"),
        ("hotspot", ["--ops", "10", "--count", "5"], "--kind hotspot takes no --count"),
        ("fill", ["--count", "5", "--ops", "5", "--live-target", "3"],
         "--kind fill takes no --ops, --live-target"),
    ],
    ids=["churn-no-ops", "hotspot-no-ops", "fill-no-count", "churn-count", "hotspot-count",
         "fill-ops-live-target"],
)
def test_cli_gen_workload_needs_the_size_of_its_kind(tmp_path, capsys, kind, sizes, message):
    # without its size a kind writes an empty trace, and an option the kind
    # does not read would be dropped without a word: both are refused
    argv = _gen_workload_argv(tmp_path, kind)
    assert cli_main(argv + sizes) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not (tmp_path / "t.txt").exists()


@pytest.mark.parametrize("option", ["--ops", "--count", "--live-target"])
def test_cli_gen_workload_refuses_a_negative_size(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as exc:
        cli_main(_gen_workload_argv(tmp_path, "churn") + [option, "-5"])
    assert exc.value.code == 2
    assert "argument %s: must be at least 0, got -5" % option in capsys.readouterr().err
    assert not (tmp_path / "t.txt").exists()


@pytest.mark.parametrize("graph,source", [
    ("directed", ["--desk"]),
    ("undirected", ["--profile", "p31.txt"]),
    ("undirected", ["--profile", "p600.txt"]),
], ids=["directed-desk", "other-d", "other-n"])
def test_cli_gen_workload_refuses_what_run_refuses(tmp_path, capsys, graph, source):
    # a trace for a graph and profile that `route run` refuses would be
    # written and exit 0: here it is the same usage error, exit 2
    g = gen_random_regular_graph(300, 30, seed=3)
    save_graph(tmp_path / "undirected.txt", g)
    save_graph(tmp_path / "directed.txt", eulerian_orient(g))
    save_profile(tmp_path / "p31.txt", desk_profile(300, 31))
    save_profile(tmp_path / "p600.txt", desk_profile(600, 30))
    source = [str(tmp_path / a) if a.endswith(".txt") else a for a in source]
    graph_args = ["--graph", str(tmp_path / (graph + ".txt"))]
    for argv in (
        ["gen-workload", *graph_args, *source, "--kind", "churn", "--seed", "1",
         "--ops", "20", "--out", str(tmp_path / "t.txt")],
        ["run", *graph_args, *source, "--trace", str(tmp_path / "none.txt")],
        ["preprocess", graph_args[1], str(tmp_path / "s"), *source],
    ):
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        expected = (
            "error: %s expects an undirected graph file\n" % argv[0] if graph == "directed"
            else "error: profile is for"
        )
        assert err.startswith(expected)
    assert not (tmp_path / "t.txt").exists() and not (tmp_path / "s.header").exists()


def test_cli_run_flags_failures(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(150, 30, seed=3))
    trace_path = tmp_path / "t.txt"
    trace_path.write_text("find 5 5\n")
    code = cli_main(["run", "--graph", str(graph_path), "--desk",
                     "--trace", str(trace_path), "--quiet"])
    assert code == 1
    capsys.readouterr()


def test_cli_preprocess(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(100, 20, seed=2))
    profile_path = tmp_path / "prof.txt"
    save_profile(profile_path, derive_profile(100, 20, "1/10", "1/50", relaxed=True))
    prefix = str(tmp_path / "out")
    assert cli_main(["preprocess", str(graph_path), prefix, "--profile", str(profile_path)]) == 0
    for suffix in (".host", ".g1", ".g2", ".g3", ".header"):
        assert (tmp_path / ("out" + suffix)).exists()
    assert (tmp_path / "out.header").read_text() == "n=100\nd=20\nk=10\nd_prime=1\n"
    capsys.readouterr()


@pytest.mark.parametrize("d", [30, 31])
def test_cli_preprocess_writes_the_split_the_router_runs_on(tmp_path, capsys, d):
    g = gen_random_regular_graph(120, d, seed=3)
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, g)
    prefix = str(tmp_path / "out")
    assert cli_main(["preprocess", str(graph_path), prefix, "--desk"]) == 0
    split = RoutingEngine(g, desk_profile(120, d)).split
    for part in ("host", "g1", "g2", "g3"):
        assert (tmp_path / ("out." + part)).read_text() == format_graph(getattr(split, part))
    assert (tmp_path / "out.header").read_text() == "n=120\nd=%d\nk=15\nd_prime=6\n" % d
    capsys.readouterr()


def test_cli_preprocess_needs_a_profile(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(100, 20, seed=2))
    assert cli_main(["preprocess", str(graph_path), str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", "error: pass --profile FILE or --desk\n")
    assert list(tmp_path.iterdir()) == [graph_path]


@pytest.mark.parametrize("command", ["run", "gen-workload", "preprocess"])
def test_cli_refuses_profile_and_desk_together(tmp_path, capsys, command):
    # --desk was dropped without a word when --profile was given too: with
    # a profile for this graph the command ran on the file and exited 0
    graph_path, profile_path = tmp_path / "g.txt", tmp_path / "p.txt"
    save_graph(graph_path, gen_random_regular_graph(150, 30, seed=3))
    save_profile(profile_path, desk_profile(150, 30))
    out = tmp_path / "out"
    rest = {
        "run": ["--graph", str(graph_path), "--trace", str(tmp_path / "none.txt")],
        "gen-workload": ["--graph", str(graph_path), "--kind", "churn", "--seed", "1",
                         "--ops", "20", "--out", str(out)],
        "preprocess": [str(graph_path), str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *rest, "--profile", str(profile_path), "--desk"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --desk: not allowed with argument --profile" in captured.err
    assert sorted(tmp_path.iterdir()) == [graph_path, profile_path]


@pytest.mark.parametrize("argv,named", [
    (["run", "--graph", "-", "--desk", "--trace", "-"], "--graph, --trace"),
    (["run", "--graph", "G", "--profile", "-", "--trace", "-"], "--profile, --trace"),
    (["run", "--graph", "-", "--profile", "-", "--trace", "-"], "--graph, --profile, --trace"),
    (["gen-workload", "--graph", "-", "--profile", "-", "--kind", "fill", "--seed", "1",
      "--count", "2", "--out", "OUT"], "--graph, --profile"),
    (["preprocess", "-", "OUT", "--profile", "-"], "graph, --profile"),
], ids=["run-graph-trace", "run-profile-trace", "run-all", "gen-workload", "preprocess"])
def test_cli_refuses_two_inputs_on_stdin(tmp_path, capsys, monkeypatch, argv, named):
    # the first input read all of standard input and the next one read
    # nothing: `run --graph - --trace - --desk` served an empty trace, exit 0
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(150, 30, seed=3))
    stdin = io.TextIOWrapper(io.BytesIO(graph_path.read_bytes()))
    monkeypatch.setattr("sys.stdin", stdin)
    paths = {"G": str(graph_path), "OUT": str(tmp_path / "out")}
    assert cli_main([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr() == ("", "error: only one input may be - (standard input), got %s\n" % named)
    assert stdin.buffer.tell() == 0
    assert list(tmp_path.iterdir()) == [graph_path]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_spectrum_needs_an_iteration(tmp_path, capsys, value):
    # with no iteration the report would read "residual": Infinity, which is not JSON
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(12, 3, seed=0))
    with pytest.raises(SystemExit) as exc:
        cli_main(["spectrum", "--graph", str(graph_path), "--max-iters", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-iters: must be at least 1, got %s" % value in captured.err


@pytest.mark.parametrize("value,message", [
    ("inf", "not a ratio: 'inf'"),
    ("nan", "not a ratio: 'nan'"),
    ("1", "must lie in (0, 1), got 1"),
    ("0", "must lie in (0, 1), got 0"),
    ("-1", "must lie in (0, 1), got -1"),
])
def test_cli_spectrum_needs_a_tolerance_below_one_and_above_zero(tmp_path, capsys, value, message):
    # --tol inf reported "converged" after one iteration, with lambda near
    # 1.89 on a graph whose lambda is 4.28, and certified gamma from it
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(12, 3, seed=0))
    with pytest.raises(SystemExit) as exc:
        cli_main(["spectrum", "--graph", str(graph_path), "--tol", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --tol: %s" % message in captured.err


@pytest.mark.parametrize("desk", [["--desk"], []])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_cli_profile_needs_a_vertex(capsys, value, desk):
    # --desk used to divide by n = 0 (a ZeroDivisionError traceback, exit 1)
    with pytest.raises(SystemExit) as exc:
        cli_main(["profile", "--n", value, "--d", "30", *desk, "--out", "-"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n: must be at least 1, got %s" % value in captured.err


def test_cli_spectrum_and_expansion(tmp_path, capsys):
    graph_path = tmp_path / "k5.txt"
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    from expander_routing.graph import UndirectedGraph

    save_graph(graph_path, UndirectedGraph(5, edges))
    assert cli_main(["spectrum", "--graph", str(graph_path)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert abs(payload["lambda_estimate"] - 1.0) < 1e-6
    assert cli_main(["check-expansion", "--graph", str(graph_path),
                     "--beta", "1/2", "--gamma", "1", "--max-subset-size", "2"]) == 0
    capsys.readouterr()


def _check_expansion_argv(tmp_path, beta="1/2", gamma="1/10"):
    # a 12-vertex cubic graph on which subsets of size 3 find a witness
    graph_path = tmp_path / "g12.txt"
    save_graph(graph_path, gen_random_regular_graph(12, 3, seed=0))
    return ["check-expansion", "--graph", str(graph_path), "--beta", beta, "--gamma", gamma]


@pytest.mark.parametrize("value", ["x", "1/0"])
@pytest.mark.parametrize("option", ["--beta", "--gamma"])
def test_cli_bad_ratio_is_a_usage_error(tmp_path, capsys, option, value):
    # exit 2 with argparse's message, not a traceback and exit 1, which
    # check-expansion uses for "expansion does not hold"
    ratios = {"beta": "1/2", "gamma": "1/10", option[2:]: value}
    for argv in (
        ["profile", "--n", "600", "--d", "30", option, value, "--out", "-"],
        _check_expansion_argv(tmp_path, **ratios) + ["--max-subset-size", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "argument %s: not a ratio: %r" % (option, value) in capsys.readouterr().err


def test_cli_check_expansion_refuses_size_zero(tmp_path, capsys):
    argv = _check_expansion_argv(tmp_path)
    assert cli_main(argv + ["--max-subset-size", "3"]) == 1
    assert not json.loads(capsys.readouterr().out)["holds"]
    assert cli_main(argv + ["--max-subset-size", "0"]) == 2
    assert capsys.readouterr().err == "error: max_subset_size must be at least 1, got 0\n"


@pytest.mark.parametrize("beta, gamma", [("-1", "1/10"), ("0", "0"), ("1/2", "-1")])
def test_cli_check_expansion_refuses_bad_beta_and_gamma(tmp_path, capsys, beta, gamma):
    # a usage error (exit 2), not "holds" (exit 0) or a one-vertex witness (exit 1)
    argv = _check_expansion_argv(tmp_path, beta=beta, gamma=gamma) + ["--max-subset-size", "3"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need beta > 0 and gamma >= 0, got beta=%s, gamma=%s\n" % (beta, gamma)


def test_cli_profile_out(tmp_path, capsys):
    out = tmp_path / "prof.txt"
    assert cli_main(["profile", "--n", "1024", "--d", "400", "--beta", "1/100",
                     "--gamma", "1/2000", "--out", str(out)]) == 0
    text = out.read_text()
    assert "d_prime=20" in text
    # strict constants at this size cannot route; they are written, with a warning
    assert "r=0" in text.splitlines()
    assert capsys.readouterr().err.splitlines() == [
        "warning: strict profile cannot route (r = 0); every find "
        "will hit the volume cap r=0; use --desk for one that can"
    ]


def test_cli_profile_at_one_vertex(tmp_path, capsys):
    # ceil_log2(1) = 0: the first capacity chain bounds nothing, and a strict
    # profile is written with the r the second allows, not a ZeroDivisionError
    out = tmp_path / "n1.txt"
    assert cli_main(["profile", "--n", "1", "--d", "400", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "r=0" in lines
    # the depth budget ceil_log2(n) is derived, not written
    assert not [line for line in lines if line.startswith("depth_cap")]
    assert "every find will hit the volume cap r=0" in capsys.readouterr().err


@pytest.mark.parametrize("n,d", [(100, 20), (600, 30), (2400, 30), (9600, 31)])
def test_cli_profile_refuses_relaxed_profile_that_cannot_route(tmp_path, capsys, n, d):
    out = tmp_path / "prof.txt"
    assert cli_main(["profile", "--n", str(n), "--d", str(d), "--relaxed", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "(r, oracle_out_cap, oracle_in_cap = 0)" in err
    assert "--desk" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "options,named",
    [
        (["--beta", "1/3"], "--beta"),
        (["--gamma", "1/7"], "--gamma"),
        (["--relaxed"], "--relaxed"),
        (["--beta", "0"], "--beta"),
        (["--beta", "1/3", "--gamma", "1/7", "--relaxed"], "--beta, --gamma, --relaxed"),
    ],
    ids=["beta", "gamma", "relaxed", "beta-zero", "all"],
)
def test_cli_desk_profile_refuses_derive_options(tmp_path, capsys, options, named):
    # the desk profile sets its own constants; a derive option with --desk
    # is refused, not dropped without a word
    out = tmp_path / "prof.txt"
    argv = ["profile", "--n", "600", "--d", "30", "--desk", "--out", str(out)]
    assert cli_main(argv + options) == 2
    assert capsys.readouterr().err == "error: --desk takes no %s\n" % named
    assert not out.exists()
    assert cli_main(argv) == 0
    assert out.read_text() == format_profile(desk_profile(600, 30))


def test_cli_negative_verify_every_is_a_usage_error(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(150, 30, seed=3))
    trace_path = tmp_path / "t.txt"
    trace_path.write_text("".join("find %d %d\n" % (v, v + 1) for v in range(0, 10, 2)))
    argv = ["run", "--graph", str(graph_path), "--desk", "--trace", str(trace_path), "--quiet"]
    # refused before any work: no request runs, no report is printed
    assert cli_main(argv + ["--verify-every", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: --verify-every must be at least 0, got -3\n")
    json_path = tmp_path / "report.json"
    assert cli_main(argv + ["--verify-every", "0", "--json", str(json_path)]) == 0
    assert json.loads(json_path.read_text())["verifies_run"] == 0


def test_cli_reports_errors(tmp_path, capsys):
    code = cli_main(["run", "--graph", str(tmp_path / "missing.txt"),
                     "--desk", "--trace", "-"])
    assert code == 2
    capsys.readouterr()


def _edit_line_2(path, edit):
    lines = path.read_bytes().split(b"\n")
    lines[1] = edit(lines[1])
    path.write_bytes(b"\n".join(lines))


# one non-ASCII byte on line 2 of each input file: a BOM before an edge line,
# a UTF-8 comment in a trace, a UTF-8 value in a profile
NON_ASCII_EDITS = {
    "graph": (lambda line: b"\xef\xbb\xbf" + line, 0xEF),
    "trace": (lambda line: line + " # café".encode("utf-8"), 0xC3),
    "profile": (lambda line: line.split(b"=")[0] + "=é".encode("utf-8"), 0xC3),
}


@pytest.mark.parametrize("kind", sorted(NON_ASCII_EDITS))
def test_non_ascii_byte_fails_naming_its_line(tmp_path, capsys, kind):
    paths = {name: tmp_path / (name + ".txt") for name in NON_ASCII_EDITS}
    save_graph(paths["graph"], gen_random_regular_graph(150, 30, seed=3))
    save_profile(paths["profile"], desk_profile(150, 30))
    paths["trace"].write_text("find 0 5\nfind 1 6\n")
    edit, byte = NON_ASCII_EDITS[kind]
    _edit_line_2(paths[kind], edit)
    message = "%s line 2: non-ASCII byte 0x%02x" % (kind, byte)
    loader = {"graph": load_graph, "trace": load_trace, "profile": load_profile}[kind]
    with pytest.raises(FormatError) as info:
        loader(paths[kind])
    assert str(info.value) == message
    code = cli_main(["run", "--graph", str(paths["graph"]), "--profile", str(paths["profile"]),
                     "--trace", str(paths["trace"]), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_non_ascii_trace_on_stdin_fails_naming_its_line(tmp_path, capsys, monkeypatch):
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(150, 30, seed=3))
    stdin = io.TextIOWrapper(io.BytesIO("find 0 5\n# café\nfind 1 6\n".encode("utf-8")))
    monkeypatch.setattr("sys.stdin", stdin)
    code = cli_main(["run", "--graph", str(graph_path), "--desk", "--trace", "-", "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == "error: trace line 2: non-ASCII byte 0xc3\n"


def test_ascii_trace_on_stdin_runs(tmp_path, capsys, monkeypatch):
    graph_path = tmp_path / "g.txt"
    save_graph(graph_path, gen_random_regular_graph(150, 30, seed=3))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"find 0 5\nfind 1 6\n")))
    code = cli_main(["run", "--graph", str(graph_path), "--desk", "--trace", "-", "--quiet"])
    assert code == 0
    assert "requests served: 2" in capsys.readouterr().out
