import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import seqstar
from seqstar import constructions as con, registry
from seqstar.cli import EXIT_PIPE, main
from seqstar.registry import space_function
from seqstar.sequences import DepthBudget


BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
try:
    import cli_calls
finally:
    sys.path.remove(BENCH)

ENV = dict(os.environ, PYTHONPATH=str(Path(seqstar.__file__).resolve().parent.parent))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_dist_example(capsys):
    got = run_json(capsys, "dist",
                   "--a", '{"kind":"finite","seq":[]}',
                   "--b", '{"kind":"finite","seq":[0]}')
    assert got == {"exact": "1"}


def test_dist_augmented_vs_longer(capsys):
    got = run_json(capsys, "dist",
                   "--a", '{"kind":"augmented","seq":[0]}',
                   "--b", '{"kind":"finite","seq":[0,5]}')
    assert got == {"exact": "2^-7"}


ZEROS = '{"kind":"periodic","head":[],"period":[0]}'


def test_dist_and_member_read_presented_points_exactly(capsys):
    # Both points agree past the old default depth budget of 64.
    a = json.dumps({"kind": "periodic", "head": [0] * 70 + [1], "period": [0]})
    assert run_json(capsys, "dist", "--a", a, "--b", ZEROS) == {"exact": "2^-71"}
    cone = json.dumps({"kind": "cone", "t": [0] * 70})
    assert run_json(capsys, "member", "--set", cone, "--point", ZEROS) == {"member": True}


@pytest.mark.parametrize("argv", [
    ["dist", "--a", ZEROS, "--b", ZEROS],
    ["member", "--set", '{"kind":"cone","t":[]}', "--point", ZEROS],
], ids=["dist", "member"])
def test_dist_and_member_take_no_depth(capsys, argv):
    code, out, err = run(capsys, *argv, "--depth", "5")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"kind": "parse",
                                        "message": "unrecognized arguments: --depth 5"}


def test_meet_and_eps(capsys):
    assert run_json(capsys, "meet", "--s", "[0,1,2]", "--t", "[0,1,5]") == {"meet": [0, 1]}
    assert run_json(capsys, "eps", "--t", "[0,2]") == {"eps": "2^-4"}


def test_member_and_cover(capsys):
    got = run_json(capsys, "member", "--set", '{"kind":"cone","t":[1]}',
                   "--point", '{"kind":"augmented","seq":[1,4]}')
    assert got == {"member": True}
    got = run_json(capsys, "cover-check", "--family", '[{"kind":"cone","t":[]}]')
    assert got == {"covers": True}
    got = run_json(capsys, "cover-check",
                   "--family", '[{"kind":"singleton","t":[]}]')
    assert got["covers"] is False


def test_embed_check_example(capsys):
    got = run_json(capsys, "embed", "check", "--pi", '{"kind":"prefix","s":[0]}',
                   "--depth", "3", "--branch", "3")
    assert got == {"valid": True}


def test_embed_eval_and_preimage(capsys):
    got = run_json(capsys, "embed", "eval", "--pi", '{"kind":"prefix","s":[0]}',
                   "--t", "[1,2]")
    assert got == {"image": [0, 1, 2]}
    got = run_json(capsys, "embed", "preimage", "--pi", '{"kind":"prefix","s":[0]}',
                   "--t", "[0,1]", "--depth", "4", "--branch", "3")
    assert got == {"cone": [1]}


def test_embed_extend_periodic_is_exact(capsys):
    got = run_json(capsys, "embed", "extend", "--pi", '{"kind":"prefix","s":[0]}',
                   "--point", '{"kind":"periodic","head":[],"period":[2]}')
    assert got == {"point": {"kind": "periodic", "head": [0], "period": [2]}}
    u = [0] * 20
    pi = {"kind": "table", "root": [], "entries": [[u[:-1], 0, u + [7]]]}
    got = run_json(capsys, "embed", "extend", "--pi", json.dumps(pi),
                   "--point", '{"kind":"periodic","head":[],"period":[0]}')
    assert got == {"point": {"kind": "periodic", "head": u + [7], "period": [0]}}


def test_catalog_counts(capsys):
    assert run_json(capsys, "catalog", "list", "--set", "a")["count"] == 24
    assert run_json(capsys, "catalog", "list", "--set", "b")["count"] == 27


def test_construct_and_recheck_round_trip(capsys, tmp_path):
    trace = run_json(capsys, "construct", "shrink", "--fn", "prefix-embed",
                     "--depth", "2", "--branch", "2")
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    got = run_json(capsys, "construct", "recheck", "--trace", str(path))
    assert got["ok"] is True and got["failures"] == []


def test_construct_deterministic(capsys):
    a = run_json(capsys, "construct", "classify", "--fn", "baire-identity")
    b = run_json(capsys, "construct", "classify", "--fn", "baire-identity")
    assert a == b
    assert a["shape"] == "EmbedsIntoBaire"


def test_exit_code_parse_error(capsys):
    code, out, err = run(capsys, "dist", "--a", "nonsense", "--b", "[]")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "parse"


@pytest.mark.parametrize("flags, named", [
    (["--depth", "5", "--fn", "no-such-fn", "--steps", "1", "--eps", "7"], "--depth"),
    (["--depth", "2"], "--depth"),
    (["--selector-budget", "48"], "--selector-budget"),
], ids=["several", "default-value", "underscore-dest"])
def test_recheck_refuses_the_flags_it_does_not_read(capsys, monkeypatch, flags, named):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"certificates": []}'))
    code, out, err = run(capsys, "construct", "recheck", "--trace", "-", *flags)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "parse", "message": f"construct recheck reads only --trace, not {named}"}


# op -> a flag of construct that the op does not read, and a value for it
UNREAD = {"ramsey": ("--fn", "length"), "category": ("--eps", "1"), "continuity": ("--x", "0"),
          "shrink": ("--root", "[]"), "stabilize": ("--values", "0"),
          "disjointify": ("--selector-budget", "48"), "limit": ("--root", "[0]"),
          "eps-split": ("--x", "1"), "shrink-or-discrete": ("--eps", "1"),
          "avoid": ("--root", "[]"), "finite-avoid": ("--x", "0"),
          "discrete-refine": ("--values", "1"), "classify": ("--trace", "-")}


def test_every_op_has_a_refused_flag():
    assert set(UNREAD) == {op.cli for op in registry.OPS.values() if op.cli}


@pytest.mark.parametrize("op", sorted(UNREAD))
def test_construct_refuses_the_flags_its_op_does_not_read(capsys, op):
    flag, value = UNREAD[op]
    code, out, err = run(capsys, "construct", op, "--depth", "1", flag, value)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "parse" and error["message"].startswith(f"construct {op} reads only ")
    assert error["message"].endswith(f", not {flag}")


def _bench_construct_argvs():
    """The first construct command line the cli-calls workload builds for each op."""
    argvs = {}
    for _, kind, _, (argv, _) in cli_calls.ops(0):
        if kind == "construct":
            argvs.setdefault(argv[1], argv)
            if len(argvs) == len(UNREAD):
                return list(argvs.values())


@pytest.mark.parametrize("argv", _bench_construct_argvs(), ids=lambda argv: argv[1])
def test_construct_runs_the_command_lines_of_the_benchmark(capsys, argv):
    assert "certificates" in run_json(capsys, *argv)


def test_recheck_names_a_missing_certificate_field(capsys):
    code, out, err = run(capsys, "construct", "recheck",
                         "--trace", '{"certificates":[{"kind":"in_set"}]}')
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "parse" and "certificates[0].node" in error["message"]


NOT_AN_EMBEDDING = '{"kind":"table","root":[],"entries":[[[],0,[]]]}'


def test_embed_check_reports_a_table_that_is_not_an_embedding(capsys):
    got = run_json(capsys, "embed", "check", "--pi", NOT_AN_EMBEDDING)
    assert got == {"valid": False, "violation": {"i": 0, "j": None, "t": []}}


@pytest.mark.parametrize("action", ["eval", "extend", "compose", "preimage"])
def test_embed_actions_on_a_table_that_is_not_an_embedding(capsys, action):
    code, out, err = run(capsys, "embed", action, "--pi", NOT_AN_EMBEDDING,
                         "--pi2", '{"kind":"identity"}', "--t", "[0]",
                         "--point", '{"kind":"finite","seq":[0]}')
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "domain"


@pytest.mark.parametrize("trace, path", [
    ('{"certificates":[{"kind":"diam_lt","node":[0],"eps":"x"}],'
     '"function":{"name":"const-zero"}}', "certificates[0].eps"),
    ('{"certificates":[{"kind":"valid_table"}],"table":{"":[],"1":[1]}}', "trace.table"),
    ('{"certificates":[{"kind":"in_set","node":5,"oracle":"all","member":true}]}',
     "certificates[0].node"),
    ('{"certificates":5}', "'certificates' list"),
    ('{"certificates":[],"stages":5}', "trace.stages"),
    ('{"certificates":[],"stages":[5]}', "stages[0]"),
    ('{"certificates":[{"kind":"in_set","node":[0],"family_level":"x","member":true}],'
     '"family":"length-at-least"}', "certificates[0].family_level"),
    ('{"certificates":[{"kind":"in_set","node":[0],"oracle":["all"],"member":true}]}',
     "certificates[0].oracle"),
    ('{"points":[{"kind":"finite","seq":[]}],"certificates":[{"kind":"value_dist_lt",'
     '"a":{"kind":"finite","seq":[]},"b":0,"bound":"1"}],"function":{"name":"entry-sum"}}',
     "certificates[0].a"),
    ('{"points":[{"kind":"finite","seq":[]},{"kind":"periodic","period":[]}],'
     '"certificates":[{"kind":"avoid_pair","a":0,"b":1,"bound":"1"}],'
     '"function":{"name":"entry-sum"}}', "trace.points[1]"),
    ('{"points":[{"kind":"finite","seq":[]}],"certificates":[{"kind":"avoid_value","a":0,'
     '"x":{},"bound":"1"}],"function":{"name":"entry-sum"}}', "certificates[0].x"),
], ids=["bad-dyadic", "table-missing-node", "node-not-a-list", "certificates-not-a-list",
        "stages-not-a-list", "stage-not-an-object", "family-level-not-an-integer",
        "oracle-not-a-name", "point-a-not-an-object", "point-b-empty-period",
        "value-x-without-kind"])
def test_recheck_names_a_malformed_certificate_value(capsys, trace, path):
    code, out, err = run(capsys, "construct", "recheck", "--trace", trace)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "parse" and path in error["message"]


def test_exit_code_domain_error(capsys):
    code, out, err = run(capsys, "catalog", "eval", "--set", "a", "--fn", "3",
                         "--point", '{"kind":"finite","seq":[1]}')
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "domain"


def test_exit_code_budget_error(capsys):
    code, out, err = run(capsys, "construct", "disjointify", "--fn", "const-zero")
    assert code == 4
    assert json.loads(err)["error"]["kind"] == "budget"


def test_unknown_registry_name(capsys):
    code, out, err = run(capsys, "construct", "shrink", "--fn", "no-such-fn")
    assert code == 2


@pytest.mark.parametrize("kind, fields", [
    ("diam_lt", '"node":[0],"eps":"1"'),
    ("dist_gt_sum", '"a":0,"b":1,"na":[],"nb":[1]'),
], ids=["diam_lt", "dist_gt_sum"])
def test_recheck_fails_a_certificate_whose_function_has_no_cone_diameter(capsys, kind, fields):
    trace = (f'{{"points":[{{"kind":"finite","seq":[]}},{{"kind":"finite","seq":[1]}}],'
             f'"certificates":[{{"kind":"{kind}",{fields}}}],"function":{{"name":"entry-sum"}}}}')
    got = run_json(capsys, "construct", "recheck", "--trace", trace)
    assert got["ok"] is False and got["checked"] == 1
    assert "cone_diameter" in got["failures"][0]


@pytest.mark.parametrize("argv", [
    ["construct", "avoid", "--fn", "baire-identity"],
    ["construct", "finite-avoid", "--fn", "compactify-identity"],
    ["construct", "recheck", "--trace",
     '{"points":[{"kind":"finite","seq":[]}],"certificates":[{"kind":"avoid_value","a":0,'
     '"x":{"kind":"point","point":{"kind":"finite","seq":[]}},"bound":"1"}],'
     '"function":{"name":"entry-sum"}}'],
], ids=["avoid-point-valued", "finite-avoid-point-valued", "recheck-point-against-dyadic"])
def test_a_value_of_the_wrong_kind_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "domain"


@pytest.mark.parametrize("eps", ["0", "0/4", "0*2^-3"])
def test_eps_split_rejects_a_zero_eps(capsys, eps):
    # Every pair of values is at distance >= 0, so a zero eps certifies no injection.
    code, out, err = run(capsys, "construct", "eps-split", "--fn", "entry-sum", "--eps", eps)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {"kind": "domain", "message": "eps must be positive, got 0"}


FINITE_ROOT = '{"kind":"finite","seq":[]}'


@pytest.mark.parametrize("argv", [
    ["cover-check", "--family", "[]", "--seed", "3"],
    ["eps", "--t", "[]", "--schedule", "weight"],
    ["meet", "--s", "[]", "--t", "[]", "--depth", "3"],
    ["embed", "eval", "--pi", '{"kind":"identity"}'],
    ["embed", "compose", "--pi", '{"kind":"identity"}'],
    ["catalog", "eval", "--set", "a", "--fn", "0"],
    ["catalog", "list", "--set", "c"],
    ["embed", "check", "--pi", '{"kind":"identity"}', "--depth", "0"],
    ["construct", "shrink", "--depth", "-1"],
    ["embed", "check", "--pi", '{"kind":"identity"}', "--branch", "x"],
    ["construct", "shrink", "--steps", "0"],
    ["catalog", "check-embed", "--fn", "9", "--pi", '{"kind":"identity"}', "--samples", "0"],
    ["construct", "no-such-op"],
    ["dist", "--a", '{"kind":"periodic","head":[],"period":[]}', "--b", FINITE_ROOT],
    ["embed", "check", "--pi", '{"kind":"table","root":[],"entries":[[[],-1,[0]]]}'],
    [],
], ids=["flag-not-read", "schedule-removed", "depth-not-read", "eval-without-t",
        "compose-without-pi2", "catalog-eval-without-point", "unknown-catalog",
        "depth-zero", "depth-negative", "branch-not-a-number", "steps-zero", "samples-zero",
        "unknown-op",
        "empty-period", "negative-child-index", "no-command"])
def test_bad_arguments_are_json_parse_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "parse"


IDENTITY = '{"kind":"identity"}'


# depth 1024 at branch 1 spans 1025 nodes, the fewest past the limit of 1024
@pytest.mark.parametrize("argv", [
    ["embed", "check", "--pi", IDENTITY],
    ["embed", "compose", "--pi", IDENTITY, "--pi2", IDENTITY],
    ["embed", "preimage", "--pi", IDENTITY, "--t", "[0]"],
    ["construct", "category"],
], ids=["check", "compose", "preimage", "construct"])
def test_a_range_past_the_node_limit_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--depth", "1024", "--branch", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "parse", "message": "--depth 1024 --branch 1 spans more than 1024 nodes"}


def test_a_range_at_the_node_limit_runs(capsys):
    got = run_json(capsys, "embed", "check", "--pi", IDENTITY, "--depth", "1023", "--branch", "1")
    assert got == {"valid": True}


def test_construct_depth_is_the_table_depth_only(capsys):
    got = run_json(capsys, "construct", "disjointify", "--fn", "baire-identity", "--depth", "2")
    pe = con.disjointify(space_function("baire-identity"), 2, 3, DepthBudget())
    assert got == json.loads(json.dumps(pe.trace))


def _readme_cli_examples():
    """(argv, expected output or None) for each `seqstar ...` line of the README's
    CLI block, a `# -> ...` line after it giving its output, `...` a wildcard."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("seqstar "):
            examples.append([shlex.split(line, comments=True)[1:], None])
        elif line.startswith("# -> "):
            examples[-1][1] = line[len("# -> "):]
    return examples


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = _readme_cli_examples()
    assert len(examples) >= 15
    for argv, expected in examples:
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")
        if expected is not None:
            pattern = ".*".join(map(re.escape, expected.split("...")))
            assert re.fullmatch(pattern, out), (argv, out)


def test_a_step_budget_that_runs_out_mid_search_reports_its_stage(capsys):
    # The first branch fails; 300 steps run out in a node search of the second.
    code, out, err = run(capsys, "construct", "discrete-refine", "--fn", "entry-sum",
                         "--depth", "2", "--branch", "3", "--steps", "300")
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": {"kind": "budget",
                                         "message": "step budget exhausted in discrete_refine",
                                         "stage": "discrete_refine"}}


def fresh(argv, stdin=None):
    """(exit code, stdout, stderr) of the command line in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "seqstar.cli", *argv], input=stdin, env=ENV,
                          capture_output=True, text=True, encoding="utf-8")
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_answers_every_call_as_a_fresh_interpreter_does(capsys, monkeypatch):
    """One argv of each of the 16 kinds the benchmark cycles through, each
    after a parse or a domain error, all in this process."""
    parse_error = ["embed", "frobnicate", "--pi", "{}"]
    domain_error = ["catalog", "eval", "--fn", "3", "--point", '{"kind":"finite","seq":[1]}']
    ops = cli_calls.warmup_ops(1)
    assert [kind for _, kind, _, _ in ops] == cli_calls.KINDS and len(ops) == 16
    answers, last = {}, ""
    for i, (_, kind, _, (argv, _)) in enumerate(ops):
        stdin = last if kind == "construct-recheck" else ""
        for call in (domain_error if i % 2 else parse_error, argv):
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            got = (main(call), *capsys.readouterr())
            key = (tuple(call), stdin)
            if key not in answers:
                answers[key] = fresh(call, stdin)
            assert got == answers[key], call
        last = got[1]
    assert sorted({code for code, _, _ in answers.values()}) == [0, 2, 3]


@pytest.mark.parametrize("argv", [
    ["construct", "eps-split", "--fn", "entry-sum", "--eps", "2^-3"],  # more than a pipe buffer
    ["meet", "--s", "[0, 1]", "--t", "[0, 2]"],  # written only when stdout is flushed
], ids=["large", "small"])
def test_a_closed_stdout_exits_without_a_traceback(argv):
    proc = subprocess.Popen([sys.executable, "-m", "seqstar.cli", *argv], env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # long before the new interpreter writes
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_check_embed_stops_drawing_once_every_candidate_is_drawn(capsys):
    # Set a, function 9 admits 170 candidates; once all are drawn no later
    # draw adds one, so every larger --samples prints the same.
    argv = ["catalog", "check-embed", "--set", "a", "--fn", "9", "--pi", '{"kind":"identity"}',
            "--seed", "1", "--samples"]
    want = {"distinct_outputs": 149, "pairing": True, "samples": 170}
    start = time.perf_counter()
    assert run_json(capsys, *argv, str(10 ** 9)) == want
    assert time.perf_counter() - start < 2
    assert run_json(capsys, *argv, "170") == run_json(capsys, *argv, "10000") == want
    assert run_json(capsys, *argv, "169")["samples"] == 169
