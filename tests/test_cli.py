import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from sl2frob import cli, homology, memo, repcore, vermatwist
from sl2frob.cli import main, run_command, parse_seed
from sl2frob.exactfield import FieldCtx, Matrix
from sl2frob.reporting import check, merge_reports, report


def test_twist_command(capsys):
    code = main(["twist", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "twist" and rep["failures"] == 0
    assert rep["conventions"]["field"]["modulus_c1_c0"] == [0, 1]


def test_center_command_csv(capsys):
    code = main(["center", "--p", "3", "--r", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "center_dim_block[0][1],dim,3" in out
    assert "center_dim_block[2],dim,1" in out
    assert out.strip().endswith("summary,failures,0")


def _error_record(err: str) -> dict:
    """The JSON record on the last stderr line, which follows the `error:` line."""
    *_, line, record = err.splitlines()
    assert line.startswith("error: ")
    return json.loads(record)


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sl2frob")
    assert _error_record(err)["message"].startswith(
        "argument command: invalid choice: 'no-such-command'")


@pytest.mark.parametrize("argv, message", [
    (["twist", "--p", "4"], "argument --p: invalid choice: 4"),
    (["twist", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
], ids=["p", "flag"])
def test_argparse_rejections_print_usage_then_the_error_record(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    record = _error_record(err)
    assert record["message"].startswith(message)
    assert record == {"exit": 2, "kind": "ValueError", "message": record["message"]}
    assert err.startswith("usage: sl2frob")
    assert err.endswith(f"\nerror: {record['message']}\n{json.dumps(record)}\n")


@pytest.mark.parametrize("argv", [
    ["center", "--r", "0"],
    ["relations", "--r", "0"],
    ["generation", "--r", "0"],
    ["steinberg", "--r", "0"],
    ["equivalence", "--window", "-1"],
    ["equivalence", "--window", "0"],
    ["hom-iso", "--window", "0"],
], ids=" ".join)
def test_out_of_range_flags_are_usage_errors(argv, capsys):
    code = main(argv + ["--p", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "must be at least 1" in err


@pytest.mark.parametrize("cmd", ["relations", "generation", "center", "all"])
@pytest.mark.parametrize("p", [3, 5])
def test_r_above_two_is_rejected_before_any_work(cmd, p, monkeypatch, capsys):
    # these reports would otherwise claim a level that never ran
    def no_work(*args):
        raise AssertionError("a field context was built")

    monkeypatch.setattr(cli, "FieldCtx", no_work)
    assert main([cmd, "--p", str(p), "--r", "3"]) == 2
    record = _error_record(capsys.readouterr().err)
    assert record == {"exit": 2, "kind": "ValueError", "message": record["message"]}
    assert record["message"].startswith(f"--r must be 1 or 2 for {cmd}, got 3")


@pytest.mark.parametrize("cmd, p, ext", [
    ("center", 11, 1), ("twist", 3, 3), ("steinberg", 2, 1), ("twist", 5, 0),
], ids=["p11", "ext3", "p2", "ext0"])
def test_run_command_rejects_what_main_rejects(cmd, p, ext, capsys):
    # both paths read the allowed values from one place
    with pytest.raises(ValueError, match=r"--p must be one of \(3, 5, 7\) and --ext one of"):
        run_command(cmd, p, ext, 1, "auto", 1, 0)
    assert main([cmd, "--p", str(p), "--ext", str(ext)]) == 2
    capsys.readouterr()


def test_non_generic_seed_exit_code(capsys):
    code = main(["twist", "--p", "3", "--d-seed", "1,0"])
    assert code == 3
    assert _error_record(capsys.readouterr().err) == {
        "exit": 3, "kind": "NonGenericSeed",
        "message": "non-generic weight seed 1: it lies in the prime field"}


@pytest.mark.parametrize("error, code, message", [
    (homology.NonGenericSeed("Z(d) is not simple"), 3, "error: Z(d) is not simple"),
    (ValueError("no generic seed wanted here"), 2, "error: no generic seed wanted here"),
    (homology.Inconclusive("no verdict"), 4, "error: inconclusive: no verdict"),
    (homology.InvariantError("a solved map does not intertwine"), 5,
     "error: internal invariant: a solved map does not intertwine"),
], ids=["non-generic", "usage", "inconclusive", "invariant"])
def test_exit_code_follows_the_exception_type(error, code, message, monkeypatch, capsys):
    def fail(ctx, d):
        raise error

    monkeypatch.setattr(vermatwist, "twist_oracle", fail)
    assert main(["twist", "--p", "3"]) == code
    # the `error:` line, then one JSON record of the same failure
    record = {"exit": code, "kind": type(error).__name__, "message": str(error)}
    assert capsys.readouterr().err == message + "\n" + json.dumps(record) + "\n"


def test_solver_self_check_exits_5(monkeypatch, capsys):
    # a full-space solver that also returns a matrix unit on a free entry
    # returns a map that does not intertwine; its self-check stops the command
    solver = homology._blocked_hom_basis

    def with_a_stray_map(pairs, delta=None, masks=None):
        out = solver(pairs, delta, masks)
        if masks is None:
            return out
        for t, ((M, N), mask) in enumerate(zip(pairs, masks)):
            if mask is not None:
                a, b = np.argwhere(mask)[0]
                stray = np.zeros((N.dim, M.dim, M.ctx.k), dtype=np.int64)
                stray[a, b, 0] = 1
                maps, degrees = out[t]
                out[t] = (maps + [Matrix(M.ctx, stray)],
                          degrees + [int(N.grading[a] - M.grading[b])])
        return out

    monkeypatch.setattr(homology, "_blocked_hom_basis", with_a_stray_map)
    assert main(["center", "--p", "3", "--r", "1"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: internal invariant: Hom(") and err.count("\n") == 2
    assert "does not intertwine" in err
    line = err.splitlines()[0]
    assert _error_record(err) == {"exit": 5, "kind": "InvariantError",
                                  "message": line.removeprefix("error: internal invariant: ")}


def test_merged_solver_self_check_exits_5(monkeypatch, capsys):
    # a merge that hands back wrong multipliers (twice the true ones off the
    # roots) expands kernels that break a peeled row; the check stops the command
    merge = homology._merge_rounds

    def wrong_multipliers(ctx, *args):
        root, m, *rest = merge(ctx, *args)
        return (root, np.where(root == np.arange(root.size), m, ctx._tables[0][m, 2]), *rest)

    monkeypatch.setattr(homology, "_merge_rounds", wrong_multipliers)
    assert main(["projectives", "--p", "3", "--r", "2"]) == 5
    err = capsys.readouterr().err
    record = _error_record(err)
    assert record["exit"] == 5 and record["kind"] == "InvariantError"
    assert record["message"].startswith("merged sparse kernel of degree ")
    assert record["message"].endswith(" fails a peeled row")


def test_failing_checks_exit_1_whatever_their_count(monkeypatch, capsys):
    # three failures must not read as exit 3, a non-generic seed
    failing = report("stub", {}, [check(f"c{i}", False) for i in range(3)])
    monkeypatch.setattr(cli, "run_command", lambda *args: failing)
    assert main(["twist", "--p", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == 3


def test_report_without_checks_fails():
    assert report("empty", {}, [])["failures"] == 1
    merged = merge_reports("all", {}, [report("empty", {}, []),
                                       report("one", {}, [check("ok", True)])])
    assert merged["failures"] == 1
    assert [c["name"] for c in merged["checks"]] == ["empty:has_checks", "one:ok"]


def test_bad_seed_format(capsys):
    code = main(["twist", "--p", "3", "--d-seed", "zzz"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("p, seed", [(5, "5,1"), (5, "-1,1"), (3, "0,3"), (7, "12,1")])
def test_out_of_range_seed_digits_are_usage_errors(capsys, p, seed):
    # a coefficient outside 0..p-1 is not reduced mod p into another seed
    code = main(["twist", "--p", str(p), f"--d-seed={seed}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    record = json.loads(err.splitlines()[-1])
    assert record["exit"] == 2 and record["kind"] == "ValueError"
    assert "--d-seed" in record["message"] and seed in record["message"]


def test_parse_seed_auto():
    ctx = FieldCtx(3, 2)
    d = parse_seed(ctx, "auto")
    assert not d.in_prime_field()


def test_reports_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["relations", "--p", "3", "--r", "1", "--out", str(p1)]) == 0
    assert main(["relations", "--p", "3", "--r", "1", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_out_file(tmp_path):
    path = tmp_path / "r.json"
    assert main(["restriction", "--p", "3", "--r", "2", "--out", str(path)]) == 0
    rep = json.loads(path.read_text())
    assert rep["failures"] == 0


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert main(["twist", "--p", "3", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not path.parent.exists()
    record = _error_record(captured.err)
    assert record["exit"] == 2 and record["kind"] == "FileNotFoundError"
    assert str(path) in record["message"]


@pytest.mark.parametrize("argv, command", [
    (["block-equivalence", "--p", "3"], "block-equivalence"),
    (["generation", "--p", "3", "--r", "1"], "generation"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_command_runs_clean(argv, command, capsys):
    code = main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["command"] == command and rep["failures"] == 0 and rep["checks"]


def test_all_command_runs_every_sub_report(capsys):
    code = main(["all", "--p", "3", "--r", "1", "--window", "1"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["command"] == "all" and rep["failures"] == 0
    prefixes = {c["name"].split(":", 1)[0] for c in rep["checks"]}
    assert prefixes == {"twist", "steinberg", "restriction", "hat-borel", "projectives",
                        "hom-iso", "equivalence", "relations", "generation", "center",
                        "block-equivalence"}


def test_run_command_steinberg():
    rep = run_command("steinberg", 3, 2, 2, "auto", 2, 0)
    assert rep["failures"] == 0
    assert any(c["name"].startswith("steinberg") for c in rep["checks"])


def test_memo_scope_ends_with_run_command(monkeypatch):
    opened = []
    certify = homology.generic_verma_projectives

    def spy(ctx, d):
        opened.append(memo._store.get() is not None)
        return certify(ctx, d)

    monkeypatch.setattr(homology, "generic_verma_projectives", spy)
    assert run_command("twist", 3, 2, 1, "auto", 2, 0)["failures"] == 0
    assert opened and all(opened)
    assert memo._store.get() is None
    with pytest.raises(ValueError, match="needs --ext 2"):
        run_command("twist", 3, 1, 1, "auto", 2, 0)
    assert memo._store.get() is None


def test_memo_keys_agree_for_positional_keyword_and_default_spellings(monkeypatch):
    calls = []

    @memo.memoised
    def f(a, b, c=3):
        calls.append((a, b, c))
        return [a, b, c]

    with memo.scope():
        first = f(1, 2)
        for value in (f(1, 2, 3), f(1, b=2), f(a=1, b=2, c=3), f(c=3, b=2, a=1), f(1, 2, c=3)):
            assert value is first
        assert f(1, 2, 4) == [1, 2, 4] and f(b=1, a=2) == [2, 1, 3]
        assert calls == [(1, 2, 3), (1, 2, 4), (2, 1, 3)]
        for args, kwargs in (((1,), {}), ((1, 2), {"d": 5}), ((1, 2, 3, 4), {}), ((1,), {"a": 1, "b": 2})):
            with pytest.raises(TypeError):
                f(*args, **kwargs)
        # a call with every argument positional is keyed without binding
        monkeypatch.setattr(inspect.Signature, "bind", None)
        assert f(1, 2, 3) is first and len(calls) == 3


def _mutable_parts(obj, path, seen):
    """The path of every list, dict, set or writeable array reachable from obj.

    Tuples, frozensets and read-only mappings are walked, and so are the
    attributes of any other object, except a module's `provenance` label.  A
    field context is a constant of its field, shared by the whole process,
    so it is not walked.
    """
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type(None), np.generic,
                                           FieldCtx, types.FunctionType)):
        return
    seen.add(id(obj))
    if isinstance(obj, (list, dict, set, bytearray)):
        yield path
    elif isinstance(obj, np.ndarray):
        if obj.flags.writeable:
            yield path
    elif isinstance(obj, (tuple, frozenset)):
        for i, x in enumerate(obj):
            yield from _mutable_parts(x, f"{path}[{i}]", seen)
    elif isinstance(obj, types.MappingProxyType):
        for k, v in obj.items():
            yield from _mutable_parts(k, f"{path}.key", seen)
            yield from _mutable_parts(v, f"{path}[{k!r}]", seen)
    else:
        attrs = vars(obj) if hasattr(obj, "__dict__") else \
            {name: getattr(obj, name) for name in type(obj).__slots__}
        for name, v in attrs.items():
            if not (name == "provenance" and isinstance(obj, repcore.ModuleRep)):
                yield from _mutable_parts(v, f"{path}.{name}", seen)


def test_memo_holds_only_immutable_values():
    # one command of each workload kind, in one scope: every key and value
    # the memo holds is read-only, so a hit cannot hand out a changed value
    calls = [("projectives", 3, 2, 2, "auto", 2, 0), ("relations", 3, 2, 2, "auto", 2, 0),
             ("center", 3, 2, 2, "auto", 2, 0), ("equivalence", 3, 2, 1, "1,1", 2, 0),
             ("hom-iso", 3, 2, 1, "1,1", 2, 0), ("steinberg", 5, 2, 1, "1,1", 2, 0),
             ("hat-borel", 5, 2, 2, "1,1", 2, 0), ("twist", 5, 2, 1, "1,1", 2, 0)]
    with memo.scope():
        for call in calls:
            assert cli._command_report(*call)["failures"] == 0, call
        store = memo._store.get()
        assert {fn.__name__ for fn, _ in store} >= {
            "_solve_hom_spaces", "projective_covers", "projective_cover", "is_simple",
            "_word_diagonals", "_highest_weights", "fixed_maps", "canonical_r1_hom_bases"}
        seen: set = set()
        mutable = [part for (fn, key), value in store.items()
                   for part in (*_mutable_parts(key, f"{fn.__name__} key", seen),
                                *_mutable_parts(value, fn.__name__, seen))]
    assert mutable == []


def test_generic_op_work_counts(monkeypatch):
    # one generic-sweep op (p = 5, seed 0,1), counted by wrapping on its second
    # call: the bounds are one ker-E elimination per Verma, spins that close
    # in one round and one elimination per twist oracle; the field contexts
    # and their interned elements already exist, so no element is built
    from sl2frob import exactfield
    eliminate, init = exactfield._eliminate, exactfield.FieldElement.__init__
    eliminations, scalars = [], []

    def counted_init(self, *args):
        scalars.append(1)
        init(self, *args)

    bounds = {"twist": (1, 5), "steinberg": (1, 29), "hat-borel": (2, 29)}
    for cmd, (r, _) in bounds.items():
        assert run_command(cmd, 5, 2, r, "0,1", 2, 0)["failures"] == 0
    monkeypatch.setattr(exactfield, "_eliminate", lambda *a: eliminations.append(1) or eliminate(*a))
    monkeypatch.setattr(exactfield.FieldElement, "__init__", counted_init)
    for cmd, (r, max_eliminations) in bounds.items():
        eliminations.clear(), scalars.clear()
        assert run_command(cmd, 5, 2, r, "0,1", 2, 0)["failures"] == 0
        assert len(eliminations) <= max_eliminations, cmd
        assert scalars == [], cmd


def test_hat_borel_certifies_the_auto_seed_once(monkeypatch):
    # the certificate builds the p baby Vermas Z(d+c); parse_seed and
    # hat_borel_irreducibles both ask for it
    built = []
    verma = repcore.baby_verma

    def counting(*args, **kwargs):
        built.append(args[1])
        return verma(*args, **kwargs)

    monkeypatch.setattr(repcore, "baby_verma", counting)
    rep = run_command("hat-borel", 5, 2, 1, "auto", 2, 0)
    assert rep["failures"] == 0
    assert len(built) == 5


def test_equivalence_and_center_import_no_numpy_ma():
    # numpy.ma costs memory in every run that imports it, and numpy imports
    # it lazily on some paths (a plain np.unique does)
    code = ("import sys\n"
            "from sl2frob.cli import main\n"
            "assert main(['equivalence', '--p', '3', '--window', '3']) == 0\n"
            "assert main(['center', '--p', '3', '--r', '2']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
