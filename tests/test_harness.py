"""End-to-end tests of the verification harness and its CLI surface."""

import csv
import importlib
import json
import math
import os
import pkgutil
import signal
import time

import pytest

import qsu11
from qsu11 import harness, limitlab, qcalculus
from qsu11.errors import PoleGuardError, QSU11Error
from qsu11.harness import (
    _CSV_COLUMNS,
    _SUITE_CHECKS,
    SUITES,
    Check,
    RunConfig,
    _relative,
    _run_check,
    _scalar,
    config_from_args,
    main,
    run_suite,
)
from qsu11.limitlab import SweepReport, SweepRow, sweep_report
from qsu11.qcalculus import QBase, SeriesEval
from qsu11.su11core import SpectralParam, spherical_az


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.problems() == []
        assert cfg.warnings() == []

    def test_problem_messages(self):
        msgs = RunConfig(q=2.0, tol=0.0, suites=("identities", "bogus"),
                         format="xml").problems()
        joined = "\n".join(msgs)
        assert "q must lie in (0, 1)" in joined
        assert "tol must be positive" in joined
        assert "bogus" in joined
        assert "format" in joined
        assert RunConfig(suites=()).problems() != []

    def test_nan_tolerances_are_problems(self):
        for bad in (float("nan"), math.inf):
            assert RunConfig(tol=bad).problems() \
                == ["tol must be positive and finite"]
            assert RunConfig(tol_quad=bad).problems() \
                == ["tol_quad must be positive and finite"]

    def test_depth_and_budget_below_one_are_problems(self, tmp_path):
        assert RunConfig(max_exponent=0).problems() == ["max_exponent must be >= 1"]
        assert RunConfig(max_terms=0).problems() == ["max_terms must be >= 1"]
        for flag in ("--max-exponent", "--max-terms"):
            out = tmp_path / flag
            assert main([flag, "0", "--out", str(out)]) == 2
            assert not out.exists()

    def test_extreme_q_warns(self):
        assert RunConfig(q=0.05).warnings() != []
        assert RunConfig(q=0.99).warnings() != []
        # Every suite passes from q = 0.41 to 0.56; 0.40 and 0.57 fail rows.
        for q in (0.40, 0.57, 0.9):
            assert "[0.41, 0.56]" in RunConfig(q=q).warnings()[0]
        for q in (0.41, 0.56):
            assert RunConfig(q=q).warnings() == []

    def test_series_tol_window(self):
        assert RunConfig(tol=1e-10).series_tol == 1e-12
        assert RunConfig(tol=1e-6).series_tol == 1e-12
        assert RunConfig(tol=1e-14).series_tol == 1e-15


class TestRunSuite:
    def test_identities_pass_and_schema(self, tmp_path):
        cfg = RunConfig(suites=("identities",), out_dir=str(tmp_path))
        assert run_suite(cfg) == 0
        with (tmp_path / "identities.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == _CSV_COLUMNS
        body = rows[1:]
        assert body, "suite produced no checks"
        assert all(r[-1] == "pass" for r in body)
        assert all(r[2] != "" for r in body)  # paper_anchor populated
        with (tmp_path / "summary.csv").open(newline="") as fh:
            summary = list(csv.reader(fh))
        assert summary[1][0] == "identities"
        assert summary[1][3] == "pass"

    def test_reports_are_byte_stable(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cfg = RunConfig(suites=("identities",), out_dir=str(out),
                            format="both")
            assert run_suite(cfg) == 0
        for name in ("identities.csv", "identities.json", "summary.csv",
                     "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_reports_do_not_depend_on_a_warm_product_cache(self, tmp_path,
                                                           monkeypatch):
        # The first run starts from an empty qpoch_infinite cache, the
        # second from the entries the first left behind; both in this
        # process, which a forked worker's cache would not warm.
        monkeypatch.setattr(harness, "_workers", lambda: 1)
        qcalculus._qpoch_infinite.cache_clear()
        for out in ("cold", "warm"):
            cfg = RunConfig(suites=("spherical", "coamenability"),
                            out_dir=str(tmp_path / out), format="both")
            assert run_suite(cfg) == 0
        assert qcalculus._qpoch_infinite.cache_info().hits > 0
        names = sorted(p.name for p in (tmp_path / "cold").iterdir())
        assert len(names) == 6
        for name in names:
            assert (tmp_path / "cold" / name).read_bytes() \
                == (tmp_path / "warm" / name).read_bytes()

    def test_json_header(self, tmp_path):
        cfg = RunConfig(suites=("identities",), out_dir=str(tmp_path),
                        format="json")
        assert run_suite(cfg) == 0
        doc = json.loads((tmp_path / "identities.json").read_text())
        header = doc["header"]
        assert set(header) == {"version", "backend", "q", "tolerances",
                               "max_exponent", "max_terms", "warnings"}
        assert header["q"] == 0.5
        assert header["tolerances"] == {"tol": 1e-10, "tol_quad": 1e-8}
        assert all(r["verdict"] == "pass" for r in doc["rows"])
        assert not (tmp_path / "identities.csv").exists()

    def test_impossible_tolerance_fails_with_reports(self, tmp_path):
        cfg = RunConfig(suites=("spherical",), tol=1e-300,
                        out_dir=str(tmp_path))
        assert run_suite(cfg) == 1
        with (tmp_path / "spherical.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert any(r[-1] == "fail" for r in rows)

    def test_invalid_config_exits_2_without_reports(self, tmp_path, capsys):
        # 1e-300 lies in (0, 1), but its square underflows to 0; at 0.999
        # and 0.9995 QBase's cq is inf and nan.
        for q in (2.0, 1e-300, 0.999, 0.9995):
            out = tmp_path / "nothing"
            cfg = RunConfig(q=q, out_dir=str(out))
            assert run_suite(cfg) == 2
            assert not out.exists()
            assert "config error" in capsys.readouterr().err

    def test_duplicate_suites_run_once(self, tmp_path, capsys):
        cfg = RunConfig(suites=("identities", "identities"),
                        out_dir=str(tmp_path))
        assert run_suite(cfg) == 0
        out = capsys.readouterr().out
        assert out.count("identities:") == 1


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _crash(cfg, base):
    raise RuntimeError("builder broke")
    yield


def _killed(checks):
    """A builder that runs ``checks`` in this process and is killed by
    SIGKILL in a worker."""
    parent = os.getpid()

    def run(cfg, base):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        yield from checks(cfg, base)

    return run


def _wait_until(done, timeout=30.0):
    """Poll ``done`` until it holds or ``timeout`` seconds have passed."""
    end = time.monotonic() + timeout
    while not done() and time.monotonic() < end:
        time.sleep(0.001)


def _record_pulls(monkeypatch, pids, suites=SUITES, held=False):
    """Wrap the builder of each of ``suites`` to append the pid of the
    process that pulls it to the file ``pids / suite``.

    With ``held``, the first suite is pulled by a worker, not by this
    process: after each fork this process waits for that pull.  The
    worker holds it until every other suite is pulled, so the other
    processes run all the rest, and they finish first."""
    pids.mkdir()

    def pulled_all():
        return len(list(pids.iterdir())) == len(suites)

    for suite in suites:
        def pull(cfg, base, suite=suite, checks=_SUITE_CHECKS[suite]):
            with (pids / suite).open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            if held and suite == suites[0]:
                _wait_until(pulled_all)
            yield from checks(cfg, base)

        monkeypatch.setitem(_SUITE_CHECKS, suite, pull)
    if held:
        fork = os.fork

        def forked():
            pid = fork()
            if pid:
                _wait_until(lambda: any(pids.iterdir()))
            return pid

        monkeypatch.setattr(os, "fork", forked)


def _pulled_by(pids):
    """The pids that pulled each suite, by suite, from :func:`_record_pulls`'
    files."""
    return {p.name: [int(pid) for pid in p.read_text().split()]
            for p in pids.iterdir()}


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestWorkers:
    """run_suite runs the suites in up to ``_workers()`` processes, forked
    from this one, each pulling the next suite off one queue; the
    reports, stdout and exit code do not depend on how many ran or which
    ran what, and no worker outlives the call."""

    @pytest.mark.parametrize("case", ("defaults", "max_terms_3",
                                      "builder_crash_in_a_worker"))
    def test_one_process_and_one_per_suite_agree(self, case, tmp_path,
                                                 monkeypatch, capsys):
        kw = {"max_terms": 3} if case == "max_terms_3" else {}
        if case == "builder_crash_in_a_worker":  # identities: held by a worker
            monkeypatch.setitem(_SUITE_CHECKS, "identities", _crash)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        runs = {}
        for n in (1, len(SUITES)):
            forks.clear()
            if n > 1:
                _record_pulls(monkeypatch, tmp_path / "pids", held=True)
            monkeypatch.setattr(harness, "_workers", lambda n=n: n)
            out = tmp_path / str(n)
            rc = run_suite(RunConfig(out_dir=str(out), format="both", **kw))
            assert len(forks) == n - 1
            assert _no_child_left()
            runs[n] = (rc, capsys.readouterr().out,
                       {p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[1] == runs[len(SUITES)]
        [worker] = _pulled_by(tmp_path / "pids")["identities"]
        assert worker != os.getpid()
        rc, stdout, files = runs[1]
        assert rc == (0 if case == "defaults" else 1)
        assert sorted(files) == sorted(f"{s}.{fmt}" for s in (*SUITES, "summary")
                                       for fmt in ("csv", "json"))
        assert stdout.count("checks passed") == len(SUITES)
        if case == "builder_crash_in_a_worker":
            row = _csv_dicts(tmp_path / "5" / "identities.csv")[0]
            assert (row["check_id"], row["param_json"]) == (
                "suite_crashed", '{"error":"RuntimeError: builder broke"}')
            assert b"suite_crashed" in files["identities.json"]

    @pytest.mark.parametrize("n", (2, len(SUITES)))
    def test_every_suite_runs_once(self, n, tmp_path, monkeypatch):
        forked = []
        fork = os.fork

        def counted():
            pid = fork()
            forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(harness, "_workers", lambda: n)
        # At W = 2 the worker holds the first suite, so both processes
        # run one; at W = 5 the processes pull as they come.
        _record_pulls(monkeypatch, tmp_path / "pids", held=n == 2)
        assert run_suite(RunConfig(out_dir=str(tmp_path / "out"))) == 0
        assert _no_child_left()
        pulled = _pulled_by(tmp_path / "pids")
        assert sorted(pulled) == sorted(SUITES)
        assert all(len(pids) == 1 for pids in pulled.values())
        ran = {pid for (pid,) in pulled.values()}
        assert ran <= {os.getpid(), *forked} and len(forked) == n - 1
        if n == 2:
            assert ran == {os.getpid(), *forked}

    def test_configured_order_when_a_later_suite_finishes_first(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_workers", lambda: 1)
        assert run_suite(RunConfig(out_dir=str(tmp_path / "1"))) == 0
        in_order = capsys.readouterr().out
        # A worker holds identities until this process has pulled every
        # other suite; they finish first, and this process has their
        # triples before the worker's.
        monkeypatch.setattr(harness, "_workers", lambda: 2)
        _record_pulls(monkeypatch, tmp_path / "pids", held=True)
        out = tmp_path / "2"
        assert run_suite(RunConfig(out_dir=str(out))) == 0
        assert _no_child_left()
        assert (out / "spherical.csv").stat().st_mtime_ns \
            < (out / "identities.csv").stat().st_mtime_ns
        assert _pulled_by(tmp_path / "pids")["spherical"] == [os.getpid()]
        assert capsys.readouterr().out == in_order
        assert [line.split(":")[0] for line in in_order.splitlines()] \
            == list(SUITES)
        assert [r["suite"] for r in _csv_dicts(out / "summary.csv")] \
            == list(SUITES)
        assert (out / "summary.csv").read_bytes() \
            == (tmp_path / "1" / "summary.csv").read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd")
    @pytest.mark.parametrize("outcome", ("returns", "worker_killed",
                                         "error_here"))
    def test_no_descriptor_is_left_open(self, outcome, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_workers", lambda: 2)
        if outcome == "worker_killed":
            monkeypatch.setitem(_SUITE_CHECKS, "identities", _killed(
                _SUITE_CHECKS["identities"]))
        if outcome == "error_here":  # spherical runs in this process
            (tmp_path / "spherical.csv").mkdir()
        _record_pulls(monkeypatch, tmp_path / "pids", held=True)
        before = _open_fds()
        if outcome == "returns":
            assert run_suite(RunConfig(out_dir=str(tmp_path))) == 0
        else:
            with pytest.raises((RuntimeError, IsADirectoryError)):
                run_suite(RunConfig(out_dir=str(tmp_path)))
        assert _open_fds() == before
        assert _no_child_left()

    @pytest.mark.parametrize("n", (1, 2, len(SUITES)))
    def test_a_report_error_in_a_worker_is_raised_here(self, n, tmp_path,
                                                       monkeypatch):
        # A directory where identities.csv goes: whenever n > 1 a worker
        # pulls identities (root included) and this process runs the rest.
        monkeypatch.setattr(harness, "_workers", lambda: n)
        if n > 1:
            _record_pulls(monkeypatch, tmp_path / "pids", held=True)
        (tmp_path / "identities.csv").mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            run_suite(RunConfig(out_dir=str(tmp_path)))
        assert str(raised.value) == f"[Errno 21] Is a directory: " \
            f"'{tmp_path / 'identities.csv'}'"
        assert _no_child_left()
        if n > 1:
            [worker] = _pulled_by(tmp_path / "pids")["identities"]
            assert worker != os.getpid()

    def test_an_error_that_does_not_pickle_is_raised_by_its_text(
            self, tmp_path, monkeypatch):
        class Local(Exception):  # pickle finds no class by this name
            pass

        write_table = harness._write_table

        def write(out, name, *args):
            if name == "smoothing":
                raise Local("disk gone")
            write_table(out, name, *args)

        monkeypatch.setattr(harness, "_write_table", write)
        monkeypatch.setattr(harness, "_workers", lambda: 2)
        suites = ("smoothing", "approxid")  # smoothing: held by the worker
        _record_pulls(monkeypatch, tmp_path / "pids", suites, held=True)
        with pytest.raises(RuntimeError, match="^Local: disk gone$"):
            run_suite(RunConfig(suites=suites, out_dir=str(tmp_path)))
        assert _no_child_left()

    def test_a_worker_killed_by_a_signal_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setitem(_SUITE_CHECKS, "identities", _killed(
            _SUITE_CHECKS["identities"]))
        monkeypatch.setattr(harness, "_workers", lambda: 2)
        # The worker holds identities while this process runs the rest.
        _record_pulls(monkeypatch, tmp_path / "pids", held=True)
        with pytest.raises(RuntimeError, match="^no process returned a result "
                                               "for identities: a worker ended "
                                               "with exit code -9$"):
            run_suite(RunConfig(out_dir=str(tmp_path)))
        assert _no_child_left()
        assert not (tmp_path / "summary.csv").exists()
        assert (tmp_path / "approxid.csv").exists()

    def test_an_interrupt_while_waiting_kills_every_worker(self, tmp_path,
                                                           monkeypatch):
        def stuck(cfg, base):
            time.sleep(60)
            yield

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setitem(_SUITE_CHECKS, "spherical", stuck)
        monkeypatch.setattr(harness, "_workers", lambda: 2)
        suites = ("spherical", "approxid")  # spherical: held by the worker
        _record_pulls(monkeypatch, tmp_path / "pids", suites, held=True)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            # A forked worker inherits no timer: the interrupt reaches this
            # process, reading the stuck worker's pipe.
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_suite(RunConfig(suites=suites, out_dir=str(tmp_path)))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        assert _no_child_left()

    def test_this_process_keeps_no_memo_of_the_suites_it_pulled(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_workers", lambda: 2)
        assert run_suite(RunConfig(out_dir=str(tmp_path))) == 0
        assert _no_child_left()
        assert [m.cache_info().currsize for m in harness._MEMOS] \
            == [0] * len(harness._MEMOS)

    def test_every_memo_cache_is_listed(self):
        modules = [importlib.import_module(f"qsu11.{m.name}")
                   for m in pkgutil.iter_modules(qsu11.__path__)
                   if not m.name.startswith("__")]
        memos = {id(f): f for module in modules for f in vars(module).values()
                 if hasattr(f, "cache_clear")}
        assert sorted(memos) == sorted(map(id, harness._MEMOS)), \
            [f.__qualname__ for f in memos.values()]

    def test_workers_are_the_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert harness._workers() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert harness._workers() == 1


#: ``format="both"`` runs whose reports are compared, by name: passing
#: rows, failing rows, and error rows with NaN values (only two suites at
#: q = 0.9, where smoothing alone takes seconds).
_BOTH_RUNS = {
    "defaults": {},
    "max_terms_3": {"max_terms": 3},
    "q_0.9": {"q": 0.9, "suites": ("identities", "spherical")},
}


@pytest.fixture(scope="module")
def both_reports(tmp_path_factory):
    """Report directory of each run in :data:`_BOTH_RUNS`, by name."""
    dirs = {}
    for name, kw in _BOTH_RUNS.items():
        dirs[name] = tmp_path_factory.mktemp(name)
        run_suite(RunConfig(out_dir=str(dirs[name]), format="both", **kw))
    return dirs


def _csv_dicts(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class TestReportFormats:
    """CSV and JSON reports are written from one table and agree."""

    @pytest.mark.parametrize("run, suite", [
        (run, suite) for run, kw in _BOTH_RUNS.items()
        for suite in kw.get("suites", SUITES)])
    def test_csv_rows_equal_json_rows(self, both_reports, run, suite):
        out = both_reports[run]
        csv_rows = _csv_dicts(out / f"{suite}.csv")
        json_rows = json.loads((out / f"{suite}.json").read_text())["rows"]
        assert len(csv_rows) == len(json_rows) > 0
        for c, j in zip(csv_rows, json_rows):
            assert list(c) == list(_CSV_COLUMNS)
            # Compared as JSON text, so a NaN inside params compares equal.
            assert json.dumps(json.loads(c.pop("param_json")), sort_keys=True) \
                == json.dumps(j.pop("params"), sort_keys=True)
            for key in ("value_re", "value_im", "deviation", "threshold"):
                assert c.pop(key) == repr(j.pop(key))
            assert c == j

    def test_failing_and_error_rows_are_covered(self, both_reports):
        for run, value_re in (("max_terms_3", None), ("q_0.9", "nan")):
            rows = _csv_dicts(both_reports[run] / "identities.csv")
            failed = [r for r in rows if r["verdict"] == "fail"]
            assert failed
            assert value_re is None or any(r["value_re"] == value_re
                                           for r in failed)

    @pytest.mark.parametrize("run", _BOTH_RUNS)
    def test_summary_csv_equals_summary_json(self, both_reports, run):
        out = both_reports[run]
        doc = json.loads((out / "summary.json").read_text())
        assert set(doc) == {"header", "suites"}
        assert [s["suite"] for s in doc["suites"]] \
            == list(_BOTH_RUNS[run].get("suites", SUITES))
        assert _csv_dicts(out / "summary.csv") \
            == [{k: str(v) for k, v in s.items()} for s in doc["suites"]]
        for s in doc["suites"]:
            assert s["verdict"] == ("fail" if s["failures"] else "pass")

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_single_format_writes_only_its_files(self, both_reports, tmp_path,
                                                 fmt):
        assert run_suite(RunConfig(out_dir=str(tmp_path), format=fmt)) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(f"{s}.{fmt}" for s in (*SUITES, "summary"))
        for name in names:
            assert (tmp_path / name).read_bytes() \
                == (both_reports["defaults"] / name).read_bytes()

    @pytest.mark.parametrize("suite, args, rows", (
        # cq^2 past the float range; Heine's b = -lam q^{1+2m} underflows
        ("coamenability", ["--q", "1e-160"], 247),
        # nodes uncertified or node doubling over budget; a half-span past
        # the float range
        ("smoothing", ["--tol-quad", "1e-300"], 12),
        ("smoothing", ["--tol-quad", "1e-310"], 12),
    ), ids=("q-1e-160", "tol-quad-1e-300", "tol-quad-1e-310"))
    def test_extreme_settings_refuse_rows_not_the_suite(self, suite, args,
                                                        rows, tmp_path):
        assert main([*args, "--suite", suite, "--out", str(tmp_path)]) == 1
        got = _csv_dicts(tmp_path / f"{suite}.csv")
        assert len(got) == rows
        assert "suite_crashed" not in {r["check_id"] for r in got}

    def test_crashed_suite_is_reported_in_both_formats(self, tmp_path,
                                                       monkeypatch, capsys):
        def crash(cfg, base):
            raise RuntimeError("builder broke")
            yield

        monkeypatch.setitem(_SUITE_CHECKS, "approxid", crash)
        cfg = RunConfig(suites=("approxid",), out_dir=str(tmp_path),
                        format="both")
        assert run_suite(cfg) == 1
        row = _csv_dicts(tmp_path / "approxid.csv")[0]
        assert (row["check_id"], row["param_json"], row["value_re"]) == (
            "suite_crashed", '{"error":"RuntimeError: builder broke"}', "nan")
        doc = json.loads((tmp_path / "approxid.json").read_text())
        assert doc["rows"][0]["params"] == {"error":
                                            "RuntimeError: builder broke"}
        assert _csv_dicts(tmp_path / "summary.csv") == [
            {"suite": "approxid", "checks": "1", "failures": "1",
             "verdict": "fail"}]
        assert "approxid: 0/1 checks passed [fail]" in capsys.readouterr().out


@pytest.fixture(scope="module")
def default_rows():
    """Every suite's rows at the default configuration, in process."""
    cfg = RunConfig()
    base = QBase(cfg.q)
    return {suite: [_run_check(suite, check)
                    for check in _SUITE_CHECKS[suite](cfg, base)]
            for suite in SUITES}


class TestCheckRunner:
    def test_row_counts_and_unique_ids(self, default_rows):
        counts = {suite: len(rows) for suite, rows in default_rows.items()}
        assert counts == {"identities": 323, "spherical": 117,
                          "coamenability": 247, "smoothing": 12,
                          "approxid": 2}
        for rows in default_rows.values():
            ids = [r["check_id"] for r in rows]
            assert len(set(ids)) == len(ids)
            assert all(r["verdict"] == "pass" for r in rows)

    def test_sweep_rows_carry_deviations(self, default_rows):
        by_id = {r["check_id"]: r for r in default_rows["spherical"]}
        row = by_id["case1_k0"]
        assert len(row["params"]["deviations"]) == len(row["params"]["zs"]) == 3
        assert row["params"]["monotone"] is True
        assert row["deviation"] == row["params"]["deviations"][-1]
        chain = next(r for r in default_rows["smoothing"]
                     if r["check_id"] == "smooth_k2_p0")
        assert len(chain["params"]["deviations"]) == 4
        assert chain["params"]["monotone"] is True

    def test_smoothing_chains_are_certified(self, default_rows):
        chains = [r for r in default_rows["smoothing"]
                  if r["check_id"].startswith("smooth_k")]
        assert len(chains) == 8
        for row in chains:
            bounds = row["params"]["bounds"]
            assert len(bounds) == 4
            assert all(0.0 < b <= RunConfig().tol_quad for b in bounds)
            assert row["deviation"] + bounds[-1] <= row["threshold"]
        # the spherical chains write their values' certificates too
        cases = [r for r in default_rows["spherical"]
                 if r["check_id"].startswith("case")]
        assert len(cases) == 19
        for row in cases:
            assert len(row["params"]["bounds"]) == 3
            assert all(math.isfinite(b) for b in row["params"]["bounds"])

    def test_uncertified_target_fails_the_chain(self, monkeypatch):
        # The target alone uncertified: the cells keep their certificates.
        def uncertified(*args, **kw):
            ev = spherical_az(*args, **kw)
            return SeriesEval(ev.value, ev.terms_used, math.inf)

        monkeypatch.setattr(harness, "spherical_az", uncertified)
        cfg = RunConfig()
        base = QBase(cfg.q)
        check = next(c for c in harness._smoothing_checks(cfg, base)
                     if c.check_id == "smooth_k2_p0")
        row = _run_check("smoothing", check)
        assert row["verdict"] == "fail"
        assert row["deviation"] <= row["threshold"]
        assert all(math.isinf(b) for b in row["params"]["bounds"])

    def test_term_budget_reaches_the_smoothing_nodes(self):
        cfg = RunConfig(max_terms=3)
        rows = {c.check_id: _run_check("smoothing", c)
                for c in harness._smoothing_checks(cfg, QBase(cfg.q))}
        assert len(rows) == 12
        for check_id, row in rows.items():
            if check_id == "affine_mean":  # a supplied integrand
                assert row["verdict"] == "pass"
                continue
            assert row["verdict"] == "fail"
            assert "uncertified after 4 terms" in row["params"]["error"]

    def test_term_budget_reaches_the_gap_rows(self):
        cfg = RunConfig(max_terms=3)
        base = QBase(cfg.q)
        rows = {c.check_id: _run_check("approxid", c)
                for c in harness._approxid_checks(cfg, base)}
        zp = SpectralParam.from_z(0.999, base)
        g = limitlab.approx_identity_gap(
            base, zp, limitlab.symbol_constant(1.0), 12,
            tol=cfg.series_tol, max_terms=3)
        assert rows["const_symbol_bounded"]["deviation"] == g.gap
        assert g.gap != limitlab.approx_identity_gap(
            base, zp, limitlab.symbol_constant(1.0), 12,
            tol=cfg.series_tol).gap
        row = next(_run_check("spherical", c)
                   for c in harness._spherical_checks(cfg, base)
                   if c.check_id == "unifgap_z0.9")
        short, full = (limitlab.uniform_sup_gap(
            base, SpectralParam.from_z(0.9, base), cfg.max_exponent,
            tol=cfg.series_tol, max_terms=mt) for mt in (3, 200))
        assert row["deviation"] == short != full

    def test_one_row_result(self):
        ok = _run_check("s", Check("c", "Eq4.1", {"x": 1},
                                   lambda: _scalar(2.0, 0.5, 0.5)))
        assert (ok["value_re"], ok["value_im"], ok["deviation"], ok["threshold"]) \
            == (2.0, 0.0, 0.5, 0.5)
        assert ok["verdict"] == "pass"
        assert ok["params"] == {"x": 1}
        bad = _run_check("s", Check("c", "Eq4.1", {},
                                    lambda: _scalar(1.0, 0.6, 0.5)))
        assert bad["verdict"] == "fail"
        assert bad["params"] == {}

    def test_relative_row(self):
        a = SeriesEval(3.0 + 4.0j, 1, 1e-3)  # |a| = 5
        b = SeriesEval(3.0, 1, 2e-3)
        ab, ba = _relative(a, b, 1.0), _relative(b, a, 1.0)
        # Symmetric: the same deviation, bound and verdict either way.
        (r,), (s,) = ab.rows, ba.rows
        assert (r.deviation, r.bound, ab.verdict) \
            == (s.deviation, s.bound, ba.verdict)
        # Over the larger modulus, 5 = |a|, whichever operand is first.
        assert (r.value, r.deviation) == (a.value, 4.0 / 5.0)
        assert r.bound == pytest.approx(3e-3 / 5.0, rel=1e-15)
        assert _relative(a, b, 0.8).verdict == "fail"
        # Bare numbers carry bound 0; an uncertified operand fails the row.
        assert _relative(3.0 + 4.0j, 3.0, 0.8).verdict == "pass"
        for rep in (_relative(a, SeriesEval(3.0, 1, math.inf), 1.0),
                    _relative(SeriesEval(3.0, 1, math.inf), a, 1.0)):
            assert rep.verdict == "fail" and math.isinf(rep.rows[0].bound)
        # Two exact zeros agree: deviation 0; bound 0 when both bounds are
        # 0, and inf (no scale to divide by) otherwise.
        (r,) = _relative(0.0, 0j, 0.0).rows
        assert (r.deviation, r.bound, _relative(0.0, 0j, 0.0).verdict) \
            == (0.0, 0.0, "pass")
        for rep in (_relative(SeriesEval(0.0, 1, 1e-3), 0.0, 1.0),
                    _relative(0.0, SeriesEval(0j, 1, 1e-3), 1.0)):
            assert rep.rows[0].deviation == 0.0 and math.isinf(rep.rows[0].bound)
            assert rep.verdict == "fail"

    @pytest.mark.parametrize("max_terms, refused", ((200, 0), (3, 11)))
    def test_every_check_returns_a_report(self, max_terms, refused):
        cfg = RunConfig(max_terms=max_terms)
        base = QBase(cfg.q)
        reports, errors = 0, 0
        for suite in SUITES:
            # Run each check as it is yielded, as run_suite does.
            for check in _SUITE_CHECKS[suite](cfg, base):
                try:
                    out = check.run()
                except QSU11Error:
                    errors += 1
                    continue
                assert isinstance(out, SweepReport), check.check_id
                assert out.rows, check.check_id
                reports += 1
        assert (reports, errors) == (701 - refused, refused)

    @pytest.mark.parametrize("refused", (False, True))
    def test_periodic_rows_share_their_references(self, refused, monkeypatch):
        # Three points, each at three period multiples: one reference per
        # point and one shifted value per row.  A refused reference is not
        # kept, so each of its rows is refused by it, as before.
        cfg = RunConfig()
        base = QBase(cfg.q)
        calls = []

        def counted(base, zp, p0, **kw):
            calls.append(zp.z)
            if refused and zp.z == 0.35:
                raise PoleGuardError("refused reference")
            return spherical_az(base, zp, p0, **kw)

        monkeypatch.setattr(harness, "spherical_az", counted)
        checks = [c for c in harness._spherical_checks(cfg, base)
                  if c.check_id.startswith("periodic_")]
        assert len(checks) == 9
        for check in checks:
            if refused:
                with pytest.raises(PoleGuardError):
                    check.run()
            else:
                assert check.run().verdict == "pass"
        assert (calls.count(0.35), len(calls)) == ((9, 9) if refused else (3, 12))

    def test_sweep_result(self):
        rows = [SweepRow(1, 3j, 0.2), SweepRow(2, 1j, 0.1, "boom")]
        check = Check("c", "Thm5.2", {"x": 1},
                      lambda: sweep_report("t", rows, 1.0))
        row = _run_check("s", check)
        assert row["params"] == {"x": 1, "deviations": [0.2, 0.1],
                                 "monotone": True, "errors": ["boom"]}
        assert (row["value_re"], row["value_im"], row["deviation"],
                row["threshold"]) == (0.0, 1.0, 0.1, 1.0)
        assert row["verdict"] == "fail"
        assert check.params == {"x": 1}

    def test_error_row_keeps_params_and_later_checks_run(self, tmp_path,
                                                         monkeypatch):
        cfg = RunConfig(suites=("smoothing",), out_dir=str(tmp_path),
                        format="json")
        declared = {c.check_id: c.params
                    for c in harness._smoothing_checks(cfg, QBase(cfg.q))}

        def refuse(*args, **kw):
            raise PoleGuardError("refused for the test")

        monkeypatch.setattr(harness, "path_independence", refuse)
        assert run_suite(cfg) == 1
        rows = json.loads((tmp_path / "smoothing.json").read_text())["rows"]
        assert [r["check_id"] for r in rows] == list(declared)
        failed = [r for r in rows if r["verdict"] != "pass"]
        assert [r["check_id"] for r in failed] == ["path_independence"]
        assert failed[0]["params"] == {**declared["path_independence"],
                                       "error": "refused for the test"}
        assert failed[0]["deviation"] == float("inf")
        assert failed[0]["threshold"] == 0.0

    def test_monotone_gap_row_omitted_after_gap_error(self, monkeypatch):
        calls = []

        def second_call_refused(*args, **kw):
            calls.append(args)
            if len(calls) == 2:  # the unifgap_z0.95 check
                raise PoleGuardError("refused for the test")
            return 0.0

        monkeypatch.setattr(harness, "uniform_sup_gap", second_call_refused)
        cfg = RunConfig()
        rows = [_run_check("spherical", check)
                for check in harness._spherical_checks(cfg, QBase(cfg.q))]
        by_id = {r["check_id"]: r for r in rows}
        assert "error" in by_id["unifgap_z0.95"]["params"]
        assert "unifgap_monotone" not in by_id
        assert by_id["unifgap_window"]["verdict"] == "pass"
        assert len(rows) == 116


class TestUncertifiedValuesFail:
    """At ``max_terms=3`` most series end uncertified (``tail_bound =
    inf``): every row built on such a value fails on its bound, whatever
    its deviation, and the rows that keep no certificate keep their
    verdicts."""

    @pytest.fixture(scope="class")
    def verdicts(self):
        cfg = RunConfig(max_terms=3)
        base = QBase(cfg.q)
        return {check.check_id: _run_check(suite, check)["verdict"]
                for suite in SUITES
                for check in _SUITE_CHECKS[suite](cfg, base)}

    def test_rows_on_uncertified_values_fail(self, verdicts):
        must_fail = (
            [f"case1_k{k}" for k in range(-3, 1)]
            + [f"case{c}_k{k}" for c in (2, 3) for k in range(1, 6)]
            + [f"unifgap_z{z}" for z in (0.9, 0.95, 0.99, 0.999)]
            + ["unifgap_monotone", "unifgap_window"]
            + [i for i in verdicts if i.startswith(("periodic_", "real_z", "contract_"))]
            + ["coamen_bound_m0_j2", "coamen_bound_m0_j4"]
            + [f"coamen_limit_{lam}_m{m}" for lam in ("one", "phase04")
               for m in range(-1, 3)]
            + ["weighted_gap_chain", "const_symbol_bounded"])
        assert len(must_fail) == 57 + 10 + 2
        assert {i: verdicts[i] for i in must_fail} == dict.fromkeys(must_fail, "fail")
        # Series that three terms certify: far out on case 1 (k <= -4), the
        # sixth exponent of cases 2 and 3, z = 1, the coamen series at
        # j = 8 and m = -2, and the averaged chains.
        certified = (
            [f"case1_k{k}" for k in range(-6, -3)] + ["case2_k6", "case3_k6"]
            + ["unifgap_z1.0", "coamen_bound_m0_j8", "coamen_limit_one_m-2",
               "coamen_limit_phase04_m-2", "averaged_m0", "averaged_m1", "averaged_m2"])
        assert {i: verdicts[i] for i in certified} == dict.fromkeys(certified, "pass")

    def test_rows_without_a_certificate_keep_their_verdicts(self, verdicts):
        # theta_*: ThetaPair keeps no bound; ratio_*: pochhammer_ratio
        # returns a bare complex; rawsimp_*: both forms share one series;
        # mass_unit, path_independence (refused at three terms) and
        # affine_mean: no quadrature certificate on these rows.
        for prefix, count in (("theta_", 300), ("ratio_", 54), ("rawsimp_", 231)):
            ids = [i for i in verdicts if i.startswith(prefix)]
            assert len(ids) == count
            assert all(verdicts[i] == "pass" for i in ids), prefix
        assert (verdicts["mass_unit"], verdicts["path_independence"],
                verdicts["affine_mean"]) == ("fail", "fail", "pass")


class TestContractRows:
    """The ``contract_*`` rows take the sup of |a_z| over the truncated
    spectrum at z = i t from :func:`qsu11.limitlab._spectrum_window`."""

    @staticmethod
    def _contract_checks(cfg):
        return [c for c in harness._spherical_checks(cfg, QBase(cfg.q))
                if c.check_id.startswith("contract_")]

    @pytest.mark.parametrize("q", (0.5, 0.9))
    def test_sup_matches_a_pointwise_loop(self, q):
        cfg = RunConfig(q=q)
        base = QBase(q)
        depth = min(cfg.max_exponent, 12)
        budget = {"tol": cfg.series_tol, "max_terms": cfg.max_terms}
        checks = self._contract_checks(cfg)
        assert len(checks) == 20
        for check in checks:
            zp = SpectralParam.from_z(complex(0.0, check.params["t"]), base)
            report = check.run()
            value, deviation = report.rows[-1].value, report.rows[-1].deviation
            threshold = report.threshold
            pairs = [(win, spherical_az(base, zp, p, **budget)) for p, win
                     in limitlab._spectrum_window(base, zp, depth, **budget)]
            worst = max(abs(one.value) for _, one in pairs)
            # Sups of moduli that differ pointwise by at most the two tail
            # bounds.
            slack = max(win.tail_bound + one.tail_bound for win, one in pairs)
            assert abs(abs(value) - worst) <= slack, check.check_id
            assert deviation == max(0.0, abs(value) - 1.0)
            assert threshold == 1e-8

    def test_nan_coefficient_fails_the_row_with_a_reason(self, monkeypatch):
        real = limitlab.spherical_window

        def window(*args, **kw):
            evs = real(*args, **kw)
            evs[-1] = SeriesEval(complex("nan"), 1, math.inf)
            return evs

        monkeypatch.setattr(limitlab, "spherical_window", window)
        for check in self._contract_checks(RunConfig()):
            row = _run_check("spherical", check)
            assert row["verdict"] == "fail"
            assert "not finite" in row["params"]["error"]


class TestCli:
    def test_defaults(self):
        cfg = config_from_args([])
        assert cfg == RunConfig()

    def test_flags(self):
        cfg = config_from_args([
            "--q", "0.3", "--tol", "1e-8", "--tol-quad", "1e-6",
            "--max-exponent", "12", "--max-terms", "50",
            "--suite", "identities", "--suite", "smoothing",
            "--out", "/tmp/x", "--format", "both",
        ])
        assert cfg.q == 0.3
        assert cfg.tol == 1e-8
        assert cfg.tol_quad == 1e-6
        assert cfg.max_exponent == 12
        assert cfg.max_terms == 50
        assert cfg.suites == ("identities", "smoothing")
        assert cfg.out_dir == "/tmp/x"
        assert cfg.format == "both"

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            config_from_args(["--suite", "bogus"])

    def test_main_exit_codes(self, tmp_path):
        assert main(["--q", "2.0", "--out", str(tmp_path / "x")]) == 2
        assert main(["--suite", "identities",
                     "--out", str(tmp_path / "ok")]) == 0

    def test_all_suites_listed(self):
        assert SUITES == ("identities", "spherical", "coamenability",
                          "smoothing", "approxid")
