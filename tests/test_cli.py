import gc

import pytest

from conftest import CORPUS_DIR
from instrumenta import cli
from instrumenta.cli import main
from instrumenta.filters import parse_filter
from instrumenta.ir import parse_module
from instrumenta.runtime import read_trace
from test_ir import NON_ASCII
from test_vm_patch import _workload

LISTING1 = CORPUS_DIR / "listing1.ir"

# Two overloads whose pretty names differ after a "*": main calls
# f(char*) 1,000 times (22 ticks a visit) and f(char*, int) once (223).
OVERLOADS = """module "overloads"

func @main file="two.c" lines=1:20
{
^init:
  li r1, 0
  jmp ^loop
^loop:
  call @_Z1fPc
  addi r1, r1, 1
  addi r3, r1, -1000
  jnz r3, ^loop, ^slow
^slow:
  call @_Z1fPci
  li r0, 0
  ret r0
}

func @_Z1fPc pretty="f(char*)" file="two.c" lines=22:25
{
^e:
  work 1
  ret
}

func @_Z1fPci pretty="f(char*, int)" file="two.c" lines=27:31
{
^e:
  jmp ^body
^body:
  work 200
  ret
}
"""


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def out_ir(tmp_path):
    return tmp_path / "out.ir"


class TestInstrument:
    def test_end_to_end(self, tmp_path, out_ir, capsys):
        code = run_cli(
            "instrument", LISTING1, "-o", out_ir, "--mode", "plugin", "-O2"
        )
        assert code == 0
        text = out_ir.read_text(encoding="utf-8")
        assert "hook.enter" in text
        assert "regions:" in text
        parse_module(text)
        err = capsys.readouterr().err
        assert "instrumented 2 function(s)" in err

    def test_with_filter(self, tmp_path, out_ir):
        flt = tmp_path / "f.flt"
        flt.write_text("REGION_NAMES_BEGIN\nEXCLUDE func*\nREGION_NAMES_END\n")
        assert run_cli(
            "instrument", LISTING1, "-o", out_ir, "--mode", "plugin", "-O0",
            "--filter", flt,
        ) == 0
        module = parse_module(out_ir.read_text(encoding="utf-8"))
        func = module.function("_Z4funci")
        assert not any(i.is_hook for b in func.blocks for i in b.instructions)

    def test_bogus_mode_is_usage_error(self, out_ir, capsys):
        code = run_cli("instrument", LISTING1, "-o", out_ir, "--mode", "bogus", "-O0")
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_level_is_usage_error(self, out_ir):
        assert run_cli("instrument", LISTING1, "-o", out_ir, "--mode", "plugin") == 1

    def test_missing_input_file(self, tmp_path, out_ir, capsys):
        code = run_cli(
            "instrument", tmp_path / "nope.ir", "-o", out_ir, "--mode", "plugin", "-O0"
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_ir_is_input_error(self, tmp_path, out_ir):
        bad = tmp_path / "bad.ir"
        bad.write_text('module "m"\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  jmp ^gone\n}\n')
        assert run_cli("instrument", bad, "-o", out_ir, "--mode", "plugin", "-O0") == 2

    @pytest.mark.parametrize("text, message", NON_ASCII)
    def test_non_ascii_digit_or_blank_is_input_error(self, tmp_path, out_ir, capsys, text, message):
        bad = tmp_path / "bad.ir"
        bad.write_text(text, encoding="utf-8")
        assert run_cli("instrument", bad, "-o", out_ir, "--mode", "plugin", "-O0") == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out_ir.exists()

    @pytest.mark.parametrize("command", ["instrument", "run"])
    @pytest.mark.parametrize(
        "body, message",
        [
            ("^e:\n  li r0, 1\n", "line 4, col 1: missing-terminator at main/^e"),
            ("^e:\n  li r0, 1\n  hook.enter 4\n  ret\n",
             "line 6, col 1: unknown-region at main/^e[1]"),
            ("^e:\n  call @zz\n  ret\n",
             "line 5, col 1: undefined-call-target at main/^e[0]"),
        ],
        ids=["missing-terminator", "unknown-region", "undefined-call-target"],
    )
    def test_invalid_module_names_its_line(
        self, tmp_path, out_ir, capsys, command, body, message
    ):
        bad = tmp_path / "bad.ir"
        bad.write_text(f'module "m"\nfunc @main file="a.c" lines=1:2\n{{\n{body}}}\n')
        argv = ["-o", out_ir, "--mode", "plugin", "-O0"] if command == "instrument" else []
        assert run_cli(command, bad, *argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}: ")
        assert not out_ir.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.ir", tmp_path / "b.ir"
        for out in (a, b):
            assert run_cli(
                "instrument", LISTING1, "-o", out, "--mode", "auto", "-O3"
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRunReport:
    def _instrument(self, tmp_path):
        out = tmp_path / "out.ir"
        run_cli("instrument", LISTING1, "-o", out, "--mode", "plugin", "-O0")
        return out

    def test_run_writes_trace(self, tmp_path, capsys):
        out = self._instrument(tmp_path)
        trc = tmp_path / "t.trc"
        assert run_cli("run", out, "--trace", trc) == 0
        stdout = capsys.readouterr().out
        assert "exit: 0" in stdout
        assert "events: 16 (7 enters)" in stdout
        assert trc.exists()

    def test_report_lists_both_regions(self, tmp_path, capsys):
        out = self._instrument(tmp_path)
        trc = tmp_path / "t.trc"
        run_cli("run", out, "--trace", trc)
        capsys.readouterr()
        assert run_cli("report", trc) == 0
        stdout = capsys.readouterr().out
        assert "main" in stdout and "func(int)" in stdout
        line = [l for l in stdout.splitlines() if "func(int)" in l][0]
        assert line.split()[-3] == "6"  # visits column

    def test_run_cost_flags_change_ticks(self, tmp_path, capsys):
        out = self._instrument(tmp_path)
        assert run_cli("run", out) == 0
        base = capsys.readouterr().out
        assert run_cli("run", out, "--hook-event", "40") == 0
        heavier = capsys.readouterr().out
        ticks = lambda s: int([l for l in s.splitlines() if l.startswith("ticks:")][0].split()[1])
        assert ticks(heavier) == ticks(base) + 14 * 20

    def test_runtime_filter_flag(self, tmp_path, capsys):
        out = self._instrument(tmp_path)
        flt = tmp_path / "rt.flt"
        flt.write_text("REGION_NAMES_BEGIN\nEXCLUDE *\nREGION_NAMES_END\n")
        assert run_cli("run", out, "--runtime-filter", flt) == 0
        assert "events: 0 (0 enters)" in capsys.readouterr().out

    def test_step_limit_flag(self, tmp_path, capsys):
        out = self._instrument(tmp_path)
        assert run_cli("run", out, "--step-limit", "announce") == 1
        assert run_cli("run", out, "--step-limit", "-4") == 1
        assert run_cli("run", out, "--step-limit", "5") == 2
        assert "step limit" in capsys.readouterr().err

    def test_uncaught_exception_reported(self, tmp_path, capsys):
        assert run_cli("run", CORPUS_DIR / "throw_uncaught.ir") == 0
        assert "uncaught-exception" in capsys.readouterr().out

    def test_open_region_at_return_writes_no_trace(self, tmp_path, capsys):
        ir = tmp_path / "open.ir"
        ir.write_text(
            'module "m"\nfunc @main file="a.c" lines=1:5\n'
            "{\n^e:\n  hook.register 0\n  hook.enter 0\n  ret\n}\n"
            'regions:\nregion 0 name="main" canonical="main" file="a.c" lines=1:5 flags=0\n'
        )
        trc = tmp_path / "open.trc"
        assert run_cli("run", ir, "--trace", trc) == 2
        assert "run ends with 1 open region(s)" in capsys.readouterr().err
        assert not trc.exists()

    def test_trace_determinism(self, tmp_path):
        out = self._instrument(tmp_path)
        t1, t2 = tmp_path / "1.trc", tmp_path / "2.trc"
        run_cli("run", out, "--trace", t1)
        run_cli("run", out, "--trace", t2)
        assert t1.read_bytes() == t2.read_bytes()

    @pytest.mark.parametrize(
        "source, runtime_filter, expected",
        [
            (LISTING1, "EXCLUDE func*", "events: 3 (1 enters)"),
            (CORPUS_DIR / "throw_uncaught.ir", None, "events: 6 (2 enters)"),
        ],
    )
    def test_events_line_counts_enter_records(
        self, tmp_path, capsys, source, runtime_filter, expected
    ):
        out = tmp_path / "out.ir"
        run_cli("instrument", source, "-o", out, "--mode", "plugin", "-O0")
        trc = tmp_path / "t.trc"
        argv = ["run", out, "--trace", trc]
        if runtime_filter:
            flt = tmp_path / "rt.flt"
            flt.write_text(f"REGION_NAMES_BEGIN\n{runtime_filter}\nREGION_NAMES_END\n")
            argv += ["--runtime-filter", flt]
        capsys.readouterr()
        assert run_cli(*argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert expected in lines
        # The same count as tallying the E records of the written trace.
        events = read_trace(trc.read_text())
        enters = sum(code > 0 for code in events.codes)
        assert expected == f"events: {len(events)} ({enters} enters)"


class TestCompareSuggest:
    def _trace_for(self, tmp_path, mode, level, name):
        out = tmp_path / f"{name}.ir"
        trc = tmp_path / f"{name}.trc"
        run_cli(
            "instrument", CORPUS_DIR / "inline_leaves.ir", "-o", out,
            "--mode", mode, f"-O{level}",
        )
        run_cli("run", out, "--trace", trc)
        return trc

    def test_compare(self, tmp_path, capsys):
        t0 = self._trace_for(tmp_path, "plugin", 0, "p0")
        t3 = self._trace_for(tmp_path, "plugin", 3, "p3")
        capsys.readouterr()
        assert run_cli("compare", f"O0={t0}", f"O3={t3}") == 0
        stdout = capsys.readouterr().out
        assert "O0" in stdout and "O3" in stdout
        assert "deltas" in stdout

    def test_compare_bad_spec_is_usage_error(self, tmp_path):
        assert run_cli("compare", "justapath.trc") == 1

    def test_suggest_filter_to_file(self, tmp_path, capsys):
        out = tmp_path / "h.ir"
        trc = tmp_path / "h.trc"
        run_cli(
            "instrument", CORPUS_DIR / "hotloop.ir", "-o", out, "--mode", "plugin", "-O0"
        )
        run_cli("run", out, "--trace", trc)
        flt = tmp_path / "suggested.flt"
        capsys.readouterr()
        assert run_cli(
            "suggest-filter", trc, "--max-ticks-per-visit", "30",
            "--min-visits", "1000", "-o", flt,
        ) == 0
        rules = parse_filter(flt.read_text(encoding="utf-8"))
        patterns = {r.pattern for r in rules.region_rules}
        assert patterns == {"step()", "update(int)"}

    def test_suggest_filter_stdout(self, tmp_path, capsys):
        out = tmp_path / "l.ir"
        trc = tmp_path / "l.trc"
        run_cli("instrument", LISTING1, "-o", out, "--mode", "plugin", "-O0")
        run_cli("run", out, "--trace", trc)
        capsys.readouterr()
        assert run_cli(
            "suggest-filter", trc, "--max-ticks-per-visit", "1", "--min-visits", "1000"
        ) == 0
        assert capsys.readouterr().out == "REGION_NAMES_BEGIN\nREGION_NAMES_END\n"

    def test_suggest_then_refilter_excludes_only_the_suggested_overload(self, tmp_path, capsys):
        # f(char*) is hot and cheap; as a glob its pretty name also matches
        # f(char*, int), which is dear, so the rule names the mangled name.
        src = tmp_path / "two.ir"
        src.write_text(OVERLOADS, encoding="utf-8")
        out, trc, flt = tmp_path / "two.instr.ir", tmp_path / "two.trc", tmp_path / "s.flt"
        assert run_cli("instrument", src, "-o", out, "--mode", "plugin", "-O0") == 0
        assert run_cli("run", out, "--trace", trc) == 0
        assert run_cli(
            "suggest-filter", trc, "--max-ticks-per-visit", "30", "--min-visits", "1000",
            "-o", flt,
        ) == 0
        assert flt.read_text(encoding="utf-8") == (
            "REGION_NAMES_BEGIN\n  EXCLUDE MANGLED _Z1fPc\nREGION_NAMES_END\n"
        )
        refiltered = tmp_path / "two.refiltered.ir"
        capsys.readouterr()
        assert run_cli(
            "instrument", src, "-o", refiltered, "--mode", "plugin", "-O0", "--filter", flt
        ) == 0
        assert "instrumented 2 function(s), skipped 1" in capsys.readouterr().err
        module = parse_module(refiltered.read_text(encoding="utf-8"))
        hooked = {
            f.mangled_name for f in module.functions
            if any(i.is_hook for b in f.blocks for i in b.instructions)
        }
        assert hooked == {"main", "_Z1fPci"}

    def test_suggest_filter_rejects_nonpositive(self, tmp_path):
        trc = tmp_path / "x.trc"
        trc.write_text("")
        assert run_cli(
            "suggest-filter", trc, "--max-ticks-per-visit", "0", "--min-visits", "5"
        ) == 1


class TestUnwritableOutput:
    """An output path in a missing directory is an input error, exit 2,
    named on stderr without a traceback."""

    def _check(self, capsys, path, *argv):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_instrument_output(self, tmp_path, capsys):
        out = tmp_path / "no" / "out.ir"
        self._check(
            capsys, out, "instrument", LISTING1, "-o", out, "--mode", "plugin", "-O0"
        )

    def test_run_trace(self, tmp_path, capsys):
        out = tmp_path / "out.ir"
        assert run_cli("instrument", LISTING1, "-o", out, "--mode", "plugin", "-O0") == 0
        trc = tmp_path / "no" / "t.trc"
        self._check(capsys, trc, "run", out, "--trace", trc)

    def test_suggest_filter_output(self, tmp_path, capsys):
        out, trc = tmp_path / "out.ir", tmp_path / "t.trc"
        assert run_cli("instrument", LISTING1, "-o", out, "--mode", "plugin", "-O0") == 0
        assert run_cli("run", out, "--trace", trc) == 0
        flt = tmp_path / "no" / "s.flt"
        self._check(
            capsys, flt, "suggest-filter", trc, "--max-ticks-per-visit", "1",
            "--min-visits", "1", "-o", flt,
        )


class TestParserReuse:
    """main builds its argument parser once per process; every call must
    still parse as if the parser were new."""

    def test_usage_error_after_successful_calls(self, tmp_path, capsys):
        out, trc = tmp_path / "out.ir", tmp_path / "t.trc"
        assert run_cli("instrument", LISTING1, "-o", out, "--mode", "plugin", "-O0") == 0
        assert run_cli("run", out, "--trace", trc) == 0
        assert run_cli("report", trc) == 0
        capsys.readouterr()
        assert run_cli("instrument", LISTING1, "--mode", "plugin", "-O0") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "\nusage: instrumenta [-h]" in err

    def test_no_argument_value_carries_over(self, tmp_path, capsys):
        out, trc = tmp_path / "out.ir", tmp_path / "t.trc"
        flt = tmp_path / "f.flt"
        flt.write_text("REGION_NAMES_BEGIN\nEXCLUDE *\nREGION_NAMES_END\n")
        assert run_cli(
            "instrument", LISTING1, "-o", out, "--mode", "plugin", "-O0", "--filter", flt
        ) == 0
        assert "hook.enter" not in out.read_text(encoding="utf-8")
        assert run_cli("instrument", LISTING1, "-o", out, "--mode", "plugin", "-O0") == 0
        assert "hook.enter" in out.read_text(encoding="utf-8")
        capsys.readouterr()

        assert run_cli(
            "run", out, "--trace", trc, "--hook-event", "40", "--runtime-filter", flt,
            "--step-limit", "100000",
        ) == 0
        filtered = capsys.readouterr().out
        assert trc.exists()
        trc.unlink()
        assert run_cli("run", out) == 0
        plain = capsys.readouterr().out
        assert not trc.exists()
        assert "events: 16 (7 enters)" in plain and "events: 0 (0 enters)" in filtered
        assert run_cli("run", out, "--hook-event", "40") == 0
        heavier = capsys.readouterr().out
        ticks = lambda s: int(s.split("ticks: ")[1].split()[0])
        assert ticks(heavier) == ticks(plain) + 14 * 20


class TestCollectorPause:
    """``main`` pauses the cyclic garbage collector for one command and
    leaves it as the caller had it, whatever way the command ends."""

    @pytest.fixture(params=[True, False], ids=["collecting", "paused"])
    def caller_setting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_every_exit_restores_the_setting(self, tmp_path, caller_setting, capsys):
        out = tmp_path / "out.ir"
        instrument = ("instrument", LISTING1, "-o", out, "--mode", "auto", "-O0")
        assert run_cli(*instrument) == 0
        assert gc.isenabled() is caller_setting
        assert run_cli("instrument", LISTING1, "-o", out) == 1  # usage
        assert gc.isenabled() is caller_setting
        assert run_cli("run", tmp_path / "missing.ir") == 2  # input
        assert gc.isenabled() is caller_setting
        capsys.readouterr()

    def test_a_raising_command_restores_the_setting(self, monkeypatch, caller_setting):
        during = []

        def boom(args):
            during.append(gc.isenabled())
            raise RuntimeError("inside a command")

        monkeypatch.setitem(cli._COMMANDS, "report", boom)
        with pytest.raises(RuntimeError, match="inside a command"):
            main(["report", "any.trc"])
        assert during == [False]
        assert gc.isenabled() is caller_setting


def test_commands_leave_little_for_the_collector(tmp_path, monkeypatch, capsys):
    """What a paused collector defers: the cyclic garbage each command of
    the ``compile_wide`` sequence leaves behind.  The collector stays off
    between commands, so no automatic pass frees any of it first."""
    wl = _workload("compile_wide", 7)
    for name, text in wl.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for step in wl.steps:
            assert main(list(step.argv)) == 0, step.label
            assert gc.collect() < 1_000, step.label
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
