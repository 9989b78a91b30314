"""Command line driver tests: flags, outputs, exit codes."""

import json
import os
import struct

import pytest

from jrom import classfile as cf
from jrom import descriptors as desc
from jrom import lifecycle as lc
from jrom import opcodes as ops
from jrom.cli import main

from .assembler import ACC_PUBLIC, ClassBuilder
from .corpus import corpus_names


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def out_dir(tmp_path):
    return tmp_path


class TestReport:
    def test_table_to_stdout(self, corpus_dir, capsys):
        code = run_cli("report", "--classpath", corpus_dir, "--closure",
                       "corpus/app/Driver")
        out = capsys.readouterr().out
        assert code == 0
        # the closure pulls in everything Driver's pool references
        assert "corpus/shapes/Circle" in out
        assert "corpus/Fields" in out
        assert "TOTAL" in out

    def test_records_to_file(self, corpus_dir, out_dir):
        path = str(out_dir / "report.jsonl")
        code = run_cli("report", "--classpath", corpus_dir, "--closure",
                       "--report-format", "records", "--out", path,
                       "corpus/Empty")
        assert code == 0
        lines = [json.loads(l) for l in open(path).read().strip().splitlines()]
        assert any(r.get("aggregate") == "linked" for r in lines)

    def test_targets_only_without_closure(self, corpus_dir, capsys):
        code = run_cli("report", "--classpath", corpus_dir, "corpus/Recurse")
        out = capsys.readouterr().out
        assert code == 0
        assert "corpus/Recurse" in out
        assert "corpus/Arith" not in out

    def test_missing_classpath_entry_is_config_error(self, capsys):
        code = run_cli("report", "--classpath", "/nonexistent/path",
                       "corpus/Empty")
        assert code == 2

    def test_missing_class_is_class_failure(self, corpus_dir, capsys):
        code = run_cli("report", "--classpath", corpus_dir, "no/Such")
        assert code == 1
        err = capsys.readouterr().err
        assert "no/Such" in err

    def test_no_introspection_marks_report(self, corpus_dir, capsys):
        code = run_cli("report", "--classpath", corpus_dir, "--closure",
                       "--no-introspection", "corpus/Empty")
        out = capsys.readouterr().out
        assert code == 0
        assert "introspection=off" in out


class TestRomize:
    def test_image_and_report_written(self, corpus_dir, out_dir, capsys):
        img = str(out_dir / "all.rom")
        code = run_cli("romize", "--classpath", corpus_dir, "--out", img,
                       *corpus_names())
        assert code == 0
        assert os.path.getsize(img) > 0
        assert os.path.exists(img + ".report.txt")

    def test_idempotent_images(self, corpus_dir, out_dir):
        a = str(out_dir / "a.rom")
        b = str(out_dir / "b.rom")
        assert run_cli("romize", "--classpath", corpus_dir, "--out", a,
                       "corpus/Empty") == 0
        assert run_cli("romize", "--classpath", corpus_dir, "--out", b,
                       "corpus/Empty") == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_verify_flag_prints_summary(self, corpus_dir, out_dir, capsys):
        img = str(out_dir / "v.rom")
        code = run_cli("romize", "--classpath", corpus_dir, "--out", img,
                       "--verify", "corpus/Recurse")
        out = capsys.readouterr().out
        assert code == 0
        assert "verified" in out and "methods" in out

    def test_c_array_output(self, corpus_dir, out_dir):
        img = str(out_dir / "c.rom")
        c_path = str(out_dir / "rom_image.c")
        assert run_cli("romize", "--classpath", corpus_dir, "--out", img,
                       "--c-out", c_path, "corpus/Empty") == 0
        text = open(c_path).read()
        image = open(img, "rb").read()
        assert "unsigned char c[%d]" % len(image) in text
        first = "0x%02x" % image[0]
        assert first in text


class TestVerify:
    def test_clean_run_exit_zero(self, corpus_dir, capsys):
        code = run_cli("verify", "--classpath", corpus_dir, "corpus/Recurse")
        out = capsys.readouterr().out
        assert code == 0
        assert "0 mismatches" in out

    def test_corruption_detected_nonzero(self, corpus_dir, capsys):
        code = run_cli("verify", "--classpath", corpus_dir,
                       "--corrupt", "corpus/Constants.intConst",
                       "corpus/Constants")
        captured = capsys.readouterr()
        assert code == 1
        assert "corpus/Constants" in captured.err
        assert "MISMATCH" in captured.err

    def test_zero_methods_warns(self, corpus_dir, tmp_path, capsys):
        from .assembler import ClassBuilder, ACC_PUBLIC, ACC_ABSTRACT
        cb = ClassBuilder("only/Abs",
                          flags=ACC_PUBLIC | 0x0020 | ACC_ABSTRACT)
        cb.method("m", "()I", ACC_PUBLIC | ACC_ABSTRACT)
        d = tmp_path / "only"
        d.mkdir()
        (d / "Abs.class").write_bytes(cb.build())
        obj = tmp_path / "java" / "lang"
        obj.mkdir(parents=True)
        from .corpus import build_corpus
        (obj / "Object.class").write_bytes(
            build_corpus()["java/lang/Object"][0])
        code = run_cli("verify", "--classpath", str(tmp_path), "only/Abs")
        out = capsys.readouterr().out
        assert code == 0
        assert "0 methods checked" not in out or "warning" in out

    @pytest.mark.parametrize("body", [
        ("iconst_1", "dup_x2", "pop", "ireturn"),
        ("dup", "ireturn"),
        ("iconst_1", "swap", "ireturn"),
    ], ids=["dup_x2", "dup", "swap"])
    def test_short_stack_shuffle_is_skipped(self, tmp_path, capsys, body):
        from .assembler import ClassBuilder, ACC_PUBLIC, ACC_STATIC
        from .corpus import build_corpus
        cb = ClassBuilder("only/Shuffle")
        c = cb.method("m", "()I", ACC_PUBLIC | ACC_STATIC)
        for name in body:
            c.op(name)
        (tmp_path / "only").mkdir()
        (tmp_path / "only" / "Shuffle.class").write_bytes(cb.build())
        obj = tmp_path / "java" / "lang"
        obj.mkdir(parents=True)
        (obj / "Object.class").write_bytes(
            build_corpus()["java/lang/Object"][0])
        code = run_cli("verify", "--classpath", str(tmp_path), "only/Shuffle")
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "1 skipped" in out

    def test_quick_opcode_in_class_file_is_a_class_failure(
            self, corpus_dir, tmp_path, capsys):
        """A getfield patched to getfield_quick at field offset 100, far past
        the one field the class has, fails loading and is named."""
        cb = ClassBuilder("probe/Q")
        cb.field("f", "I")
        cb.default_init()
        cb.method("get", "()I", ACC_PUBLIC).op("aload_0") \
            .getfield("probe/Q", "f", "I").op("ireturn")
        data = bytearray(cb.build())
        raw = cf.parse_class(bytes(data))
        code = next(m for m in raw.methods if m.name == "get").attr("Code").code
        at = code.code_offset + 1
        assert data[at] == ops.BY_NAME["getfield"]
        data[at] = ops.BY_NAME["getfield_quick"]
        struct.pack_into(">H", data, at + 1, (100 << 3) | desc.type_code("I"))
        (tmp_path / "probe").mkdir()
        (tmp_path / "probe" / "Q.class").write_bytes(data)
        code = run_cli("verify", "--classpath", str(tmp_path),
                       "--classpath", corpus_dir, "probe/Q")
        assert code == 1
        assert "FAIL probe/Q: BadOpcode: reserved opcode 0xd4 at offset 1" \
            in capsys.readouterr().err

    def test_trace_with_method_filter(self, corpus_dir, capsys):
        code = run_cli("verify", "--classpath", corpus_dir, "--trace",
                       "--method", "corpus/Constants.intConst",
                       "corpus/Constants")
        out = capsys.readouterr().out
        assert code == 0
        assert "ldc_quick_i" in out


class TestClasspath:
    def test_directory_named_like_the_class_is_skipped(self, corpus_dir,
                                                      tmp_path, capsys):
        (tmp_path / "corpus" / "Empty.class").mkdir(parents=True)
        (tmp_path / "file").write_bytes(b"")
        data = lc.Classpath([str(tmp_path), str(tmp_path / "file"),
                             corpus_dir]).find("corpus/Empty")
        assert cf.parse_class(data).name == "corpus/Empty"
        code = run_cli("report", "--classpath", str(tmp_path),
                       "--classpath", corpus_dir, "corpus/Empty")
        assert code == 0

    @pytest.mark.parametrize("target, unreadable", [
        ("corpus/Empty", "Empty.class"),
        # a class that only the closure pulls in
        ("corpus/app/Driver", "Box.class")])
    def test_unreadable_class_is_a_class_failure(self, corpus_dir, monkeypatch,
                                                 out_dir, capsys, target,
                                                 unreadable):
        real_open = open

        def deny(path, *args, **kwargs):
            if path.endswith(os.sep + unreadable):
                raise PermissionError(13, "Permission denied", path)
            return real_open(path, *args, **kwargs)
        monkeypatch.setattr(lc, "open", deny, raising=False)
        code = run_cli("romize", "--classpath", corpus_dir,
                       "--out", str(out_dir / "x.rom"), target)
        assert code == 1
        err = capsys.readouterr().err
        assert "ClassUnreadable" in err
        assert unreadable[:-len(".class")] in err
        assert "Permission denied" in err


class TestClosureFailures:
    @pytest.mark.parametrize("command", ["romize", "verify", "report"])
    def test_failed_target_reported_once_by_name(self, corpus_dir, tmp_path,
                                                 capsys, command):
        """A target whose load fails is not loaded again by the closure: its
        one failure names it, and the report of the rest is still written."""
        (tmp_path / "probe").mkdir()
        (tmp_path / "probe" / "T.class").write_bytes(
            ClassBuilder("probe/T").build()[:-3])
        out = str(tmp_path / "out")
        argv = [command, "--classpath", str(tmp_path), "--classpath",
                corpus_dir, "--closure", "probe/T", "corpus/Empty"]
        if command != "verify":
            argv[1:1] = ["--out", out]
        assert run_cli(*argv) == 1
        fails = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FAIL")]
        assert len(fails) == 1
        assert fails[0].startswith("FAIL probe/T: Truncated: ")
        if command == "report":
            text = open(out).read()
            assert "corpus/Empty" in text and "probe/T" not in text
