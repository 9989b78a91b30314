"""Command line driver tests: flags, outputs, exit codes."""

import json
import os

import pytest

from jrom.cli import main

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

    def test_trace_with_method_filter(self, corpus_dir, capsys):
        code = run_cli("verify", "--classpath", corpus_dir, "--trace",
                       "--method", "corpus/Constants.intConst",
                       "corpus/Constants")
        out = capsys.readouterr().out
        assert code == 0
        assert "ldc_quick_i" in out
