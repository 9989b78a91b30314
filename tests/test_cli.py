"""Command line driver tests: flags, outputs, exit codes."""

import json
import os
import re
import struct

import pytest

from jrom import classfile as cf
from jrom import constpool as cp
from jrom import descriptors as desc
from jrom import lifecycle as lc
from jrom import opcodes as ops
from jrom import romizer as rz
from jrom.cli import main
from jrom.errors import JromError

from . import image_oracle
from .assembler import (ACC_ABSTRACT, ACC_INTERFACE, ACC_PUBLIC,
                        ACC_STATIC, ACC_SUPER, ClassBuilder)
from .conftest import make_pipeline
from .corpus import corpus_names
from .test_linker import GOLDEN_FLAGS


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

    @pytest.mark.parametrize("rom, symbol", [("c.rom", "c"),
                                             ("9lives.rom", "rom_9lives"),
                                             ("système.rom", "syst_me")],
                             ids=["plain", "digit", "non-ascii"])
    def test_c_array_output(self, corpus_dir, out_dir, rom, symbol):
        img = str(out_dir / rom)
        c_path = str(out_dir / "rom_image.c")
        assert run_cli("romize", "--classpath", corpus_dir, "--out", img,
                       "--c-out", c_path, "corpus/Empty") == 0
        text = open(c_path).read()
        image = open(img, "rb").read()
        declared = re.search(r"unsigned char (\S+)\[(\d+)\]", text)
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", declared.group(1))
        assert declared.groups() == (symbol, str(len(image)))
        first = "0x%02x" % image[0]
        assert first in text


class TestVerify:
    def test_clean_run_exit_zero(self, corpus_dir, capsys):
        code = run_cli("verify", "--classpath", corpus_dir, "corpus/Recurse")
        out = capsys.readouterr().out
        assert code == 0
        assert "0 mismatches" in out

    def test_summary_counts_runs_and_repeats(self, corpus_dir, capsys):
        assert run_cli("verify", "--classpath", corpus_dir,
                       "corpus/Recurse") == 0
        summary = re.search(r"checked (\d+) methods, 0 skipped, 0 mismatches; "
                            r"(\d+) runs per side, (\d+) repeated vectors "
                            r"skipped", capsys.readouterr().out)
        checked, runs, repeats = map(int, summary.groups())
        assert runs + repeats == 5 * checked and repeats > 0

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


class TestConstantValueKind:
    """A static field's ConstantValue must be of its type's kind (JVMS
    4.7.2).  Each class below has a static field ``X`` whose constant is of
    another kind, and a ``get()`` that reads it; the class must fail to load,
    named, where the wrong constant once reached the static zones: an
    IndexError from make_ready for the first two, an image load_image
    rejects for the third, and half a long written for the fourth."""

    @pytest.mark.parametrize("command", ["verify", "romize"])
    @pytest.mark.parametrize("name, descriptor, const, ret, kind", [
        ("p/IntFromString", "I", ("s", "text"), "ireturn", "String"),
        ("p/StringFromInt", "Ljava/lang/String;", ("i", 7), "areturn",
         "Integer"),
        ("p/IntFromLong", "I", ("j", 5), "ireturn", "Long"),
        ("p/LongFromInt", "J", ("i", 5), "lreturn", "Integer"),
    ])
    def test_wrong_kind_fails_the_class(self, corpus_dir, tmp_path, capsys,
                                        command, name, descriptor, const,
                                        ret, kind):
        cb = ClassBuilder(name)
        cb.field("X", descriptor, ACC_PUBLIC | ACC_STATIC, const=const)
        cb.default_init()
        cb.method("get", "()" + descriptor, ACC_PUBLIC | ACC_STATIC) \
            .getstatic(name, "X", descriptor).op(ret)
        (tmp_path / "p").mkdir()
        (tmp_path / (name + ".class")).write_bytes(cb.build())
        argv = [command, "--classpath", str(tmp_path), "--classpath",
                corpus_dir, name]
        if command == "romize":
            argv += ["--out", str(tmp_path / "out.rom")]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "FAIL %s: BadIndex: static field X %s has a %s ConstantValue" \
            % (name, descriptor, kind) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.rom").exists()

    def test_instance_field_constant_is_ignored(self, corpus_dir, tmp_path):
        """A ConstantValue of a non-static field is ignored, as the JVM
        does: its kind is not checked, and loading drops it.  The image is
        then the one of the same class without the attribute, and the text
        is not in it: the class's String constant is swept at link, since
        no ldc loads it."""
        text = "instance-constant-text"
        images = []
        for const in (("s", text), None):
            cb = ClassBuilder("p/Instance")
            if const is None:
                cb.pool.string(text)
            cb.field("X", "I", ACC_PUBLIC, const=const)
            cb.default_init()
            root = tmp_path / ("with" if const else "without")
            (root / "p").mkdir(parents=True)
            (root / "p" / "Instance.class").write_bytes(cb.build())
            out = root / "out.rom"
            assert run_cli("romize", "--classpath", str(root), "--classpath",
                           corpus_dir, "--out", str(out), "p/Instance") == 0
            images.append(out.read_bytes())
        assert images[0] == images[1]
        assert images[0].count(text.encode()) == 0
        cls = rz.load_image(images[0]).get("p/Instance")
        field, = cls.fields
        assert (field.name, field.constant_value) == ("X", None)
        assert text not in cls.pool.a_payload


class TestCodeLength:
    """The JVM caps a method's code at 65,535 bytes (JVMS 4.7.3), and the
    image stores the length in two bytes."""

    @staticmethod
    def write_class(root, size):
        """p/Long, whose static run()V is ``size - 1`` nops and a return."""
        cb = ClassBuilder("p/Long", debug_attrs=False)
        cb.default_init()
        # explicit max stack and locals: no depth simulation of 64K ops
        code = cb.method("run", "()V", ACC_PUBLIC | ACC_STATIC,
                         max_stack=0, max_locals=0)
        for _ in range(size - 1):
            code.op("nop")
        code.op("return")
        (root / "p").mkdir()
        (root / "p" / "Long.class").write_bytes(cb.build())

    def test_over_65535_bytes_fails_the_class(self, corpus_dir, tmp_path,
                                              capsys):
        self.write_class(tmp_path, 0x10000)
        assert run_cli("romize", "--classpath", str(tmp_path), "--classpath",
                       corpus_dir, "--out", str(tmp_path / "out.rom"),
                       "p/Long") == 1
        err = capsys.readouterr().err
        assert "FAIL p/Long: ClassFileError: code length 65536 is over " \
            "65535" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.rom").exists()

    def test_65535_bytes_romize_and_round_trip(self, corpus_dir, tmp_path):
        self.write_class(tmp_path, 0xFFFF)
        out = tmp_path / "out.rom"
        assert run_cli("romize", "--classpath", str(tmp_path), "--classpath",
                       corpus_dir, "--out", str(out), "p/Long") == 0
        image = out.read_bytes()
        registry = rz.load_image(image)
        run = next(m for m in registry.get("p/Long").methods
                   if m.name == "run")
        assert len(run.code.bytecode) == 0xFFFF
        assert rz.emit_image(registry.loadable(), registry.image_flags) \
            == image


class TestNarrowLdc:
    def test_string_before_300_utf8s_romizes_and_verifies(
            self, corpus_dir, tmp_path, capsys):
        """A one-byte ldc of a String, whose raw index fits the byte, with
        300 Utf8s after it: loading names the literal, which comes before
        every Utf8 in the atable, so the class romizes and checks clean."""
        cb = ClassBuilder("T")
        cb.default_init()
        cb.method("m", "()Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC) \
            .ldc_str("hello").op("areturn")
        for i in range(300):
            cb.pool.utf8("pad%04d" % i)
        (tmp_path / "T.class").write_bytes(cb.build())
        out = tmp_path / "out.rom"
        assert run_cli("romize", "--classpath", str(tmp_path), "--classpath",
                       corpus_dir, "--out", str(out), "--verify", "T") == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.err and "MISMATCH" not in captured.out
        m = next(m for m in rz.load_image(out.read_bytes()).get("T").methods
                 if m.name == "m")
        assert m.code.bytecode[0] == ops.BY_NAME["ldc_quick_a"]


class TestInspect:
    @staticmethod
    def inspect(path, capsys):
        assert run_cli("inspect", str(path)) == 0
        return dict(line.split(": ", 1)
                    for line in capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("flags", sorted(GOLDEN_FLAGS))
    def test_parts_add_up_to_the_image(self, corpus_dir, tmp_path, capsys,
                                       flags):
        pipe = make_pipeline(corpus_dir, **GOLDEN_FLAGS[flags])
        image = pipe.emit_image()
        (tmp_path / "corpus.rom").write_bytes(image)
        info = self.inspect(tmp_path / "corpus.rom", capsys)
        assert sum(int(info[part]) for part in (
            "header bytes", "string bytes", "class record bytes")) \
            == int(info["bytes"]) == len(image)
        want = pipe.ctx
        assert (info["format"], info["flags"], info["closed packages"],
                info["wide fields"], info["string id bytes"],
                info["class index bytes"], info["classes"]) == (
            "6", " ".join(name for name, on in (
                ("introspection", want.introspection),
                ("private-field-opt", want.private_field_opt),
                ("closed-world", want.closed_world)) if on) or "none",
            "none", "max locals", "1", "1", str(len(pipe.registry.loadable())))
        # every corpus class became ready, so its initial zones hold its
        # constants; the fields are nameless only in a closed world
        # without introspection
        oracle = image_oracle.load_image(image)
        named = want.introspection or not want.closed_world
        assert info["field names"] == ("kept" if named else "dropped")
        assert all((f.name is not None) == named
                   for cls in oracle.loadable() for f in cls.fields)
        assert info["constant values"] == "0" == str(sum(
            f.constant_value is not None
            for cls in oracle.loadable() for f in cls.fields))
        # a one-byte length and the bytes per string, after the string count
        strings = image_oracle.load_strings(image)
        assert int(info["strings"]) == len(strings)
        assert int(info["string bytes"]) == 4 + sum(
            1 + len(s.encode("utf-8", "surrogatepass")) for s in strings)

    def test_closed_packages_are_header_bytes(self, corpus_dir, tmp_path,
                                              capsys):
        pipe = make_pipeline(corpus_dir,
                             closed_packages={"corpus/sealed", "vm"})
        (tmp_path / "corpus.rom").write_bytes(pipe.emit_image())
        info = self.inspect(tmp_path / "corpus.rom", capsys)
        assert info["closed packages"] == "corpus/sealed vm"
        # magic, version, flags, class count, widths; a count and two ids
        assert info["header bytes"] == str(16 + 1 + 2 * 1)

    @pytest.mark.parametrize("flags", sorted(GOLDEN_FLAGS))
    def test_pool_kinds_are_the_reloaded_pools(self, corpus_dir, tmp_path,
                                               capsys, flags):
        image = make_pipeline(corpus_dir, **GOLDEN_FLAGS[flags]).emit_image()
        (tmp_path / "corpus.rom").write_bytes(image)
        info = self.inspect(tmp_path / "corpus.rom", capsys)
        pools = [cls.pool for cls in rz.load_image(image).loadable()]
        for table in ("atable", "vtable"):
            shown = {name.split(" ", 1)[1]: int(count)
                     for name, count in info.items()
                     if name.startswith(table + " ")}
            kinds = [k for pool in pools for k in pool.kinds(table[0])]
            assert shown == {k: kinds.count(k) for k in shown}, table
            assert sum(shown.values()) == len(kinds) > 0, table
        # a linked pool keeps immediates only: no cell names the atable
        assert set(shown) == {cp.V_INT, cp.V_FLOAT, cp.V_LONG_HI,
                              cp.V_LONG_LO, cp.V_DBL_HI, cp.V_DBL_LO}

    def test_truncated_image_fails_cleanly(self, corpus_dir, tmp_path,
                                           capsys):
        image = make_pipeline(corpus_dir).emit_image()
        (tmp_path / "cut.rom").write_bytes(image[:len(image) // 2])
        assert run_cli("inspect", str(tmp_path / "cut.rom")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL Corrupt: truncated ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


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


def _write_chain(root, depth):
    """A superclass chain ``depth`` classes deep, deep/C0 a subclass of
    Object with a static X, each the superclass of the next; the last has
    x()I, which reads X through its own name.  Returns the last's name."""
    for k in range(depth):
        cb = ClassBuilder("deep/C%d" % k, super_name="deep/C%d" % (k - 1)
                          if k else "java/lang/Object")
        cb.default_init()
        if k == 0:
            cb.field("X", "I", ACC_PUBLIC | ACC_STATIC, const=("i", 7))
        if k == depth - 1:
            cb.method("x", "()I", ACC_PUBLIC | ACC_STATIC) \
                .getstatic(cb.name, "X", "I").op("ireturn")
        path = root / (cb.name + ".class")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(cb.build())
    return "deep/C%d" % (depth - 1)


def _write_interfaces(root, supers):
    """Interfaces p/<name> extending the interfaces ``supers`` maps each
    to, p/K implementing the first, and an abstract class p/A with a
    concrete method, whose check looks for a concrete subclass of p/A
    among every loaded class.  Returns the names to check."""
    for name, interfaces in supers.items():
        cb = ClassBuilder("p/" + name, flags=ACC_PUBLIC | ACC_INTERFACE
                          | ACC_ABSTRACT, interfaces=["p/" + i
                                                      for i in interfaces])
        (root / "p").mkdir(parents=True, exist_ok=True)
        (root / "p" / (name + ".class")).write_bytes(cb.build())
    cb = ClassBuilder("p/K", interfaces=["p/" + next(iter(supers))])
    (root / "p" / "K.class").write_bytes(cb.default_init().build())
    cb = ClassBuilder("p/A", flags=ACC_PUBLIC | ACC_SUPER | ACC_ABSTRACT)
    cb.default_init()
    cb.method("x", "()I").op("iconst_1").op("ireturn")
    (root / "p" / "A.class").write_bytes(cb.build())
    return ["p/A", "p/K"]


def _diamonds(levels):
    """T0 extends L0 and R0, each extending T1, and so on: a class
    implementing T0 reaches T<levels> along 2**levels paths."""
    supers = {}
    for k in range(levels):
        supers["T%d" % k] = ["L%d" % k, "R%d" % k]
        supers["L%d" % k] = supers["R%d" % k] = ["T%d" % (k + 1)]
    supers["T%d" % levels] = []
    return supers


class TestDeepHierarchy:
    """Loading walks a superclass chain, and field resolution searches
    one, in a loop: a chain deeper than Python's recursion limit loads,
    links, checks and romizes.  A subclass test searches each interface
    once, so interface cycles and diamonds end, and end fast."""

    @pytest.mark.parametrize("command, depth", [
        ("report", 2000), ("report", 5000), ("romize", 2000),
        ("verify", 1200)])
    def test_deep_superclass_chain(self, corpus_dir, tmp_path, capsys,
                                   command, depth):
        top = _write_chain(tmp_path / "chain", depth)
        argv = [command, "--classpath", str(tmp_path / "chain"),
                "--classpath", corpus_dir, top]
        if command == "romize":
            argv[1:1] = ["--out", str(tmp_path / "deep.rom")]
        assert run_cli(*argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if command == "verify":
            assert "checked %d methods, 0 skipped, 0 mismatches" \
                % (depth + 5) in out

    @pytest.mark.parametrize("supers", [
        {"I1": ["I2"], "I2": ["I1"]}, _diamonds(30)],
        ids=["cycle", "diamonds"])
    def test_interface_graph(self, corpus_dir, tmp_path, capsys, supers):
        targets = _write_interfaces(tmp_path / "ifaces", supers)
        assert run_cli("verify", "--classpath", str(tmp_path / "ifaces"),
                       "--classpath", corpus_dir, *targets) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err


def _write_limits(root, field=None, method=None, static=True, body=None):
    """lim/D, with a field of descriptor ``field`` and a method ``m`` of
    descriptor ``method``, if given, whose body is ``body`` (by default
    iconst_0, ireturn)."""
    cb = ClassBuilder("lim/D")
    cb.default_init()
    if field is not None:
        cb.field("f", field, ACC_PUBLIC | ACC_STATIC)
    if method is not None:
        flags = ACC_PUBLIC | (ACC_STATIC if static else 0)
        c = cb.method("m", method, flags, max_locals=255)
        for op in body or (("iconst_0",),):
            c.op(*op)
        c.op("ireturn")
    path = root / "lim" / "D.class"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(cb.build())
    return "lim/D"


class TestDescriptorLimits:
    """An array type has at most 255 dimensions (JVMS 4.3.2) and a method
    at most 255 argument slots, its receiver's too (JVMS 4.3.3).  Past
    either, the class fails to load, as a class; at either, it loads and
    runs."""

    @staticmethod
    def _run(command, corpus_dir, tmp_path, target):
        argv = [command, "--classpath", str(tmp_path), "--classpath",
                corpus_dir, target]
        if command == "romize":
            argv[1:1] = ["--out", str(tmp_path / "lim.rom")]
        return run_cli(*argv)

    @pytest.mark.parametrize("command", ["report", "romize", "verify"])
    @pytest.mark.parametrize("where, dims", [
        ("method", 5000), ("method", 256), ("field", 300)])
    def test_deep_array_types_fail_as_a_class(self, corpus_dir, tmp_path,
                                              capsys, command, where, dims):
        array = "[" * dims + "I"
        target = _write_limits(tmp_path, **(
            {"field": array} if where == "field"
            else {"method": "(%s)I" % array}))
        assert self._run(command, corpus_dir, tmp_path, target) == 1
        err = capsys.readouterr().err
        assert "array type of %d dimensions, over 255" % dims in err
        assert "Traceback" not in err

    def test_255_dimensions_load(self, corpus_dir, tmp_path, capsys):
        array = "[" * 255 + "I"
        target = _write_limits(tmp_path, field=array,
                               method="(%s)I" % array)
        assert self._run("verify", corpus_dir, tmp_path, target) == 0
        assert re.search(r"checked \d+ methods, 0 skipped, 0 mismatches",
                         capsys.readouterr().out)

    @pytest.mark.parametrize("static, params", [
        (True, "J" * 200), (True, "J" * 127 + "II"), (False, "I" * 255)],
        ids=["400", "256", "receiver-256"])
    def test_past_255_argument_slots_fail_as_a_class(
            self, corpus_dir, tmp_path, capsys, static, params):
        target = _write_limits(tmp_path, method="(%s)I" % params,
                               static=static)
        assert self._run("verify", corpus_dir, tmp_path, target) == 1
        err = capsys.readouterr().err
        assert "argument slots, over 255" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("static, params", [
        (True, "J" * 127 + "I"), (False, "I" * 254)],
        ids=["255", "receiver-255"])
    def test_255_argument_slots_load_and_run(self, corpus_dir, tmp_path,
                                             capsys, static, params):
        # m returns its last argument, in slot 254
        target = _write_limits(tmp_path, method="(%s)I" % params,
                               static=static, body=(("iload", 254),))
        assert self._run("verify", corpus_dir, tmp_path, target) == 0
        assert re.search(r"checked \d+ methods, 0 skipped, 0 mismatches",
                         capsys.readouterr().out)
        image = tmp_path / "lim.rom"
        assert self._run("romize", corpus_dir, tmp_path, target) == 0
        data = image.read_bytes()
        method = rz.load_image(data).get(target) \
            .declared_method(("m", "(%s)I" % params))
        assert method.nargs == 255
        # image loading checks it too: its last parameter made a long
        at = data.find(params.encode() + b")I")
        assert at > 0
        bad = data[:at] + params[:-1].encode() + b"J" \
            + data[at + len(params):]
        with pytest.raises(JromError, match="256 argument slots, over 255"):
            rz.load_image(bad)


class TestIllTypedProbes:
    """Ill-typed bytecode that escapes the command line as a Python error
    rather than failing as a class.  Each probe is a static ()I method
    with max_stack 4 and max_locals 4; once a type checker rejects them,
    these tests pass and their marks must go."""

    @pytest.mark.xfail(strict=True, raises=(TypeError, AttributeError),
                       reason="no type checker rejects ill-typed bytecode")
    @pytest.mark.parametrize("body", [
        (("aconst_null",), ("iconst_1",), ("iadd",)),
        (("iinc", 3, 1), ("iload_3",)),
        (("lconst_1",), ("iconst_1",), ("iadd",)),
        (("iconst_1",), ("arraylength",)),
        (("iconst_1",), ("iconst_0",), ("iaload",)),
    ], ids=["null_iadd", "iinc_unset", "long_iadd", "int_arraylength",
            "int_iaload"])
    def test_probe_fails_as_a_class(self, corpus_dir, tmp_path, capsys,
                                    body):
        cb = ClassBuilder("probe/Ill")
        c = cb.method("m", "()I", ACC_PUBLIC | ACC_STATIC, max_stack=4,
                      max_locals=4)
        for op in body:
            c.op(*op)
        c.op("ireturn")
        (tmp_path / "probe").mkdir()
        (tmp_path / "probe" / "Ill.class").write_bytes(cb.build())
        assert run_cli("verify", "--classpath", str(tmp_path),
                       "--classpath", corpus_dir, "probe/Ill") == 1
        assert "probe/Ill" in capsys.readouterr().err
