"""Interpreter tests: direct execution, differential pairs, fuel behavior."""

import hashlib
import os
import struct
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrom import cli
from jrom import constpool as cp
from jrom import descriptors as dsc
from jrom import lifecycle as lc
from jrom import linker
from jrom import romizer as rz
from jrom import verify as vf
from jrom import opcodes as ops
from jrom.errors import (InterpError, JromError, StackOverflow,
                         StackUnderflow, UnsupportedOpcode, VerifyError)
from jrom.pipeline import Pipeline, VerifyOutcome, _world_difference

from .assembler import (ACC_ABSTRACT, ACC_INTERFACE, ACC_PRIVATE, ACC_PUBLIC,
                        ACC_STATIC, ClassBuilder)
from .conftest import make_pipeline
from .test_linker import GOLDEN_FLAGS


def run_static(pipe, cls_name, method_name, vector=(), stage=lc.LINKED,
               fuel=vf.DEFAULT_FUEL):
    ctx = vf.ExecContext(pipe.registry, stage)
    cls = pipe.registry.get(cls_name)
    m = next(x for x in cls.methods if x.name == method_name)
    out, _ = vf.run_method(ctx, cls_name, m.key, list(vector), fuel)
    return out


class TestBasics:
    def test_imul(self, corpus_dir, tmp_path):
        cb = ClassBuilder("vm/M")
        cb.default_init()
        c = cb.method("m", "()I", ACC_PUBLIC | ACC_STATIC)
        c.op("iconst_2").op("iconst_3").op("imul").op("ireturn")
        d = tmp_path / "vm"
        d.mkdir()
        (d / "M.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/M"], closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        out = run_static(pipe, "vm/M", "m")
        assert (out.kind, out.value) == ("return", ("i", 6))

    def test_known_corpus_values(self, linked_pipeline):
        pipe = linked_pipeline
        assert run_static(pipe, "corpus/Constants", "intConst").value == ("i", 42)
        assert run_static(pipe, "corpus/Recurse", "fact",
                          [("i", 6)]).value == ("i", 720)
        assert run_static(pipe, "corpus/Arith", "table",
                          [("i", 2)]).value == ("i", 20)
        assert run_static(pipe, "corpus/Arith", "lookup",
                          [("i", 1000)]).value == ("i", 3)
        assert run_static(pipe, "corpus/Wide", "far",
                          [("i", 5)]).value == ("i", 22)
        assert run_static(pipe, "corpus/Statics", "readInt").value == ("i", 49)
        assert run_static(pipe, "corpus/Clinit", "snapshot").value == \
            ("j", (1 << 40) + 285 + 101)

    def test_float_and_double_operators(self, linked_pipeline):
        # ((a + b) - a * b) / b: each operator must compute its own result
        out = run_static(linked_pipeline, "corpus/Arith", "floatMix",
                         [("f", 5.0), ("f", 3.0)])
        assert out.value == ("f", vf.float_bits(vf.f32(-7.0 / 3.0)))
        out = run_static(linked_pipeline, "corpus/Arith", "doubleMix",
                         [("d", 5.0), ("d", 3.0)])
        assert out.value == ("d", vf.double_bits(-7.0 / 3.0))

    def test_string_interning_observable(self, linked_pipeline):
        out = run_static(linked_pipeline, "corpus/Strings", "interned")
        assert out.value == ("i", 1)

    def test_division_by_zero_is_thrown_outcome(self, linked_pipeline):
        out = run_static(linked_pipeline, "corpus/Arith", "divmod",
                         [("i", 5), ("i", 0)])
        assert out.kind == "throw"
        assert out.exception == "java/lang/ArithmeticException"

    def test_exception_caught_in_method(self, linked_pipeline):
        out = run_static(linked_pipeline, "corpus/Excepts", "div",
                         [("i", 5), ("i", 0)])
        assert out.value == ("i", -1)

    def test_user_exception_hierarchy_catch(self, linked_pipeline):
        out = run_static(linked_pipeline, "corpus/Excepts", "catchSuper",
                         [("i", -3)])
        assert out.value == ("i", -7)

    def test_uncaught_exception_propagates(self, linked_pipeline):
        out = run_static(linked_pipeline, "corpus/Excepts", "boom",
                         [("i", -1)])
        assert (out.kind, out.exception) == ("throw", "corpus/MyError")

    def test_virtual_dispatch_picks_override(self, linked_pipeline):
        out = run_static(linked_pipeline, "corpus/shapes/ShapeUser", "measure",
                         [("i", 0)])
        assert out.value == ("i", 54)     # circle area 3*3*3 times 2
        out = run_static(linked_pipeline, "corpus/shapes/ShapeUser", "measure",
                         [("i", 1)])
        assert out.value == ("i", 32)     # square area 4*4 times 2

    def test_interface_call(self, linked_pipeline):
        out = run_static(linked_pipeline, "corpus/IfaceUser", "total",
                         [("i", 5)])
        assert out.value == ("i", 104)

    def test_deep_recursion_is_stack_overflow(self, corpus_dir, tmp_path):
        cb = ClassBuilder("vm/Deep")
        cb.default_init()
        c = cb.method("down", "(I)I", ACC_PUBLIC | ACC_STATIC)
        c.op("iload_0").op("iconst_1").op("iadd")
        c.invoke("invokestatic", "vm/Deep", "down", "(I)I")
        c.op("ireturn")
        d = tmp_path / "vm"
        d.mkdir()
        (d / "Deep.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Deep"], closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        out = run_static(pipe, "vm/Deep", "down", [("i", 0)])
        assert (out.kind, out.exception) == ("throw",
                                             "java/lang/StackOverflowError")

    def test_shuffle_on_short_stack_underflows(self, corpus_dir, tmp_path):
        # each shuffle gets one slot fewer than it needs
        need = {"dup": 1, "dup_x1": 2, "dup_x2": 3, "dup2": 2, "dup2_x1": 3,
                "dup2_x2": 4, "swap": 2}
        cb = ClassBuilder("vm/Short")
        cb.default_init()
        for name, n in need.items():
            c = cb.method(name, "()I", ACC_PUBLIC | ACC_STATIC)
            for _ in range(n - 1):
                c.op("iconst_1")
            c.op(name).op("ireturn")
        d = tmp_path / "vm"
        d.mkdir()
        (d / "Short.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Short"], closure=True)
        assert pipe.link_all() == []
        for name in need:
            with pytest.raises(StackUnderflow):
                run_static(pipe, "vm/Short", name)

    def test_growing_shuffle_on_full_stack_overflows(self, corpus_dir,
                                                    tmp_path):
        # each shuffle gets exactly the slots it needs and no room to grow
        need = {"dup_x1": (2, 1), "dup_x2": (3, 1), "dup2_x1": (3, 2),
                "dup2_x2": (4, 2)}
        cb = ClassBuilder("vm/Full")
        cb.default_init()
        for name, (n, grow) in need.items():
            c = cb.method(name, "()I", ACC_PUBLIC | ACC_STATIC, max_stack=n)
            for _ in range(n):
                c.op("iconst_1")
            c.op(name)
            for _ in range(n + grow - 1):
                c.op("iadd")
            c.op("ireturn")
        d = tmp_path / "vm"
        d.mkdir()
        (d / "Full.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Full"], closure=True)
        assert pipe.link_all() == []
        for name in need:
            with pytest.raises(StackOverflow):
                run_static(pipe, "vm/Full", name)

    def test_arrays_past_the_heap_bound_raise(self, corpus_dir, tmp_path):
        cb = ClassBuilder("vm/Big")
        cb.default_init()
        for name, lengths in (("one", [5_000_000]),
                              ("two", [3_000_000, 3_000_000]),
                              ("fits", [3_000_000])):
            c = cb.method(name, "()I", ACC_PUBLIC | ACC_STATIC)
            for length in lengths:
                c.ldc_int(length).op("newarray", 10).op("arraylength")
            for _ in lengths[1:]:
                c.op("iadd")
            c.op("ireturn")
        d = tmp_path / "vm"
        d.mkdir()
        (d / "Big.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Big"], closure=True)
        assert pipe.link_all() == []
        for stage in (lc.LOADED, lc.LINKED):
            for name in ("one", "two"):
                with pytest.raises(InterpError, match="arrays of more than "
                                   "%d elements" % vf.MAX_ARRAY_ELEMENTS):
                    run_static(pipe, "vm/Big", name, stage=stage)
            assert run_static(pipe, "vm/Big", "fits", stage=stage).value \
                == ("i", 3_000_000)

    def test_signed_zero_constants_stay_apart(self, corpus_dir, tmp_path):
        # -0.0 == 0.0, so steps equal by value would be shared wrongly
        cb = ClassBuilder("vm/Zero")
        cb.default_init()
        for name, v in (("fpos", 0.0), ("fneg", -0.0)):
            c = cb.method(name, "()F", ACC_PUBLIC | ACC_STATIC)
            c.op("iconst_0").op("pop").ldc_float(v).op("freturn")
        for name, v in (("dpos", 0.0), ("dneg", -0.0)):
            c = cb.method(name, "()D", ACC_PUBLIC | ACC_STATIC)
            c.op("iconst_0").op("pop").ldc_double(v).op("dreturn")
        d = tmp_path / "vm"
        d.mkdir()
        (d / "Zero.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Zero"], closure=True)
        assert pipe.link_all() == []
        for stage in (lc.LOADED, lc.LINKED):
            for trace in (None, _ignore):
                ctx = vf.ExecContext(pipe.registry, stage)
                got = {name: vf.run_method(ctx, "vm/Zero", (name, desc), [],
                                           trace=trace)[0].value
                       for name, desc in (("fpos", "()F"), ("fneg", "()F"),
                                          ("dpos", "()D"), ("dneg", "()D"))}
                assert got == {"fpos": ("f", 0), "fneg": ("f", 1 << 31),
                               "dpos": ("d", 0), "dneg": ("d", 1 << 63)}

    def test_unsupported_opcode_names_offset(self, corpus_dir, tmp_path):
        cb = ClassBuilder("vm/Mon")
        cb.default_init()
        c = cb.method("m", "()V", ACC_PUBLIC | ACC_STATIC)
        c.op("aconst_null").op("monitorenter").op("return")
        d = tmp_path / "vm"
        d.mkdir()
        (d / "Mon.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Mon"], closure=True)
        assert pipe.link_all() == []
        with pytest.raises(UnsupportedOpcode) as err:
            run_static(pipe, "vm/Mon", "m")
        assert err.value.offset == 1


def _branch(test):
    def emit(c):
        c.op(test, "T").op("iconst_0").op("ireturn")
        c.label("T").op("iconst_1").op("ireturn")
    return emit


def _shuffle(pushes, shuffle, subs):
    def emit(c):
        for op in pushes:
            c.op(*op)
        c.op(shuffle)
        for _ in range(subs):
            c.op("isub")
        c.op("ireturn")
    return emit


def _instance_fields(c):
    c.new("vm/Ops").op("dup")
    c.invoke("invokespecial", "vm/Ops", "<init>", "()V")
    c.op("astore_0")
    c.op("aload_0").op("bipush", 9).putfield("vm/Ops", "v", "I")
    c.op("aload_0").op("lconst_1").putfield("vm/Ops", "w", "J")
    c.op("aload_0").getfield("vm/Ops", "v", "I")
    c.op("aload_0").getfield("vm/Ops", "w", "J")
    c.op("l2i").op("iadd").op("ireturn")


def _same_object(c):
    """if_acmpeq of an object against itself when argument 0 is 0, else
    against a second object made alike."""
    for second in (False, True):
        c.new("vm/Ops").op("dup")
        c.invoke("invokespecial", "vm/Ops", "<init>", "()V")
        if not second:
            c.op("dup").op("iload_0").op("ifeq", "S").op("pop")
    c.label("S")
    _branch("if_acmpeq")(c)


F, D = vf.float_bits, vf.double_bits

# Every opcode the corpus never executes, and ifnull/ifnonnull, which it
# runs but no other check observes: (name, descriptor, emitter,
# [(vector, normalized result)], quick forms the linked code must hold,
# closed world).  Each result is checked at the loaded and linked stage.
OPCODE_CASES = [
    ("nop", "()I", lambda c: c.op("nop").op("iconst_1").op("ireturn"),
     [((), ("i", 1))], (), False),
    ("lconst_0", "()J", lambda c: c.op("lconst_0").op("lreturn"),
     [((), ("j", 0))], (), False),
    ("fconst_0", "()F", lambda c: c.op("fconst_0").op("freturn"),
     [((), ("f", F(0.0)))], (), False),
    ("dconst_0", "()D", lambda c: c.op("dconst_0").op("dreturn"),
     [((), ("d", D(0.0)))], (), False),
    ("sipush", "()I", lambda c: c.op("sipush", -1234).op("ireturn"),
     [((), ("i", -1234))], (), False),
    ("int_locals", "(I)I",
     lambda c: c.op("iload", 0).op("istore", 1).op("iload", 1)
     .op("istore_2").op("iload_2").op("ireturn"),
     [([("i", 7)], ("i", 7))], (), False),
    ("long_locals", "(IJ)J",
     lambda c: c.op("lload", 1).op("lstore", 3).op("lload_3")
     .op("lstore_1").op("lload_1").op("lreturn"),
     [([("i", 0), ("j", 2**33 + 5)], ("j", 2**33 + 5))], (), False),
    ("float_locals", "(FF)F",
     lambda c: c.op("fload_1").op("fstore", 2).op("fload_2")
     .op("fstore_3").op("fload_3").op("freturn"),
     [([("f", 1.0), ("f", -2.5)], ("f", F(-2.5)))], (), False),
    ("double_locals", "(IIID)D",
     lambda c: c.op("dload_3").op("dstore", 5).op("dload", 5)
     .op("dstore_1").op("dload_1").op("dreturn"),
     [([("i", 0), ("i", 0), ("i", 0), ("d", 3.25)], ("d", D(3.25)))],
     (), False),
    ("pop2", "()I",
     lambda c: c.op("iconst_1").op("iconst_2").op("iconst_3").op("pop2")
     .op("ireturn"),
     [((), ("i", 1))], (), False),
    # [1 2] -> [2 1 2]
    ("dup_x1", "()I", _shuffle([("iconst_1",), ("iconst_2",)], "dup_x1", 2),
     [((), ("i", 3))], (), False),
    # [10 4 1] -> [1 10 4 1]
    ("dup_x2", "()I",
     _shuffle([("bipush", 10), ("iconst_4",), ("iconst_1",)], "dup_x2", 3),
     [((), ("i", -6))], (), False),
    # [10 4 1] -> [4 1 10 4 1]
    ("dup2_x1", "()I",
     _shuffle([("bipush", 10), ("iconst_4",), ("iconst_1",)], "dup2_x1", 4),
     [((), ("i", 10))], (), False),
    # [20 10 4 1] -> [4 1 20 10 4 1]
    ("dup2_x2", "()I",
     _shuffle([("bipush", 20), ("bipush", 10), ("iconst_4",),
               ("iconst_1",)], "dup2_x2", 5),
     [((), ("i", 16))], (), False),
    ("swap", "()I", _shuffle([("bipush", 10), ("iconst_3",)], "swap", 1),
     [((), ("i", -7))], (), False),
    ("i2f", "(I)F", lambda c: c.op("iload_0").op("i2f").op("freturn"),
     [([("i", -7)], ("f", F(-7.0)))], (), False),
    # f2d shows that l2f rounded to float
    # 2**60 + 2**36 + 1 rounds up: through a double it would round to 2**60
    ("l2f", "(J)D", lambda c: c.op("lload_0").op("l2f").op("f2d").op("dreturn"),
     [([("j", 2**24 + 1)], ("d", D(2.0**24))),
      ([("j", 2**60 + 2**36 + 1)], ("d", D(2.0**60 + 2**37))),
      ([("j", -(2**60 + 2**36 + 1))], ("d", D(-(2.0**60 + 2**37)))),
      ([("j", -(2**40 + 2**20))], ("d", D(-(2.0**40 + 2**20))))], (), False),
    # past the float range d2f gives an infinity of the double's sign
    ("d2f", "(D)F", lambda c: c.op("dload_0").op("d2f").op("freturn"),
     [([("d", 1e300)], ("f", 0x7F800000)),
      ([("d", -1e300)], ("f", 0xFF800000))], (), False),
    ("d2l", "(D)J", lambda c: c.op("dload_0").op("d2l").op("lreturn"),
     [([("d", -2.5)], ("j", -2)), ([("d", 1e30)], ("j", 2**63 - 1))],
     (), False),
    ("iflt", "(I)I", lambda c: (c.op("iload_0"), _branch("iflt")(c)),
     [([("i", -3)], ("i", 1)), ([("i", 0)], ("i", 0))], (), False),
    ("if_icmpne", "(II)I",
     lambda c: (c.op("iload_0").op("iload_1"), _branch("if_icmpne")(c)),
     [([("i", 2), ("i", 2)], ("i", 0)), ([("i", 2), ("i", 3)], ("i", 1))],
     (), False),
    ("if_icmple", "(II)I",
     lambda c: (c.op("iload_0").op("iload_1"), _branch("if_icmple")(c)),
     [([("i", 3), ("i", 2)], ("i", 0)), ([("i", 2), ("i", 2)], ("i", 1))],
     (), False),
    ("if_acmpne", "(Ljava/lang/String;)I",
     lambda c: (c.op("aload_0").op("aconst_null"), _branch("if_acmpne")(c)),
     [([("null",)], ("i", 0)), ([("str", "x")], ("i", 1))], (), False),
    ("if_acmpeq", "(I)I", _same_object,
     [([("i", 0)], ("i", 1)), ([("i", 1)], ("i", 0))], (), False),
    ("ifnull", "(Ljava/lang/String;)I",
     lambda c: (c.op("aload_0"), _branch("ifnull")(c)),
     [([("null",)], ("i", 1)), ([("str", "x")], ("i", 0))], (), False),
    ("ifnonnull", "(Ljava/lang/String;)I",
     lambda c: (c.op("aload_0"), _branch("ifnonnull")(c)),
     [([("null",)], ("i", 0)), ([("str", "x")], ("i", 1))], (), False),
    # 0: goto_w +7; 5: iconst_0; 6: ireturn; 7: iconst_1; 8: ireturn
    ("goto_w", "()I",
     lambda c: c.op("goto_w", 0, 0, 0, 7).op("iconst_0").op("ireturn")
     .op("iconst_1").op("ireturn"),
     [((), ("i", 1))], (), False),
    ("fields_quick", "()I", _instance_fields,
     [((), ("i", 10))], ("getfield_quick", "putfield_quick"), True),
    ("ldc_quick_a_w", "()Ljava/lang/String;",
     lambda c: c.ldc_str("wide text", wide=True).op("areturn"),
     [((), ("a", ("str", "wide text")))], ("ldc_quick_a_w",), False),
]


@pytest.fixture(scope="module")
def opcode_pipelines(corpus_dir, tmp_path_factory):
    """vm/Ops holding every OPCODE_CASES method, linked open and closed."""
    cb = ClassBuilder("vm/Ops")
    cb.field("v", "I")
    cb.field("w", "J")
    cb.default_init()
    for name, desc, emit, _, _, _ in OPCODE_CASES:
        emit(cb.method(name, desc, ACC_PUBLIC | ACC_STATIC,
                       max_stack=1 if name == "goto_w" else None))
    root = tmp_path_factory.mktemp("opcodes")
    (root / "vm").mkdir()
    (root / "vm" / "Ops.class").write_bytes(cb.build())
    pipes = {}
    for closed in (False, True):
        pipe = Pipeline([str(root), corpus_dir], closed_world=closed)
        pipe.load_targets(["vm/Ops"], closure=True)
        assert pipe.ready_all() == []
        assert pipe.link_all() == []
        pipes[closed] = pipe
    return pipes


@pytest.mark.parametrize("name,desc,emit,runs,quick,closed", OPCODE_CASES,
                         ids=[case[0] for case in OPCODE_CASES])
def test_opcode_result(opcode_pipelines, name, desc, emit, runs, quick,
                       closed):
    pipe = opcode_pipelines[closed]
    method = next(m for m in pipe.registry.get("vm/Ops").methods
                  if m.name == name)
    linked_ops = {ops.mnemonic(op) for _, op, _ in ops.walk(method.code.bytecode)}
    assert set(quick) <= linked_ops, linked_ops
    assert vf.in_subset(method.code_loaded) and vf.in_subset(method.code)
    for vector, expected in runs:
        for stage in (lc.LOADED, lc.LINKED):
            out = run_static(pipe, "vm/Ops", name, vector, stage=stage)
            assert (out.kind, out.value) == ("return", expected), (stage, out)


def _single_instruction(op, sub=None):
    """A body holding one instruction of ``op`` with zeroed operands."""
    if op == ops.TABLESWITCH:     # at offset 0: 3 pad bytes, low = high = 0
        return bytes([op]) + bytes(3 + 16)
    if op == ops.LOOKUPSWITCH:    # no pairs
        return bytes([op]) + bytes(3 + 8)
    if op == ops.WIDE:
        return bytes([op, sub]) + bytes(4 if sub == ops.BY_NAME["iinc"] else 2)
    return bytes([op]) + bytes(ops.OPERAND_BYTES[op])


def test_every_post_load_opcode_has_a_handler():
    # loading rewrites these to quick forms or rejects the class
    rewritten = {ops.BY_NAME[n] for n in ("ldc", "ldc_w", "ldc2_w", "anewarray")}
    assert set(lc._LOAD_QUICK) == rewritten
    unsupported = {ops.BY_NAME[n] for n in ("jsr", "jsr_w", "ret",
                                            "monitorenter", "monitorexit",
                                            "multianewarray")}
    for op in range(256):
        handled = vf._HANDLERS[op] is not vf._unsupported
        expected = op in ops.NAME and op not in rewritten | unsupported
        assert handled == expected, ops.mnemonic(op)
        if op in ops.NAME and op != ops.WIDE:
            # five locals: lload_3 and dstore_3 use slots 3 and 4
            code = lc.MethodCode(bytearray(_single_instruction(op)), 2, 5, [])
            assert vf.in_subset(code) == expected, ops.mnemonic(op)
    for name in ("iload", "lstore", "iinc", "ret"):
        code = lc.MethodCode(
            bytearray(_single_instruction(ops.WIDE, ops.BY_NAME[name])), 2, 4, [])
        assert vf.in_subset(code) == (name != "ret"), name


class TestEffects:
    """``opcodes.EFFECTS`` says what each instruction pops and pushes; the
    interpreter writes its generated steps from those rows, so each step
    leaves on the stack what its row says."""

    UNRUN = ("wide", "ldc", "ldc_w", "ldc2_w", "anewarray", "jsr", "jsr_w",
             "ret", "monitorenter", "monitorexit", "multianewarray")

    def test_every_handled_opcode_has_one_row(self):
        handled = {op for op, handler in enumerate(vf._HANDLERS)
                   if handler not in (vf._unsupported, None)}
        assert handled == set(ops.EFFECTS)
        assert set(ops.NAME) - handled == {ops.BY_NAME[n] for n in self.UNRUN}
        for op, row in ops.EFFECTS.items():
            if not isinstance(row, ops.Effect):
                name = ops.NAME[op]
                if op in vf._FIELD_QUICK or op in vf._FIELD_QUICK.values():
                    for desc, kind in _DESCRIPTOR_KINDS.items():
                        r = row(dsc.type_code(desc))
                        assert (r.pushes or r.pops[-1]) == kind, (name, desc)
                else:
                    rows = [row("(IJ[ILjava/lang/String;)D"), row("()V")]
                    receiver = "" if name == "invokestatic" else "a"
                    assert rows == [ops.Effect(receiver + "ijaa", "d"),
                                    ops.Effect(receiver, "")], name
            elif row.pops.isdigit():        # a shuffle names its slots
                assert set(row.pushes) <= set(row.pops), ops.NAME[op]
            else:
                assert set(row.pops + row.pushes) <= set("ijfda"), \
                    ops.NAME[op]

    def test_single_steps_leave_what_their_rows_push(self, linked_pipeline):
        # every step written from a row that its operand does not decide,
        # and the quick field accesses for each type code
        registry = linked_pipeline.registry
        cls = registry.get("corpus/Empty")
        quick_call = ops.BY_NAME["invokevirtual_quick"]
        checked = set()
        for op, row in sorted(ops.EFFECTS.items()):
            if vf._HANDLERS[op].__class__ is not tuple or op == quick_call:
                # the lazy member steps, and the quick call, whose step
                # decode writes from the number of slots it passes
                continue
            for tc in (range(8) if callable(row) else [None]):
                effect = row(tc) if callable(row) else row
                step = vf._step(op) if tc is None else vf._step(op, tc)
                self._check(registry, cls, op, effect, step)
                checked.add(op)
        expected = {op for op, h in enumerate(vf._HANDLERS)
                    if h.__class__ is tuple and op != quick_call}
        assert checked == expected and len(checked) > 180

    @staticmethod
    def _check(registry, cls, op, effect, step):
        name = ops.NAME[op]
        m = vf.Machine(vf.World(registry, lc.LINKED), 10)
        heap = m.world.heap
        obj = vf.Obj(1, cls, cls.name, [0, 0])  # a reference is its object
        values = {"i": ("i", 1), "j": ("j", 1), "f": ("f", 1.0),
                  "d": ("d", 1.0), "a": ("a", obj)}
        if name in _ARRAY_COMPONENTS:   # pops an array first
            array = heap.new_array(_ARRAY_COMPONENTS[name], 2)
        # the static zones of the class _effect_operand names
        m.world.zones[_STATICS_OWNER.name] = [[obj], [0, 0]]
        stack = []
        for k, kind in enumerate(effect.pops):
            if kind.isdigit():
                stack.append(("i", int(kind)))
            elif k == 0 and name in _ARRAY_COMPONENTS:
                stack.append(("a", array))
            else:
                stack += [values[kind]] + ([vf.PAD] if kind in "jd" else [])
        local = ops.OPERANDS.get(op)
        slot = local.slot or 0 if local and local.kind == ops.LOCAL else 0
        locals_ = [vf.PAD] * 6
        if name.endswith("load") or "load_" in name or name == "iinc":
            kind = effect.pushes or "i"
            locals_[slot] = values[kind]
        entry = (None, [], (), (), len(locals_), 16)
        f = vf.Frame("probe %s" % name, entry, locals_)
        f.stack = list(stack)
        operand = _effect_operand(op, cls)
        if name == "athrow":
            with pytest.raises(vf._Thrown) as thrown:
                step(m, f, operand)
            assert thrown.value.ref is obj
            return
        result = step(m, f, operand)
        if name.endswith("return"):
            assert result[0] == (None if not effect.pops
                                 else values[effect.pops]), name
            return
        assert result is None or result.__class__ is int, name
        if effect.pops.isdigit() or not effect.pops + effect.pushes:
            named = dict(zip(effect.pops, stack))
            assert f.stack == [named[d] for d in effect.pushes], name
        else:
            assert "".join(s[0] for s in f.stack) == "".join(
                k + "~" if k in "jd" else k for k in effect.pushes), name


_DESCRIPTOR_KINDS = {"I": "i", "Z": "i", "B": "i", "C": "i", "S": "i",
                     "F": "f", "J": "j", "D": "d", "Lp/X;": "a", "[I": "a"}
# the instructions that pop an array first -> its component type
_ARRAY_COMPONENTS = {"arraylength": "I", **{
    t + suffix: comp
    for t, comp in zip("ilfdabcs", ("I", "J", "F", "D", "Ljava/lang/Object;",
                                    "B", "C", "S"))
    for suffix in ("aload", "astore")}}


# a class whose static at any offset is its own first
_STATICS_OWNER = types.SimpleNamespace(
    name="probe/Statics", static_slot=lambda zone, offset: (_STATICS_OWNER, 0))


def _effect_operand(op, cls):
    """An operand for ``op`` that lets its step run without throwing."""
    name, entry = ops.NAME[op], ops.OPERANDS.get(op)
    if op in vf._CONSTANTS:
        return vf._CONSTANTS[op]
    if entry is not None and entry.kind == ops.LOCAL:
        return (0, 1) if name == "iinc" else entry.slot or 0
    if entry is not None and entry.kind == ops.BRANCH:
        return 7
    if op in (ops.TABLESWITCH, ops.LOOKUPSWITCH):
        return 7, ((1, 9),)
    if name in ("getstatic_quick", "putstatic_quick"):
        return _STATICS_OWNER, "v", 0
    return {"bipush": ("i", 1), "sipush": ("i", 1), "ldc_quick_i": ("i", 1),
            "ldc_quick_i_w": ("i", 1), "ldc2_quick_l": ("j", 1),
            "ldc_quick_f": vf.float_bits(1.0),
            "ldc_quick_f_w": vf.float_bits(1.0),
            "ldc2_quick_d": vf.double_bits(1.0), "ldc_quick_a": "text",
            "ldc_quick_a_w": "text", "new": cls, "checkcast": cls,
            "instanceof": cls, "newarray": "I",
            "anewarray_quick": "Ljava/lang/Object;",
            "getfield_quick": 0, "putfield_quick": 0}.get(name)


def test_no_step_compiles_at_import():
    """Importing the command line driver compiles no interpreter step: each
    single step is compiled the first time decode asks for it."""
    script = (
        "import jrom.cli\n"
        "from jrom import verify as vf\n"
        "print(vf._step.cache_info().currsize,\n"
        "      vf._compiled.cache_info().currsize, len(vf._TEMPLATES),\n"
        "      len(vf._FIXED))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "0", "0"]


class TestDifferentialPairs:
    def test_ldc_pair_loaded_vs_linked(self, linked_pipeline):
        before = run_static(linked_pipeline, "corpus/Constants", "intConst",
                            stage=lc.LOADED)
        after = run_static(linked_pipeline, "corpus/Constants", "intConst",
                           stage=lc.LINKED)
        assert before.value == after.value == ("i", 42)

    def test_compacted_virtual_call_pair(self, linked_pipeline):
        for n in (0, 1):
            before = run_static(linked_pipeline, "corpus/shapes/ShapeUser",
                                "measure", [("i", n)], stage=lc.LOADED)
            after = run_static(linked_pipeline, "corpus/shapes/ShapeUser",
                               "measure", [("i", n)], stage=lc.LINKED)
            assert before.value == after.value

    def test_differential_check_equal(self, linked_pipeline):
        out = linked_pipeline.verify_all(seed=5, only="corpus/Arith.loopSum")
        assert out.checked == [("corpus/Arith", "loopSum(I)I")], out
        assert not out.failures and not out.skipped

    def test_empty_method_equal(self, linked_pipeline):
        out = linked_pipeline.verify_all(vectors=1, only="corpus/Empty.<init>")
        assert out.checked == [("corpus/Empty", "<init>()V")], out
        assert not out.failures and not out.skipped

    def test_corrupted_operand_detected(self, corpus_dir):
        from .corpus import corpus_names
        pipe = Pipeline([corpus_dir])
        pipe.load_targets(corpus_names(), closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        where = pipe.corrupt("corpus/Constants", "intConst")
        assert where.startswith("corpus/Constants.intConst")
        out = pipe.verify_all(seed=9)
        assert any(cls == "corpus/Constants" and meth.startswith("intConst")
                   for cls, meth, _ in out.failures)

    def test_operand_past_its_table_is_a_failure(self, corpus_dir):
        # ldc_quick_i naming cell 250 of a 16-cell vtable raises InterpError
        # when it runs, which verify_all reports, and no IndexError escapes
        from .corpus import corpus_names
        pipe = Pipeline([corpus_dir])
        pipe.load_targets(corpus_names(), closure=True)
        pipe.ready_all()
        assert pipe.link_all() == []
        cls = pipe.registry.get("corpus/Constants")
        code = next(m for m in cls.methods if m.name == "intConst").code
        assert code.bytecode[0] == ops.BY_NAME["ldc_quick_i"]
        assert len(cls.pool.v_kind) < 250
        code.bytecode[1] = 250
        out = pipe.verify_all(vectors=1, only="corpus/Constants.intConst")
        assert out.checked == []
        [(owner, method, why)] = out.failures
        assert (owner, method) == ("corpus/Constants", "intConst()I")
        assert "error/InterpError" in why

    def test_call_into_class_whose_link_failed(self, corpus_dir, tmp_path):
        # vb/B fails to link (h reads a missing field), so it stays loaded:
        # vb/A's linked code must run B.g against B's loaded pool, reading
        # its operands as raw indexes, on both sides of the comparison
        b = ClassBuilder("vb/B")
        b.field("K", "I", ACC_PUBLIC | ACC_STATIC, const=("i", 7))
        b.default_init()
        g = b.method("g", "()I", ACC_PUBLIC | ACC_STATIC)
        g.getstatic("vb/B", "K", "I").op("ireturn")
        h = b.method("h", "()V", ACC_PUBLIC | ACC_STATIC)
        h.getstatic("vb/B", "missing", "I").op("pop").op("return")
        a = ClassBuilder("vb/A")
        a.default_init()
        m = a.method("m", "()I", ACC_PUBLIC | ACC_STATIC)
        m.invoke("invokestatic", "vb/B", "g", "()I").op("ireturn")
        (tmp_path / "vb").mkdir()
        (tmp_path / "vb" / "B.class").write_bytes(b.build())
        (tmp_path / "vb" / "A.class").write_bytes(a.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vb/A", "vb/B"], closure=True)
        pipe.ready_all()
        failures = pipe.link_all()
        assert [name for name, _ in failures] == ["vb/B"], failures
        assert pipe.registry.get("vb/B").state == lc.LOADED
        out = pipe.verify_all(vectors=1, only="vb/A.m")
        assert out.checked == [("vb/A", "m()I")], out
        assert not out.failures and not out.skipped

    def test_clinit_differential_uses_initial_zones(self, linked_pipeline):
        # verify_all runs <clinit> from zones_initial on both sides
        out = linked_pipeline.verify_all(vectors=1,
                                         only="corpus/Clinit.<clinit>")
        assert out.checked == [("corpus/Clinit", "<clinit>()V")], out
        assert not out.failures and not out.skipped


def _diff(pipe, cls_name, method_name, vecs):
    """_diff_method's verdict on ``vecs``, and the runs and repeats it
    counted."""
    m = next(x for x in pipe.registry.get(cls_name).methods
             if x.name == method_name)
    out = VerifyOutcome()
    verdict = pipe._diff_method(
        cls_name, m.key, vf.ExecContext(pipe.registry, lc.LOADED),
        vf.ExecContext(pipe.registry, lc.LINKED), vecs,
        Pipeline.VERIFY_FUEL, None, out)
    return verdict, (out.runs, out.repeats)


class TestRepeatedVectors:
    """Each distinct vector of a method runs once per side, and a mismatch
    is reported under its vector's place in the list."""

    @staticmethod
    def _pipe(corpus_dir, tmp_path):
        cb = ClassBuilder("vm/Rep")
        cb.default_init()
        cb.method("same", "(F)F", ACC_PUBLIC | ACC_STATIC) \
            .op("fload_0").op("freturn")
        cb.method("times5", "(I)I", ACC_PUBLIC | ACC_STATIC) \
            .op("iload_0").op("bipush", 5).op("imul").op("ireturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Rep"], closure=True)
        assert pipe.ready_all() == []
        assert pipe.link_all() == []
        return pipe

    def test_floats_are_equal_by_their_bits(self, corpus_dir, tmp_path):
        pipe = self._pipe(corpus_dir, tmp_path)
        zeros = [[("f", 0.0)], [("f", -0.0)], [("f", 0.0)]]
        assert _diff(pipe, "vm/Rep", "same", zeros) == (None, (2, 1))
        nans = [[("f", vf.bits_float(0x7FC00000))],
                [("f", vf.bits_float(0x7FC00000))],
                [("f", vf.bits_float(0x7FC00001))]]
        assert _diff(pipe, "vm/Rep", "same", nans) == (None, (2, 1))

    def test_mismatch_after_a_repeat_keeps_its_index(self, corpus_dir,
                                                     tmp_path):
        pipe = self._pipe(corpus_dir, tmp_path)
        assert pipe.corrupt("vm/Rep", "times5") == "vm/Rep.times5+2"
        vecs = [[("i", 0)], [("i", 0)], [("i", 3)], [("i", 3)]]
        verdict, counts = _diff(pipe, "vm/Rep", "times5", vecs)
        assert verdict.startswith("vector 2: outcome "), verdict
        assert "('i', 15)" in verdict and "('i', 12)" in verdict, verdict
        assert counts == (2, 1)

    def test_sentinel_of_criterion_3_at_vector_0(self, corpus_dir):
        # intConst takes no arguments: its five vectors are one
        pipe = make_pipeline(corpus_dir)
        only = "corpus/Constants.intConst"
        out = pipe.verify_all(only=only)
        assert out.checked and (out.runs, out.repeats) == (1, 4)
        pipe.corrupt("corpus/Constants", "intConst")
        out = pipe.verify_all(only=only)
        [(_, method, detail)] = out.failures
        assert method == "intConst()I" and detail.startswith("vector 0: ")


class TestMismatchDetail:
    def test_static_slot_difference_is_named(self, corpus_dir, tmp_path):
        cb = ClassBuilder("vm/Slots")
        cb.field("a", "I", ACC_PUBLIC | ACC_STATIC)
        cb.field("b", "I", ACC_PUBLIC | ACC_STATIC)
        cb.default_init()
        c = cb.method("set", "()V", ACC_PUBLIC | ACC_STATIC)
        c.op("iconst_5").putstatic("vm/Slots", "a", "I").op("return")
        (tmp_path / "vm").mkdir()
        (tmp_path / "vm" / "Slots.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Slots"], closure=True)
        assert pipe.ready_all() == []
        assert pipe.link_all() == []
        cls = pipe.registry.get("vm/Slots")
        b = next(f for f in cls.fields if f.name == "b")
        bc = next(m for m in cls.methods if m.name == "set").code.bytecode
        assert bc[1] == ops.BY_NAME["putstatic_quick"]
        ops.write_operand(bc, 1, 2, (b.offset << 3) | b.type_code)
        out = pipe.verify_all(vectors=1, only="vm/Slots.set")
        assert [(c, m) for c, m, _ in out.failures] == [("vm/Slots", "set()V")]
        detail = out.failures[0][2]
        assert "vm/Slots" in detail and "v-zone" in detail, detail
        assert "slot 0: 5 vs 0" in detail, detail

    def test_heap_object_difference_is_named(self):
        ctx = vf.ExecContext(None, lc.LINKED)
        dig_a = ({}, ((1, "obj", "p/Q", (3,)),))
        dig_b = ({}, ((1, "obj", "p/Q", (4,)), (2, "arr", "I", ())))
        detail = _world_difference(ctx, dig_a, ctx, dig_b)
        assert detail == "heap object 1: ('obj', 'p/Q', (3,)) vs " \
                         "('obj', 'p/Q', (4,))"
        detail = _world_difference(ctx, dig_b, ctx, dig_b[:1] + (dig_b[1][1:],))
        assert detail.startswith("heap object 1: ('obj'")
        assert detail.endswith("vs 'absent'")


def _seeded_runs(pipe, seed=0, count=5):
    """(class name, method, base, seeded vectors) of each method that
    verify_all compares, in its order."""
    for cls in pipe.linked_classes():
        for m in cls.methods:
            if m.code is not None and vf.in_subset(m.code_loaded):
                base = "init" if m.name == "<clinit>" else "live"
                yield cls.name, m, base, vf.seeded_vectors(m, seed, count)


def _first_draws(vecs):
    """For each vector, whether no earlier one in ``vecs`` equals it item
    by item, floats compared by their bits."""
    seen, first = set(), []
    for vec in vecs:
        ident = tuple(tuple(struct.pack(">d", x) if isinstance(x, float)
                            else x for x in item) for item in vec)
        first.append(ident not in seen)
        seen.add(ident)
    return first


class TestDeterminismAndFuel:
    def test_a_second_run_repeats_the_first(self, linked_pipeline):
        # verify_all runs each distinct vector once per side, which holds
        # only while a run is a pure function of its inputs: a second run
        # of a vector, on a warm decode, gives the first's outcome and world
        pipe = linked_pipeline
        reloaded = rz.load_image(pipe.emit_image())
        distinct = 0
        for cls_name, m, base, vecs in _seeded_runs(pipe):
            contexts = (vf.ExecContext(pipe.registry, lc.LOADED, base),
                        vf.ExecContext(pipe.registry, lc.LINKED, base),
                        vf.ExecContext(reloaded, lc.LINKED, base))
            for vec, first in zip(vecs, _first_draws(vecs)):
                if not first:
                    continue
                distinct += 1
                for ctx in contexts:
                    once = vf.run_method(ctx, cls_name, m.key, vec,
                                         Pipeline.VERIFY_FUEL)
                    again = vf.run_method(ctx, cls_name, m.key, vec,
                                          Pipeline.VERIFY_FUEL)
                    assert once == again, (ctx.stage, cls_name, m.name, vec)
        assert distinct == 437

    def test_execute_is_deterministic(self, linked_pipeline):
        a = run_static(linked_pipeline, "corpus/app/Tour", "boxTour",
                       [("i", 4)])
        b = run_static(linked_pipeline, "corpus/app/Tour", "boxTour",
                       [("i", 4)])
        assert (a.kind, a.value, a.exception) == (b.kind, b.value, b.exception)

    def test_fuel_exhaustion_outcome(self, linked_pipeline):
        out = run_static(linked_pipeline, "corpus/Recurse", "fib",
                         [("i", 25)], fuel=500)
        assert out.kind == "fuel"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=8), st.integers(0, 3))
    def test_fuel_monotonicity(self, n, bump):
        pipe = TestDeterminismAndFuel._pipe
        base = run_static(pipe, "corpus/Recurse", "fact", [("i", n)],
                          fuel=10_000)
        assert base.kind == "return"
        # find a completing budget, then grow it: outcome must not change
        lo, hi = 1, 10_000
        while lo < hi:
            mid = (lo + hi) // 2
            if run_static(pipe, "corpus/Recurse", "fact", [("i", n)],
                          fuel=mid).kind == "return":
                hi = mid
            else:
                lo = mid + 1
        for extra in (0, 1 + bump, 77):
            out = run_static(pipe, "corpus/Recurse", "fact", [("i", n)],
                             fuel=lo + extra)
            assert out.value == base.value

    @pytest.fixture(autouse=True)
    def _stash_pipeline(self, linked_pipeline):
        TestDeterminismAndFuel._pipe = linked_pipeline

    def test_trace_emits_lines(self, linked_pipeline):
        lines = []
        ctx = vf.ExecContext(linked_pipeline.registry, lc.LINKED)
        cls = linked_pipeline.registry.get("corpus/Constants")
        m = next(x for x in cls.methods if x.name == "intConst")
        vf.run_method(ctx, "corpus/Constants", m.key, [],
                      trace=lines.append)
        assert lines
        assert "ldc_quick_i" in lines[0]
        assert "depth=" in lines[0]


class TestWorldDigest:
    def test_static_writes_are_observable(self, linked_pipeline):
        reg = linked_pipeline.registry
        ctx = vf.ExecContext(reg, lc.LINKED)
        m = next(x for x in reg.get("corpus/Statics").methods
                 if x.name == "setInt")
        _, dig_a = vf.run_method(ctx, "corpus/Statics", m.key, [("i", 100)])
        _, dig_b = vf.run_method(ctx, "corpus/Statics", m.key, [("i", 101)])
        assert dig_a != dig_b

    def test_created_arrays_are_observable(self, linked_pipeline):
        reg = linked_pipeline.registry
        ctx = vf.ExecContext(reg, lc.LINKED)
        m = next(x for x in reg.get("corpus/Arrays").methods
                 if x.name == "sumInt")
        _, dig_a = vf.run_method(ctx, "corpus/Arrays", m.key, [("i", 3)])
        _, dig_b = vf.run_method(ctx, "corpus/Arrays", m.key, [("i", 4)])
        assert dig_a != dig_b

    def test_results_name_heap_items_whatever_their_tag(self):
        # ill-typed code (aload_0; ireturn, say) can tag a reference "i":
        # two runs that return alike must still give equal outcomes
        for _ in range(2):
            heap = vf.MiniHeap()
            obj, arr = heap.new_pseudo("p/X"), heap.new_array("I", 2)
            assert vf.normalize_slot(("i", obj)) == ("i", ("obj", 1, "p/X"))
            assert vf.normalize_slot(("j", arr)) == ("j", ("arr", 2, "I"))
            assert vf.normalize_slot(("i", heap.intern("s"))) \
                == ("i", ("str", "s"))
            assert vf.normalize_slot(("a", None)) == ("a", None)


def method_key_of(reg, cls_name, method_name):
    return next(m.key for m in reg.get(cls_name).methods
                if m.name == method_name)


class TestLazyWorld:
    """Invariants of worlds that copy and digest only what a run touches."""

    def test_untouched_corrupt_static_in_reload_is_reported(
            self, linked_pipeline):
        reloaded = rz.load_image(linked_pipeline.emit_image())
        cls = reloaded.get("corpus/Clinit")
        total = next(f for f in cls.fields if f.name == "total")
        _, local = cls.static_slot(total.zone, total.offset)
        cls.v_static_zone[local] ^= 1       # only <clinit> reads it, from init
        out = linked_pipeline.verify_all(vectors=1, after_registry=reloaded)
        assert any(c == "corpus/Clinit" for c, _, _ in out.failures)

    def test_read_only_run_digests_like_fresh_world(self, linked_pipeline):
        reg = linked_pipeline.registry
        fresh = vf.world_digest(vf.World(reg, lc.LINKED))
        key = method_key_of(reg, "corpus/Statics", "readInt")
        out, digest = vf.run_method(vf.ExecContext(reg, lc.LINKED),
                                    "corpus/Statics", key, [])
        assert out.kind == "return"
        assert digest == fresh

    def test_writing_base_value_back_is_unobservable(self, linked_pipeline):
        reg = linked_pipeline.registry
        fresh = vf.world_digest(vf.World(reg, lc.LINKED))
        key = method_key_of(reg, "corpus/Statics", "setInt")
        ctx = vf.ExecContext(reg, lc.LINKED)
        _, same = vf.run_method(ctx, "corpus/Statics", key, [("i", 7)])
        _, other = vf.run_method(ctx, "corpus/Statics", key, [("i", 8)])
        assert same == fresh
        assert other != fresh

    def test_object_ids_ignore_string_static_reads(self, corpus_dir,
                                                   tmp_path):
        # objects and arrays count from 1 in the order a run makes them,
        # and the digest lists them in that order
        cb = ClassBuilder("vm/Ids")
        cb.field("S", "Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC,
                 const=("s", "static text"))
        cb.default_init()
        for name, read_first in (("plain", False), ("afterRead", True),
                                 ("mixed", True)):
            c = cb.method(name, "()Lvm/Ids;", ACC_PUBLIC | ACC_STATIC)
            if read_first:
                c.getstatic("vm/Ids", "S", "Ljava/lang/String;").op("pop")
            if name == "mixed":
                c.ldc_str("literal").op("pop")
                c.new("vm/Ids").op("pop").op("iconst_2")
                c.op("newarray", 10).op("pop")
            c.new("vm/Ids").op("dup")
            c.invoke("invokespecial", "vm/Ids", "<init>", "()V")
            c.op("areturn")
        (tmp_path / "vm").mkdir()
        (tmp_path / "vm" / "Ids.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Ids"], closure=True)
        assert pipe.ready_all() == []
        assert pipe.link_all() == []
        plain = run_static(pipe, "vm/Ids", "plain")
        after_read = run_static(pipe, "vm/Ids", "afterRead")
        assert plain.value == ("a", ("obj", 1, "vm/Ids"))
        assert after_read.value == plain.value
        ctx = vf.ExecContext(pipe.registry, lc.LINKED)
        out, (_, heap) = vf.run_method(ctx, "vm/Ids", ("mixed", "()Lvm/Ids;"),
                                       [])
        assert out.value == ("a", ("obj", 3, "vm/Ids"))
        assert heap == ((1, "obj", "vm/Ids", ()), (2, "arr", "I", (0, 0)),
                        (3, "obj", "vm/Ids", ()))


# the trace stream of every seeded run (seed 0, 5 vectors) of every method
# verify_all compares on the linked corpus, loaded then linked, in its order:
# any change to which instructions run, in what order, at what stack depth
# shows
GOLDEN_TRACE_LINES = 830_358
GOLDEN_TRACE_SHA256 = \
    "f5fb82c6e00d4c889ebcb8370daedeee1ab645afbff853fb1826d99bd56e32a3"


class _TraceDigest:
    """A trace sink that keeps only the count and SHA-256 of its lines."""

    def __init__(self):
        self.lines, self.sha = 0, hashlib.sha256()

    def __call__(self, line):
        self.lines += 1
        self.sha.update(line.encode() + b"\n")


@pytest.fixture(scope="module")
def golden_streams(corpus_dir):
    """Traces of every seeded run, and of the runs of each method's
    distinct vectors alone, driven through run_method."""
    pipe = make_pipeline(corpus_dir)
    every, distinct = _TraceDigest(), _TraceDigest()

    def both(line):
        every(line)
        distinct(line)
    for cls_name, m, base, vecs in _seeded_runs(pipe):
        for vec, first in zip(vecs, _first_draws(vecs)):
            for stage in (lc.LOADED, lc.LINKED):
                vf.run_method(vf.ExecContext(pipe.registry, stage, base),
                              cls_name, m.key, vec, Pipeline.VERIFY_FUEL,
                              trace=both if first else every)
    return every, distinct


def _write_class(root, cb):
    path = root / (cb.name + ".class")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(cb.build())


class TestDecode:
    """Decoding each body once keeps every outcome, error and trace line of
    reading each operand as its instruction runs."""

    def test_golden_trace(self, golden_streams):
        every, _ = golden_streams
        assert every.lines == GOLDEN_TRACE_LINES
        assert every.sha.hexdigest() == GOLDEN_TRACE_SHA256

    def test_verify_all_traces_each_distinct_run_once(self, corpus_dir,
                                                      golden_streams):
        _, distinct = golden_streams
        sink = _TraceDigest()
        out = make_pipeline(corpus_dir).verify_all(seed=0, trace=sink)
        assert len(out.checked) == 168 and not out.failures
        assert (out.runs, out.repeats) == (437, 403)
        assert sink.lines == distinct.lines < GOLDEN_TRACE_LINES
        assert sink.sha.hexdigest() == distinct.sha.hexdigest()

    def test_dead_operands_raise_only_when_run(self, corpus_dir, tmp_path):
        cb = ClassBuilder("vm/Lazy")
        cb.default_init()
        c = cb.method("badType", "(I)I", ACC_PUBLIC | ACC_STATIC)
        c.op("iload_0").op("ifeq", "DEAD").op("iconst_1").op("ireturn")
        c.label("DEAD").op("iconst_2").op("newarray", 99).op("pop")
        c.op("iconst_0").op("ireturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Lazy"], closure=True)
        for _ in range(2):      # the second run reads the cached decode
            out = run_static(pipe, "vm/Lazy", "badType", [("i", 1)],
                             stage=lc.LOADED)
            assert (out.kind, out.value) == ("return", ("i", 1))
            with pytest.raises(InterpError, match="bad newarray type 99"):
                run_static(pipe, "vm/Lazy", "badType", [("i", 0)],
                           stage=lc.LOADED)

    def test_quick_call_of_no_argument_slots_raises_only_when_run(
            self, linked_pipeline):
        # castArea(I)I: 0 iload_0; 1 invokestatic make; 4 checkcast Shape;
        # 7 invokevirtual_quick area, whose argument-slot byte is set to 0.
        # make(1) is a Box, which the handler of the failed cast returns -4
        # for; make(0) is a Circle, whose call of area runs the bad operand.
        reloaded = rz.load_image(linked_pipeline.emit_image())
        code = reloaded.get("corpus/Casts").declared_method(
            ("castArea", "(I)I")).code
        assert code.bytecode[7] == ops.BY_NAME["invokevirtual_quick"]
        code.bytecode[8] = 0
        ctx = vf.ExecContext(reloaded, lc.LINKED)
        for trace in (None, _ignore):
            out, _ = vf.run_method(ctx, "corpus/Casts", ("castArea", "(I)I"),
                                   [("i", 1)], trace=trace)
            assert (out.kind, out.value) == ("return", ("i", -4))
            with pytest.raises(InterpError, match="bad invokevirtual_quick "
                               "of no argument slots"):
                vf.run_method(ctx, "corpus/Casts", ("castArea", "(I)I"),
                              [("i", 0)], trace=trace)

    def test_branch_off_an_instruction_boundary(self, corpus_dir, tmp_path):
        # 0: bipush 7; 2: goto +3; 5: ireturn
        cb = ClassBuilder("vm/Jump")
        cb.default_init()
        c = cb.method("m", "()I", ACC_PUBLIC | ACC_STATIC)
        c.op("bipush", 7).op("goto", "R").label("R").op("ireturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Jump"], closure=True)
        assert pipe.link_all() == []
        code = next(m for m in pipe.registry.get("vm/Jump").methods
                    if m.name == "m").code
        assert run_static(pipe, "vm/Jump", "m").value == ("i", 7)
        # a body changed after loading is checked again once its shape is
        # dropped: its first decode raises before any instruction runs
        for rel in (-1, -4, -100, 4):
            ops.write_operand(code.bytecode, 2, 2, rel & 0xFFFF)
            code.shape = code.decoded = None
            with pytest.raises(VerifyError, match=r"<method vm/Jump\.m\(\)I>:"
                               " branch from 2 to non-boundary %d" % (2 + rel)):
                run_static(pipe, "vm/Jump", "m", fuel=0)
        # past the last instruction there is no step to run
        ops.write_operand(code.bytecode, 2, 2, 3)
        code.bytecode[5] = ops.BY_NAME["nop"]
        code.shape = code.decoded = None
        with pytest.raises(InterpError, match="fell off the end of the code"):
            run_static(pipe, "vm/Jump", "m")

    def test_corrupt_after_a_run_is_detected(self, corpus_dir):
        pipe = make_pipeline(corpus_dir)
        only = "corpus/Constants.intConst"
        assert pipe.verify_all(vectors=1, only=only).checked
        pipe.corrupt("corpus/Constants", "intConst")
        out = pipe.verify_all(vectors=1, only=only)
        assert [(c, m) for c, m, _ in out.failures] == \
            [("corpus/Constants", "intConst()I")]

    def test_corrupted_branch_is_checked_again(self, corpus_dir, tmp_path):
        # 0: goto +3; 3: iconst_1; 4: ireturn.  The flip makes the goto
        # jump to 2, inside itself.
        cb = ClassBuilder("vm/Leap")
        cb.default_init()
        c = cb.method("m", "()I", ACC_PUBLIC | ACC_STATIC)
        c.op("goto", "R").label("R").op("iconst_1").op("ireturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Leap"], closure=True)
        assert pipe.link_all() == []
        assert pipe.verify_all(vectors=1, only="vm/Leap.m").checked
        assert pipe.corrupt("vm/Leap", "m") == "vm/Leap.m+2"
        out = pipe.verify_all(vectors=1, only="vm/Leap.m")
        assert out.failures == [("vm/Leap", "m()I",
                                 "vector 0: return/None vs error/VerifyError")]

    def test_method_missing_from_reload_is_a_failure(self, linked_pipeline):
        reloaded = rz.load_image(linked_pipeline.emit_image())
        arith = reloaded.get("corpus/Arith")
        arith.methods = [m for m in arith.methods if m.name != "loopSum"]
        out = linked_pipeline.verify_all(vectors=1, after_registry=reloaded)
        assert ("corpus/Arith", "loopSum(I)I") in \
            [(c, m) for c, m, _ in out.failures]
        ctx = vf.ExecContext(reloaded, lc.LINKED)
        for cls_name in ("corpus/Arith", "corpus/Gone"):
            with pytest.raises(InterpError,
                               match="no method %s.loopSum" % cls_name):
                vf.run_method(ctx, cls_name, ("loopSum", "(I)I"), [("i", 1)])

    @staticmethod
    def reload_failures(pipe, image):
        out = pipe.verify_all(vectors=1, after_registry=rz.load_image(image))
        return [(c, m) for c, m, _ in out.failures]

    def test_local_past_max_locals_in_reload_is_a_failure(self, corpus_dir):
        # callAll(I)I stores its Overloads in local 1; the image says it
        # has one local, so the reloaded astore_1 is past max_locals
        pipe = make_pipeline(corpus_dir)
        call_all = next(m for m in pipe.registry.get("corpus/Overloads").methods
                        if m.name == "callAll")
        call_all.code.max_locals = 1
        assert ("corpus/Overloads", "callAll(I)I") in \
            self.reload_failures(pipe, pipe.emit_image())

    def test_instance_invoke_of_static_in_reload_is_a_failure(
            self, corpus_dir):
        # callAll(I)I makes an Overloads through invokespecial <init>()V,
        # which the image marks static, so it takes no receiver
        pipe = make_pipeline(corpus_dir)
        init = next(m for m in pipe.registry.get("corpus/Overloads").methods
                    if m.name == "<init>")
        init.access_flags |= ACC_STATIC
        try:
            image = pipe.emit_image()
        finally:
            init.access_flags &= ~ACC_STATIC
        assert ("corpus/Overloads", "callAll(I)I") in \
            self.reload_failures(pipe, image)

    @pytest.mark.parametrize("kind", [cp.A_CLASS, cp.A_STRING])
    def test_member_operand_naming_another_kind_in_reload_is_a_failure(
            self, corpus_dir, monkeypatch, capsys, kind):
        # Fields.make(I)I calls <init> through its member handle; patched
        # to name a class handle or a literal, the reloaded call decodes to
        # a step that raises InterpError when it runs
        pipe = make_pipeline(corpus_dir)
        reloaded = rz.load_image(pipe.emit_image())
        cls = reloaded.get("corpus/Fields")
        make = next(m for m in cls.methods if m.name == "make")
        bc = make.code.bytecode
        off = next(off for off in make.code.shape_of(make).starts
                   if bc[off] == ops.BY_NAME["invokespecial"])
        ops.write_operand(bc, off, 2, cls.pool.a_kind.index(kind))
        image = rz.emit_image(reloaded.loadable(), reloaded.image_flags)
        detail = "vector 0: return/None vs error/InterpError"
        out = pipe.verify_all(vectors=1, after_registry=rz.load_image(image))
        assert ("corpus/Fields", "make(I)I", detail) in out.failures
        # and through the command line, with the image as the after side
        verify_all = Pipeline.verify_all
        monkeypatch.setattr(Pipeline, "verify_all", lambda self, **kw: (
            verify_all(self, after_registry=rz.load_image(image), **kw)))
        assert cli.main(["verify", "--classpath", corpus_dir,
                         "corpus/Fields"]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH corpus/Fields.make(I)I: %s\n" % detail in err
        assert "Traceback" not in err


class TestMemberSteps:
    """Decode resolves each member operand once, into a quick body that
    holds the member; an operand it cannot resolve keeps the lazy step,
    which resolves, or raises, each time it runs."""

    @pytest.mark.parametrize("flags", sorted(GOLDEN_FLAGS))
    def test_decode_holds_the_member_the_lazy_resolve_finds(self, corpus_dir,
                                                            flags):
        # and, for every other pool operand, exactly what its entry names
        pipe = make_pipeline(corpus_dir, **GOLDEN_FLAGS[flags])
        blocks = set(vf._BLOCKS.values())
        counts = {}
        for cls in pipe.linked_classes():
            for m in cls.methods:
                for stage in (lc.LOADED, lc.LINKED):
                    code, pool = m.code_at(stage), cls.pool_at(stage)
                    if code is None:
                        continue
                    steps = vf.decoded(m, code, pool, pipe.registry)[1]
                    blocks.update(vf._BLOCKS.values())
                    for off in code.shape.starts:
                        named = ops.pool_operand(code.bytecode, off)
                        if named is None:
                            continue
                        step = steps[off]
                        if step[0] in blocks:   # a block led by this one
                            step = step[2][0]
                        op, want = code.bytecode[off], named[0].want
                        handler, held = _pool_operand_held(pool, op, *named)
                        assert step[:2] == (handler, op), (m, stage, off)
                        if isinstance(held, (tuple, int, str)):
                            assert step[2] == held, (m, stage, off)
                        else:           # a class or a method
                            assert step[2] is held, (m, stage, off)
                        key = (stage, want)
                        counts[key] = counts.get(key, 0) + 1
        wants = {want for _, want in counts}
        assert wants == {cp.A_FIELD, cp.A_METHOD, cp.A_CLASS, cp.A_STRING,
                         cp.V_INT, cp.V_FLOAT, cp.V_LONG_HI, cp.V_DBL_HI}, \
            counts
        members = (cp.A_FIELD, cp.A_METHOD)
        assert sum(counts.get((lc.LOADED, w), 0) for w in members) > 150
        assert sum(counts.get((lc.LINKED, w), 0) for w in members) > 0

    def test_verify_all_resolves_no_member_as_it_runs(self, corpus_dir):
        pipe = make_pipeline(corpus_dir)
        out = pipe.verify_all(seed=0, vectors=5)
        assert len(out.checked) == 168 and not out.failures
        blocks = set(vf._BLOCKS.values())
        decodes = 0
        for cls in pipe.registry.classes.values():
            for m in cls.methods:
                for code in (m.code_loaded, m.code):
                    if code is None or code.decoded is None:
                        continue
                    decodes += 1
                    for step in filter(None, code.decoded[1]):
                        assert step[0] is not vf._lazy, (m, step)
                        if step[0] in blocks:
                            assert vf._lazy not in step[2], (m, step)
        assert decodes >= 2 * len(out.checked), decodes
    @staticmethod
    def _member(pipe, cls_name, name):
        return next(m for m in pipe.registry.get(cls_name).methods
                    if m.name == name)

    def test_missing_method_raises_only_when_called(self, corpus_dir,
                                                    tmp_path):
        # 0: iload_0; 1: ifeq 6; 4: iconst_1; 5: ireturn; 6: invokestatic
        cb = ClassBuilder("vm/Missing")
        cb.default_init()
        c = cb.method("m", "(I)I", ACC_PUBLIC | ACC_STATIC)
        c.op("iload_0").op("ifeq", "CALL").op("iconst_1").op("ireturn")
        c.label("CALL").invoke("invokestatic", "vm/Later", "gone", "()I")
        c.op("ireturn")
        _write_class(tmp_path, cb)
        later = ClassBuilder("vm/Later")
        later.default_init()
        later.method("gone", "()I", ACC_PUBLIC | ACC_STATIC) \
            .op("bipush", 9).op("ireturn")
        _write_class(tmp_path, later)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Missing"])
        assert pipe.registry.get("vm/Later").state == lc.UNLOADED
        for _ in range(2):      # the second run reads the cached decode
            out = run_static(pipe, "vm/Missing", "m", [("i", 1)],
                             stage=lc.LOADED)
            assert (out.kind, out.value) == ("return", ("i", 1))
            with pytest.raises(InterpError, match=r"<method vm/Missing\.m"
                               r"\(I\)I>: unresolved vm/Later\.gone at 6"):
                run_static(pipe, "vm/Missing", "m", [("i", 0)],
                           stage=lc.LOADED)
        assert self._member(pipe, "vm/Missing", "m") \
            .code.decoded[1][6][0] is vf._lazy
        # the lazy step keeps no failure: once its owner loads, it resolves
        pipe.loader.ensure_loaded("vm/Later")
        assert run_static(pipe, "vm/Missing", "m", [("i", 0)],
                          stage=lc.LOADED).value == ("i", 9)

    def test_invokevirtual_of_a_static_raises_when_run(self, corpus_dir,
                                                       tmp_path):
        # 0: new; 3: dup; 4: invokespecial; 7: invokevirtual s()I
        cb = ClassBuilder("vm/Stat")
        cb.default_init()
        cb.method("s", "()I", ACC_PUBLIC | ACC_STATIC) \
            .op("iconst_3").op("ireturn")
        c = cb.method("v", "()I", ACC_PUBLIC | ACC_STATIC)
        c.new("vm/Stat").op("dup")
        c.invoke("invokespecial", "vm/Stat", "<init>", "()V")
        c.invoke("invokevirtual", "vm/Stat", "s", "()I").op("ireturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Stat"], closure=True)
        for trace in (None, _ignore):
            with pytest.raises(InterpError, match=r"<method vm/Stat\.v\(\)I>:"
                               r" invokevirtual of static <method vm/Stat\.s"
                               r"\(\)I> at 7"):
                ctx = vf.ExecContext(pipe.registry, lc.LOADED)
                vf.run_method(ctx, "vm/Stat", ("v", "()I"), [], trace=trace)

    def test_fib_blocks_make_their_calls(self, linked_pipeline):
        # each of fib's two calls ends a block, which holds fib as its
        # last operand; the call's own single step never runs
        reg = linked_pipeline.registry
        fib = self._member(linked_pipeline, "corpus/Recurse", "fib")
        code = fib.code
        steps = vf.decoded(fib, code, fib.owner.pool, reg)[1]
        shapes = set(vf._BLOCKS.values())
        calls = [off for off in code.shape.starts
                 if code.bytecode[off] == ops.BY_NAME["invokestatic"]]
        assert len(calls) == 2
        for call in calls:
            blocks = [step for pc, step in enumerate(steps)
                      if step is not None and step[0] in shapes
                      and pc + step[3] == call + 3]
            assert len(blocks) == 1, call
            assert blocks[0][2][-1] is fib
            assert steps[call][0] not in blocks[0][2]
        kept = [steps[call] for call in calls]

        def never(m, f, o):
            raise AssertionError("single call step ran at %d" % f.pc)
        try:
            for call in calls:
                steps[call] = (never,) + steps[call][1:]
            end, _, _ = machine_run(reg, lc.LINKED, fib, [("i", 10)],
                                    100_000)
        finally:
            for call, step in zip(calls, kept):
                steps[call] = step
        assert end == ("return", ("i", 55))

    @pytest.mark.parametrize("closed_world", [False, True])
    def test_null_field_access_throws_where_it_is_caught(
            self, corpus_dir, tmp_path, closed_world):
        npe = "java/lang/NullPointerException"
        cb = ClassBuilder("vm/Nul")
        cb.field("x", "I")
        cb.default_init()
        for name, put in (("get", False), ("put", True)):
            # a block of templates, then the access alone in its range, so
            # only the access's own pc finds the handler
            c = cb.method(name, "(Lvm/Nul;)I", ACC_PUBLIC | ACC_STATIC)
            c.op("iconst_0").op("pop").op("aload_0")
            if put:
                c.op("iconst_5").label("A").putfield("vm/Nul", "x", "I")
                c.label("B").op("iconst_0")
            else:
                c.label("A").getfield("vm/Nul", "x", "I").label("B")
            c.op("ireturn").label("H").op("pop").op("iconst_m1")
            c.op("ireturn").handler("A", "B", "H", npe)
            c = cb.method(name + "Bare", "(Lvm/Nul;)I",
                          ACC_PUBLIC | ACC_STATIC)
            c.op("aload_0")
            if put:
                c.op("iconst_5").putfield("vm/Nul", "x", "I").op("iconst_0")
            else:
                c.getfield("vm/Nul", "x", "I")
            c.op("ireturn")
            c = cb.method(name + "Caller", "()I", ACC_PUBLIC | ACC_STATIC)
            c.label("A").op("aconst_null")
            c.invoke("invokestatic", "vm/Nul", name + "Bare", "(Lvm/Nul;)I")
            c.op("ireturn").label("B").label("H").op("pop").op("bipush", 7)
            c.op("ireturn").handler("A", "B", "H", npe)
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir], closed_world=closed_world)
        pipe.load_targets(["vm/Nul"], closure=True)
        assert pipe.link_all() == []
        for stage in (lc.LOADED, lc.LINKED):
            for name, value in (("get", -1), ("put", -1), ("getCaller", 7),
                                ("putCaller", 7)):
                for trace in (None, _ignore):
                    ctx = vf.ExecContext(pipe.registry, stage)
                    method = self._member(pipe, "vm/Nul", name)
                    out, _ = vf.run_method(ctx, "vm/Nul", method.key,
                                           [("null",)][:method.nargs],
                                           trace=trace)
                    assert (out.kind, out.value) == ("return", ("i", value))
            for name in ("get", "put"):
                # the quick step of an int field, which the member form
                # runs once it resolves
                handler = vf._step(ops.BY_NAME[name + "field_quick"],
                                   dsc.TC_INT)
                code = self._member(pipe, "vm/Nul", name).code_at(stage)
                steps = code.decoded[1]
                assert any(s is not None and s[0] is handler for s in steps)
                # one block runs the access itself, up to the return
                assert steps[0][0] in set(vf._BLOCKS.values())
                assert steps[0][3] == code.exception_table[0][2]
                assert handler not in steps[0][2]


def _pool_operand_held(pool, op, entry, idx):
    """(step, operand) decode should hold for the pool operand ``entry``
    ``idx`` of ``op``: the step of a call passing the argument slots of the
    method ``linker._resolve`` finds, and that method; the quick step for
    the type code of the field it finds, and the field's place; or the
    opcode's own step and a class, a string's text, a constant's slot, or a
    float's or double's bits."""
    want, values = entry.want, pool.v_value
    if want == cp.A_METHOD:
        found = linker._resolve(pool.a_payload[idx])
        return vf._generated(vf._t_invoke, ops.Effect("1" * found.nargs, ""),
                             vf._CALLS[op]), found
    if want == cp.A_FIELD:
        found = linker._resolve(pool.a_payload[idx])
        quick = ops.BY_NAME[ops.NAME[op] + "_quick"]
        return vf._step(quick, found.type_code), (
            (found.owner, found.zone, found.offset) if found.is_static
            else found.offset)
    step = vf._step(op)
    if want == cp.A_CLASS:
        name = pool.a_payload[idx].name
        if op == ops.BY_NAME["anewarray_quick"]:
            return step, name if name.startswith("[") else "L%s;" % name
        return step, pool.a_payload[idx]
    if want == cp.A_STRING:
        return step, pool.a_payload[idx]
    if want == cp.V_INT:
        return step, ("i", vf.i32(values[idx]))
    if want == cp.V_FLOAT:
        return step, values[idx]
    bits = (values[idx] << 32) | values[idx + 1]
    return step, ("j", vf.i64(bits)) if want == cp.V_LONG_HI else bits


def machine_run(registry, stage, method, vector, fuel, trace=None):
    """One run through ``Machine.call``: (how it ended, world digest, fuel
    left).  It ends with the normalized result, the class thrown, fuel, or
    the type of the error raised and, for a JromError, its message.  A
    trace makes the machine run every instruction by its single step."""
    base = "init" if method.name == "<clinit>" else "live"
    world = vf.World(registry, stage, base=base, trace=trace)
    args = vf.materialize_args(method, vector, world)
    machine = vf.Machine(world, fuel)
    try:
        result = machine.call(method, args)
        end = ("return", result and vf.normalize_slot(result))
    except vf._Thrown as t:
        end = ("throw", t.cls_name)
    except vf._FuelOut:
        end = ("fuel",)
    except Exception as e:      # noqa: BLE001 -- both ways must agree
        end = (type(e), str(e) if isinstance(e, JromError) else None)
    return end, vf.world_digest(world), machine.fuel


def _ignore(line):
    pass


class TestBlocks:
    """A basic block's step runs as its instructions' single steps would,
    and falls back to them where it cannot run whole."""

    @pytest.mark.parametrize("fuel", [100_000, 500, 37])
    def test_blocks_run_as_single_steps(self, linked_pipeline, fuel):
        reg = linked_pipeline.registry
        runs = 0
        for cls in linked_pipeline.linked_classes():
            for m in cls.methods:
                if m.code is None or m.code_loaded is None:
                    continue
                for vector in vf.seeded_vectors(m, 0, 5):
                    for stage in (lc.LOADED, lc.LINKED):
                        blocks = machine_run(reg, stage, m, vector, fuel)
                        single = machine_run(reg, stage, m, vector, fuel,
                                             trace=_ignore)
                        assert blocks == single, (m, stage, vector)
                        runs += 1
        blocks = set(vf._BLOCKS.values())
        assert runs > 1500 and any(
            step is not None and step[0] in blocks
            for cls in linked_pipeline.linked_classes() for m in cls.methods
            if m.code and m.code.decoded for step in m.code.decoded[1])

    def test_stack_errors_name_the_instruction(self, corpus_dir, tmp_path):
        cb = ClassBuilder("vm/Blocks")
        cb.default_init()
        # max_stack 1: the second push overflows
        c = cb.method("over", "()I", ACC_PUBLIC | ACC_STATIC, max_stack=1)
        c.op("iconst_1").op("iconst_2").op("iadd").op("ireturn")
        # the second pop underflows
        c = cb.method("under", "()I", ACC_PUBLIC | ACC_STATIC, max_stack=1)
        c.op("iconst_1").op("pop").op("pop").op("iconst_0").op("ireturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Blocks"], closure=True)
        assert pipe.link_all() == []
        for name, error, pc in (("over", StackOverflow, 1),
                                ("under", StackUnderflow, 2)):
            method = next(m for m in pipe.registry.get("vm/Blocks").methods
                          if m.name == name)
            for trace in (None, _ignore):
                end, _, fuel = machine_run(pipe.registry, lc.LINKED, method,
                                           [], 100, trace)
                assert end == (error, "%r at %d" % (method, pc))
                assert fuel == 100 - pc - 1
            steps = method.code.decoded[1]
            assert steps[0][3] == len(method.code.bytecode)    # one block

    @pytest.mark.parametrize("fuel", [10_000, 6])
    def test_calls_that_end_blocks_run_as_single_steps(self, corpus_dir,
                                                       tmp_path, fuel):
        static, calls = ACC_PUBLIC | ACC_STATIC, "vm/Calls"
        npe = "java/lang/NullPointerException"
        iface = ClassBuilder("vm/Twice",
                             flags=ACC_PUBLIC | ACC_INTERFACE | ACC_ABSTRACT)
        iface.method("twiceV", "(I)I", ACC_PUBLIC | ACC_ABSTRACT)
        _write_class(tmp_path, iface)
        cb = ClassBuilder(calls, interfaces=("vm/Twice",))
        cb.default_init()
        c = cb.method("sum3", "(III)I", static)
        c.op("iload_0").op("iload_1").op("iadd").op("iload_2").op("iadd")
        c.op("ireturn")
        c = cb.method("mix", "(JDI)J", static)
        c.op("lload_0").op("dload_2").op("d2l").op("ladd").op("iload", 4)
        c.op("i2l").op("lsub").op("lreturn")
        c = cb.method("twice", "(I)I", ACC_PRIVATE)
        c.op("iload_1").op("iload_1").op("iadd").op("ireturn")
        cb.method("tight", "(I)I", static, max_locals=0) \
            .op("iconst_0").op("ireturn")
        c = cb.method("deep", "(I)I", static)
        c.op("iload_0").op("iconst_1").op("iadd")
        c.invoke("invokestatic", calls, "deep", "(I)I").op("ireturn")
        # two arguments from below the block at L, one from inside it
        c = cb.method("below", "(I)I", static)
        c.op("iload_0").op("bipush", 5).op("goto", "L").label("L")
        c.op("iload_0").op("iconst_3").op("iadd")
        c.invoke("invokestatic", calls, "sum3", "(III)I").op("ireturn")
        c = cb.method("fromLocals", "(I)I", static)
        c.op("iload_0").op("iload_0").op("iload_0")
        c.invoke("invokestatic", calls, "sum3", "(III)I").op("ireturn")
        # a long and its padding from below the block, a double from inside
        c = cb.method("wide", "(JD)J", static)
        c.op("lload_0").op("goto", "L").label("L").op("dload_2")
        c.op("bipush", 7).invoke("invokestatic", calls, "mix", "(JDI)J")
        c.op("lreturn")
        # a block of templates, then the call alone in its range, so only
        # the call's own pc finds the handler
        c = cb.method("special", "(Lvm/Calls;)I", static)
        c.op("iconst_0").op("pop").op("aload_0").op("bipush", 4).label("A")
        c.invoke("invokespecial", calls, "twice", "(I)I").label("B")
        c.op("ireturn").label("H").op("pop").op("iconst_m1").op("ireturn")
        c.handler("A", "B", "H", "java/lang/NullPointerException")
        c = cb.method("fresh", "()I", static)
        c.new(calls).op("dup").invoke("invokespecial", calls, "<init>", "()V")
        c.op("bipush", 4).invoke("invokespecial", calls, "twice", "(I)I")
        c.op("ireturn")
        c = cb.method("past", "(I)I", static)
        c.op("iload_0").op("iconst_1").op("iadd")
        c.invoke("invokestatic", calls, "tight", "(I)I").op("ireturn")
        c = cb.method("catchDeep", "()I", static)
        c.label("A").op("iconst_0").op("iconst_0").op("pop")
        c.invoke("invokestatic", calls, "deep", "(I)I").label("B")
        c.op("ireturn").label("H").op("pop").op("bipush", 9).op("ireturn")
        c.handler("A", "B", "H", "java/lang/StackOverflowError")
        # virtual calls, which link makes invokevirtual_quick, and an
        # interface call, each ending a block
        c = cb.method("twiceV", "(I)I")
        c.op("iload_1").op("iload_1").op("iadd").op("ireturn")
        c = cb.method("vmix", "(JDI)J")
        c.op("lload_1").op("dload_3").op("d2l").op("ladd").op("iload", 5)
        c.op("i2l").op("lsub").op("lreturn")
        cb.method("hash", "()I").op("aload_0") \
            .invoke("invokevirtual", calls, "hashCode", "()I").op("ireturn")
        c = cb.method("iface", "()I")
        c.op("aload_0").op("bipush", 4)
        c.invoke("invokeinterface", "vm/Twice", "twiceV", "(I)I").op("ireturn")
        # a null receiver, with only the call's own pc in the handler range
        for name, op, owner in (("virtualNull", "invokevirtual", calls),
                                ("ifaceNull", "invokeinterface", "vm/Twice")):
            c = cb.method(name, "(Lvm/Calls;)I", static)
            c.op("iconst_0").op("pop").op("aload_0").op("bipush", 4)
            c.label("A").invoke(op, owner, "twiceV", "(I)I").label("B")
            c.op("ireturn").label("H").op("pop").op("iconst_m1")
            c.op("ireturn").handler("A", "B", "H", npe)
        # an array receiver: Object's method, through its dispatch table
        c = cb.method("array", "()I", static)
        c.op("iconst_2").op("newarray", 10).op("astore_0").op("aload_0")
        c.invoke("invokevirtual", "java/lang/Object", "hashCode", "()I")
        c.op("ireturn")
        # a pseudo-object receiver: the ArithmeticException that idiv
        # throws, of a class this set does not load, caught by any handler
        c = cb.method("pseudo", "()I", static)
        c.label("A").op("iconst_1").op("iconst_0").op("idiv").op("ireturn")
        c.label("B").label("H").op("bipush", 4)
        c.invoke("invokevirtual", calls, "twiceV", "(I)I").op("ireturn")
        c.handler("A", "B", "H", None)
        c = cb.method("vdeep", "(I)I")
        c.op("aload_0").op("iload_1").op("iconst_1").op("iadd")
        c.invoke("invokevirtual", calls, "vdeep", "(I)I").op("ireturn")
        # the receiver and a long from below the block, a double from inside
        c = cb.method("vwide", "(JD)J")
        c.op("aload_0").op("lload_1").op("goto", "L").label("L")
        c.op("dload_3").op("bipush", 7)
        c.invoke("invokevirtual", calls, "vmix", "(JDI)J").op("lreturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets([calls], closure=True)
        assert pipe.link_all() == []
        past = "<method vm/Calls.tight(I)I>: 1 argument slots > max_locals 0"
        pseudo = ("receiver class java/lang/ArithmeticException not loaded")
        hash_code = pipe.registry.get("java/lang/Object") \
            .declared_method(("hashCode", "()I"))
        cases = {
            "below": ([("i", 2)], ("return", ("i", 12))),
            "fromLocals": ([("i", 4)], ("return", ("i", 12))),
            "wide": ([("j", 10), ("d", 2.5)], ("return", ("j", 5))),
            "special": ([("null",)], ("return", ("i", -1))),
            "fresh": ([], ("return", ("i", 8))),
            "past": ([("i", 1)], (InterpError, past)),
            "deep": ([("i", 0)], ("throw", "java/lang/StackOverflowError")),
            "catchDeep": ([], ("return", ("i", 9))),
            "hash": ([], ("return", ("i", 0))),
            "iface": ([], ("return", ("i", 8))),
            "virtualNull": ([("null",)], ("return", ("i", -1))),
            "ifaceNull": ([("null",)], ("return", ("i", -1))),
            "array": ([], ("return", ("i", 0))),
            "pseudo": ([], (InterpError, pseudo)),
            "vdeep": ([("i", 0)], ("throw", "java/lang/StackOverflowError")),
            "vwide": ([("j", 10), ("d", 2.5)], ("return", ("j", 5))),
        }
        shapes = set()
        for name, (vector, expected) in cases.items():
            method = next(m for m in pipe.registry.get(calls).methods
                          if m.name == name)
            for stage in (lc.LOADED, lc.LINKED):
                blocks = machine_run(pipe.registry, stage, method, vector,
                                     fuel)
                single = machine_run(pipe.registry, stage, method, vector,
                                     fuel, trace=_ignore)
                assert blocks == single, (name, stage)
                if fuel > 1000:
                    assert blocks[0] == expected, (name, stage)
                # a block ends at the call and makes it itself, through no
                # step of its operand
                shapes.update(vf._BLOCKS.values())
                code = method.code_at(stage)
                steps = code.decoded[1]
                ends = {off + ops.size_at(code.bytecode, off)
                        for off in code.shape.starts
                        if ops.NAME[code.bytecode[off]].startswith("invoke")}
                assert any(step[0] in shapes and pc + step[3] in ends
                           and not any(map(callable, step[2][1:]))
                           for pc, step in enumerate(steps)
                           if step is not None), (name, stage)
                if name == "hash":
                    # aload_0 and the call are one block, which holds the
                    # callee last: the method, or in the quick form its slot
                    quick = stage == lc.LINKED
                    assert ops.NAME[code.bytecode[1]] == (
                        "invokevirtual_quick" if quick else "invokevirtual")
                    assert steps[0][0] in shapes and steps[0][3] == 4
                    assert steps[0][2][-1] == (hash_code.dispatch_slot
                                               if quick else hash_code)

    def test_loops_run_as_single_steps(self, corpus_dir, tmp_path):
        # at every fuel from 1 to past each loop's exit
        static, aioobe = ACC_PUBLIC | ACC_STATIC, \
            "java/lang/ArrayIndexOutOfBoundsException"
        cb = ClassBuilder("vm/Loops")
        cb.default_init()
        # the test at the top, a goto back
        c = cb.method("top", "(I)I", static)
        c.op("iconst_0").op("istore_1").op("iconst_0").op("istore_2")
        c.label("L").op("iload_1").op("iload_0").op("if_icmpge", "X")
        c.op("iload_2").op("iload_1").op("iadd").op("istore_2")
        c.op("iinc", 1, 1).op("goto", "L")
        c.label("X").op("iload_2").op("ireturn")
        # as javac writes it: a goto to the test, a conditional branch back
        c = cb.method("javac", "(I)I", static)
        c.op("iconst_0").op("istore_1").op("iconst_1").op("istore_2")
        c.op("goto", "T")
        c.label("B").op("iload_2").op("iload_2").op("iadd").op("istore_2")
        c.op("iinc", 1, 1)
        c.label("T").op("iload_1").op("iload_0").op("if_icmplt", "B")
        c.op("iload_2").op("ireturn")
        # iaload throws past the array's end, into a handler of this method
        c = cb.method("caught", "(I)I", static)
        c.op("iconst_4").op("newarray", 10).op("astore_1")
        c.op("iconst_0").op("istore_2").op("iload_0").op("istore_3")
        c.label("A").op("aload_1").op("iload_3").op("iaload")
        c.op("iload_2").op("iadd").op("istore_2").op("iinc", 3, 1)
        c.op("goto", "A").label("E")
        c.label("H").op("pop").op("iload_2").op("iload_3").op("iadd")
        c.op("ireturn").handler("A", "E", "H", aioobe)
        # one value left on the stack by each iteration, past max_stack
        # once there are more than seven
        c = cb.method("leaves", "(I)I", static, max_stack=8)
        c.op("iconst_0")
        c.label("L").op("iload_0").op("ifle", "X").op("iinc", 0, -1)
        c.op("iload_0").op("goto", "L")
        c.label("X").op("ireturn")
        # long and double locals
        c = cb.method("wide", "(I)J", static)
        c.op("lconst_0").op("lstore_1").op("dconst_0").op("dstore_3")
        c.label("L").op("iload_0").op("ifle", "X")
        c.op("lload_1").op("iload_0").op("i2l").op("ladd").op("lstore_1")
        c.op("dload_3").op("dconst_1").op("dadd").op("dstore_3")
        c.op("iinc", 0, -1).op("goto", "L")
        c.label("X").op("lload_1").op("dload_3").op("d2l").op("ladd")
        c.op("lreturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Loops"], closure=True)
        assert pipe.link_all() == []
        cases = {
            "top": ([0, 5], [("i", 0), ("i", 10)]),
            "javac": ([0, 4], [("i", 1), ("i", 16)]),
            "caught": ([-1, 1], [("i", -1), ("i", 4)]),
            "leaves": ([2, 9], [("i", 0), (StackOverflow, None)]),
            "wide": ([0, 3], [("j", 0), ("j", 9)]),
        }
        big = 10_000
        for name, (args, expected) in cases.items():
            method = next(m for m in pipe.registry.get("vm/Loops").methods
                          if m.name == name)
            for arg, want in zip(args, expected):
                vector = [("i", arg)]
                for stage in (lc.LOADED, lc.LINKED):
                    end, _, left = machine_run(pipe.registry, stage, method,
                                               vector, big)
                    assert end[0] == want[0] if want[0] is StackOverflow \
                        else end == ("return", want), (name, arg, end)
                    for fuel in range(1, big - left + 2):
                        blocks = machine_run(pipe.registry, stage, method,
                                             vector, fuel)
                        single = machine_run(pipe.registry, stage, method,
                                             vector, fuel, trace=_ignore)
                        assert blocks == single, (name, arg, stage, fuel)

    def test_sum_int_loops_run_inside_their_blocks(self, linked_pipeline):
        # every single step inside sumInt's two loops, from the target of
        # each goto back to the goto, is replaced by one that raises
        reg = linked_pipeline.registry
        method = next(m for m in reg.get("corpus/Arrays").methods
                      if m.name == "sumInt")
        code = method.code
        steps = vf.decoded(method, code, method.owner.pool, reg)[1]
        shapes = set(vf._BLOCKS.values())
        loops = [(ops.branch_targets(code.bytecode, off)[0], off)
                 for off in code.shape.starts
                 if code.bytecode[off] == ops.BY_NAME["goto"]]
        inside = [off for off in code.shape.starts
                  if any(top <= off <= goto for top, goto in loops)
                  and steps[off][0] not in shapes]
        assert len(loops) == 2 and len(inside) > 15
        # and each loop's block is run once, however many times it loops
        tops = [top for top, _ in loops]
        assert all(steps[top][0] in shapes for top in tops)
        kept = {off: steps[off] for off in inside + tops}
        runs = []

        def never(m, f, o):
            raise AssertionError("single step ran at %d" % f.pc)

        def counted(block):
            def step(m, f, o):
                runs.append(f.pc)
                return block(m, f, o)
            return step
        try:
            for off in inside:
                steps[off] = (never,) + steps[off][1:]
            for top in tops:
                steps[top] = (counted(steps[top][0]),) + steps[top][1:]
            end, _, _ = machine_run(reg, lc.LINKED, method, [("i", 50)],
                                    100_000)
        finally:
            for off, step in kept.items():
                steps[off] = step
        assert end == ("return", ("i", 2450))
        assert sorted(runs) == tops

    @pytest.fixture(autouse=True)
    def _stash_pipeline(self, linked_pipeline):
        TestBlocks._pipe = linked_pipeline

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([lc.LOADED, lc.LINKED]),
           st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                    min_size=1, max_size=2))
    def test_mutated_bodies_run_as_single_steps(self, data, stage, flips):
        pipe = TestBlocks._pipe
        methods = [m for cls in pipe.linked_classes() for m in cls.methods
                   if m.code is not None and m.code_loaded is not None]
        method = data.draw(st.sampled_from(methods))
        attr = "code_loaded" if stage == lc.LOADED else "code"
        original = getattr(method, attr)
        code = original.clone()
        for at, byte in flips:
            code.bytecode[at % len(code.bytecode)] = byte
        code.shape = None       # the flips may move or retarget instructions
        vector = vf.seeded_vectors(method, 0, 1)[0]
        setattr(method, attr, code)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(vf.MiniHeap, "new_array", _small_arrays)
                blocks = machine_run(pipe.registry, stage, method, vector,
                                     2_000)
                single = machine_run(pipe.registry, stage, method, vector,
                                     2_000, trace=_ignore)
        finally:
            setattr(method, attr, original)
        assert blocks[0] == single[0]
        if blocks[0][0] in ("return", "throw", "fuel"):
            assert blocks[1] == single[1]


_NEW_ARRAY = vf.MiniHeap.new_array


def _small_arrays(heap, comp, length):
    """A mutated body may ask for an array of any length; past 4096
    elements both runs stop here alike."""
    if length > 4096:
        raise InterpError("array of %d elements" % length)
    return _NEW_ARRAY(heap, comp, length)
