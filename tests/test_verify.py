"""Interpreter tests: direct execution, differential pairs, fuel behavior."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrom import lifecycle as lc
from jrom import romizer as rz
from jrom import verify as vf
from jrom import opcodes as ops
from jrom.errors import (InterpError, StackOverflow, StackUnderflow,
                         UnsupportedOpcode)
from jrom.pipeline import Pipeline, _world_difference

from .assembler import ACC_PUBLIC, ACC_STATIC, ClassBuilder
from .conftest import make_pipeline


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
            code = lc.MethodCode(bytearray(_single_instruction(op)), 2, 4, [])
            assert vf.in_subset(code) == expected, ops.mnemonic(op)
    for name in ("iload", "lstore", "iinc", "ret"):
        code = lc.MethodCode(
            bytearray(_single_instruction(ops.WIDE, ops.BY_NAME[name])), 2, 4, [])
        assert vf.in_subset(code) == (name != "ret"), name


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

    def test_clinit_differential_uses_initial_zones(self, linked_pipeline):
        # verify_all runs <clinit> from zones_initial on both sides
        out = linked_pipeline.verify_all(vectors=1,
                                         only="corpus/Clinit.<clinit>")
        assert out.checked == [("corpus/Clinit", "<clinit>()V")], out
        assert not out.failures and not out.skipped


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


class TestDeterminismAndFuel:
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
        cb = ClassBuilder("vm/Ids")
        cb.field("S", "Ljava/lang/String;", ACC_PUBLIC | ACC_STATIC,
                 const=("s", "static text"))
        cb.default_init()
        for name, read_first in (("plain", False), ("afterRead", True)):
            c = cb.method(name, "()Lvm/Ids;", ACC_PUBLIC | ACC_STATIC)
            if read_first:
                c.getstatic("vm/Ids", "S", "Ljava/lang/String;").op("pop")
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
        assert plain.value[1][0] == "obj"
        assert after_read.value == plain.value


# the whole trace stream of verify_all(seed=0) on the linked corpus: any
# change to which instructions run, in what order, at what stack depth shows
GOLDEN_TRACE_LINES = 830_358
GOLDEN_TRACE_SHA256 = \
    "f5fb82c6e00d4c889ebcb8370daedeee1ab645afbff853fb1826d99bd56e32a3"


def _write_class(root, cb):
    path = root / (cb.name + ".class")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(cb.build())


class TestDecode:
    """Decoding each body once keeps every outcome, error and trace line of
    reading each operand as its instruction runs."""

    def test_golden_trace(self, corpus_dir):
        digest, lines = hashlib.sha256(), []

        def trace(line):
            lines.append(None)
            digest.update(line.encode() + b"\n")
        out = make_pipeline(corpus_dir).verify_all(seed=0, trace=trace)
        assert len(out.checked) == 168 and not out.failures
        assert len(lines) == GOLDEN_TRACE_LINES
        assert digest.hexdigest() == GOLDEN_TRACE_SHA256

    def test_dead_operands_raise_only_when_run(self, corpus_dir, tmp_path):
        cb = ClassBuilder("vm/Lazy")
        cb.default_init()
        c = cb.method("badType", "(I)I", ACC_PUBLIC | ACC_STATIC)
        c.op("iload_0").op("ifeq", "DEAD").op("iconst_1").op("ireturn")
        c.label("DEAD").op("iconst_2").op("newarray", 99).op("pop")
        c.op("iconst_0").op("ireturn")
        c = cb.method("unplaced", "(I)I", ACC_PUBLIC | ACC_STATIC)
        c.op("iload_0").op("ifeq", "DEAD").op("iconst_1").op("ireturn")
        # a field access naming a class constant: it places in no vtable
        c.label("DEAD").op("getstatic", cb.pool.klass("vm/Lazy"))
        c.op("ireturn")
        _write_class(tmp_path, cb)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["vm/Lazy"], closure=True)
        for name, error in (("badType", "bad newarray type 99"),
                            ("unplaced", "unresolvable at 6")):
            for _ in range(2):      # the second run reads the cached decode
                out = run_static(pipe, "vm/Lazy", name, [("i", 1)],
                                 stage=lc.LOADED)
                assert (out.kind, out.value) == ("return", ("i", 1))
                with pytest.raises(InterpError, match=error):
                    run_static(pipe, "vm/Lazy", name, [("i", 0)],
                               stage=lc.LOADED)

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
        for rel, error in ((-1, "pc 1 not on an instruction boundary"),
                           (-4, "pc -2 not on an instruction boundary"),
                           (-100, "pc -98 not on an instruction boundary"),
                           (4, "fell off the end of the code")):
            ops.write_operand(code.bytecode, 2, 2, rel & 0xFFFF)
            code.decoded = None
            with pytest.raises(InterpError, match=error):
                run_static(pipe, "vm/Jump", "m")
        # a bad branch target costs fuel like an instruction, the end does not
        for rel, outcome in ((-1, "fuel"), (4, None)):
            ops.write_operand(code.bytecode, 2, 2, rel & 0xFFFF)
            code.decoded = None
            if outcome is None:
                with pytest.raises(InterpError, match="fell off the end"):
                    run_static(pipe, "vm/Jump", "m", fuel=2)
            else:
                assert run_static(pipe, "vm/Jump", "m", fuel=2).kind == outcome

    def test_corrupt_after_a_run_is_detected(self, corpus_dir):
        pipe = make_pipeline(corpus_dir)
        only = "corpus/Constants.intConst"
        assert pipe.verify_all(vectors=1, only=only).checked
        pipe.corrupt("corpus/Constants", "intConst")
        out = pipe.verify_all(vectors=1, only=only)
        assert [(c, m) for c, m, _ in out.failures] == \
            [("corpus/Constants", "intConst()I")]

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
