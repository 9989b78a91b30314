"""Lifecycle tests: states, loading, layout, rewriting, dispatch, ready."""

import re
import struct
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import opcodes as ops
from jrom import romizer as rz
from jrom.errors import (BadOpcode, BadPoolRef, InvalidName,
                         InvalidTransition, NameMismatch, StaticOverflow,
                         Truncated)
from jrom.pipeline import Pipeline

from .assembler import ACC_PUBLIC, ACC_STATIC, ClassBuilder
from .corpus import build_corpus

OP = ops.BY_NAME


def fresh_world(corpus_dir, extra_dir=None):
    paths = [extra_dir, corpus_dir] if extra_dir else [corpus_dir]
    reg = lc.Registry()
    loader = lc.Loader(lc.Classpath(paths), reg)
    return reg, loader


class TestRegistry:
    def test_new_unloaded_state(self):
        reg = lc.Registry()
        cls = reg.new_unloaded("java/lang/Object")
        assert cls.state == lc.UNLOADED
        assert cls.name == "java/lang/Object"

    def test_registry_identity(self):
        reg = lc.Registry()
        assert reg.new_unloaded("A") is reg.new_unloaded("A")

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidName):
            lc.Registry().new_unloaded("")

    def test_primitives_preseeded_ready(self):
        reg = lc.Registry()
        assert reg.get("int").ready
        assert reg.get("int").state == lc.LOADED

    def test_array_synthesized_loaded(self):
        reg = lc.Registry()
        arr = reg.new_unloaded("[I")
        assert arr.synthetic and arr.state == lc.LOADED and arr.ready


class TestLoad:
    def test_empty_class_dispatch_is_objects(self, corpus_dir):
        reg, loader = fresh_world(corpus_dir)
        cls = loader.ensure_loaded("corpus/Empty")
        assert cls.state == lc.LOADED
        obj = reg.get("java/lang/Object")
        # the builder's method list is the oracle for Object's virtuals
        expected = [m[1] for m in build_corpus()["java/lang/Object"][1].methods
                    if m[1] not in ("<init>", "<clinit>")]
        assert [m.name for m in obj.dispatch_table] == expected
        assert cls.dispatch_table == obj.dispatch_table

    def test_name_mismatch(self, corpus_dir):
        data = build_corpus()["corpus/Empty"][0]
        reg, loader = fresh_world(corpus_dir)
        loader.ensure_loaded("java/lang/Object")
        cls = reg.new_unloaded("corpus/NotEmpty")
        with pytest.raises(NameMismatch):
            lc.load(cls, data, reg.resolve)

    def test_load_twice_rejected(self, corpus_dir):
        data = build_corpus()["corpus/Empty"][0]
        reg, loader = fresh_world(corpus_dir)
        cls = loader.ensure_loaded("corpus/Empty")
        with pytest.raises(InvalidTransition):
            lc.load(cls, data, reg.resolve)

    def test_static_int_placed_in_v_zone(self, corpus_dir):
        reg, loader = fresh_world(corpus_dir)
        cls = loader.ensure_loaded("corpus/Statics")
        f = next(f for f in cls.fields if f.name == "sInt")
        assert f.zone == "v" and f.type_code == 1

    def test_hierarchy_cycle_detected(self, corpus_dir, tmp_path):
        a = ClassBuilder("cyc/A", super_name="cyc/B")
        a.default_init("cyc/B")
        b = ClassBuilder("cyc/B", super_name="cyc/A")
        b.default_init("cyc/A")
        for cb in (a, b):
            path = tmp_path / (cb.name + ".class")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(cb.build())
        reg, loader = fresh_world(corpus_dir, str(tmp_path))
        with pytest.raises(lc.HierarchyCycle,
                           match="^cyc/A -> cyc/B -> cyc/A$") as cycle:
            loader.ensure_loaded("cyc/A")
        # each class on the cycle records the one failure, raised again
        assert loader.failed == {"cyc/A": cycle.value, "cyc/B": cycle.value}
        with pytest.raises(lc.HierarchyCycle) as again:
            loader.ensure_loaded("cyc/B")
        assert again.value is cycle.value

    def test_find_field_order(self):
        """JVMS 5.4.3.2: a class's own fields, then its superinterfaces
        depth first, then its superclass.  C extends B implements I1, I2;
        I1 and I2 extend J; B implements K.  A chain of 5,000 interfaces
        is searched without recursing."""
        def field_of(declaring):
            reps = {n: lc.ClassRep(n) for n in ("C", "B", "I1", "I2", "J",
                                                 "K", "Object")}
            for n, rep in reps.items():
                rep.fields = [types.SimpleNamespace(
                    name="f", descriptor="I", owner=n)] * (n in declaring)
            reps["C"].super_cls, reps["B"].super_cls = reps["B"], \
                reps["Object"]
            reps["C"].interfaces = [reps["I1"], reps["I2"]]
            reps["I1"].interfaces = reps["I2"].interfaces = [reps["J"]]
            reps["B"].interfaces = [reps["K"]]
            found = reps["C"].find_field("f", "I")
            return found and found.owner
        order = ["C", "I1", "J", "I2", "B", "K", "Object"]
        for k, owner in enumerate(order):
            assert field_of(order[k:]) == owner
        assert field_of([]) is None
        chain = [lc.ClassRep("I%d" % k) for k in range(5000)]
        for sub, sup in zip(chain, chain[1:]):
            sub.interfaces = [sup]
        chain[-1].fields = [types.SimpleNamespace(name="f", descriptor="I")]
        assert chain[0].find_field("f", "I") is chain[-1].fields[0]

    @pytest.mark.parametrize("name, super_name", [
        ("java/lang/Object", "[Ljava/lang/Object;"),
        ("probe/X", "[I"),
        ("probe/X", "int"),
    ])
    def test_synthetic_superclass_rejected(self, corpus_dir, tmp_path, name,
                                           super_name):
        """JVMS 4.1: super_class names a class, and an array or primitive
        class is none.  An Object declaring an array superclass would also
        be its own ancestor, since every array's superclass is Object."""
        path = tmp_path / (name + ".class")
        path.parent.mkdir(parents=True)
        path.write_bytes(ClassBuilder(name, super_name=super_name).build())
        reg, loader = fresh_world(corpus_dir, str(tmp_path))
        with pytest.raises(InvalidName, match=re.escape(
                "superclass %s of %s is not a class" % (super_name, name))):
            loader.ensure_loaded(name)
        assert reg.get(name).state == lc.UNLOADED

    def test_failed_load_is_not_read_again(self, corpus_dir, tmp_path):
        (tmp_path / "probe").mkdir()
        (tmp_path / "probe" / "T.class").write_bytes(
            ClassBuilder("probe/T").build()[:-3])
        reg, loader = fresh_world(corpus_dir, str(tmp_path))
        with pytest.raises(Truncated) as first:
            loader.ensure_loaded("probe/T")
        loader.classpath = None         # any further read would fail
        with pytest.raises(Truncated) as again:
            loader.ensure_loaded("probe/T")
        assert again.value is first.value
        assert reg.get("probe/T").state == lc.UNLOADED

    def test_closure_failure_raises_from_load_targets(self, corpus_dir,
                                                      tmp_path):
        a = ClassBuilder("probe/A")
        a.default_init()
        a.method("go", "()V", ACC_PUBLIC | ACC_STATIC).new("probe/T") \
            .op("pop").op("return")
        (tmp_path / "probe").mkdir()
        (tmp_path / "probe" / "A.class").write_bytes(a.build())
        (tmp_path / "probe" / "T.class").write_bytes(
            ClassBuilder("probe/T").build()[:-3])
        pipe = Pipeline([str(tmp_path), corpus_dir])
        with pytest.raises(Truncated):
            pipe.load_targets(["probe/A"], closure=True)
        assert pipe.registry.get("probe/A").state == lc.LOADED
        assert pipe.load_closure() == []    # probe/T is not loaded again

    def test_loaded_snapshot_unchanged_by_linking(self, corpus, corpus_dir,
                                                  monkeypatch):
        """The pool loading builds is the loaded snapshot itself; linking
        packs into a new pool, leaves the loaded one's lists as they were,
        and neither pool keeps a raw-index map."""
        built = {}
        build_pool = cp.build_pool

        def recording_build_pool(raw):
            pool, placement = build_pool(raw)
            built[raw.name] = pool
            return pool, placement
        monkeypatch.setattr(cp, "build_pool", recording_build_pool)

        def snapshot(cls):
            pool = cls.loaded_pool
            return ([id(p) for p in pool.a_payload], list(pool.a_kind),
                    list(pool.v_kind), list(pool.v_value),
                    rz.snapshot_stats(cls, lc.LOADED))
        pipe = Pipeline([corpus_dir])
        pipe.load_targets(sorted(corpus), closure=True)
        loaded = pipe.registry.loadable()
        before = {cls.name: snapshot(cls) for cls in loaded}
        assert pipe.link_all() == []
        for cls in loaded:
            assert cls.state == lc.LINKED
            assert cls.loaded_pool is built[cls.name]
            assert cls.pool is not cls.loaded_pool
            assert not hasattr(cls.pool, "origin")
            assert not hasattr(cls.loaded_pool, "origin")
            assert snapshot(cls) == before[cls.name], cls.name


class TestStaticLayout:
    def _layout(self, fields):
        cb = ClassBuilder("L")
        for name, desc in fields:
            cb.field(name, desc, ACC_PUBLIC | ACC_STATIC)
        cb.default_init()
        reg = lc.Registry()
        obj = reg.new_unloaded("java/lang/Object")
        obj.state = lc.LOADED
        cls = reg.new_unloaded("L")
        lc.load(cls, cb.build(), reg.resolve)
        return cls

    def test_declaration_order_rule(self):
        cls = self._layout([("a", "Ljava/lang/Object;"), ("i", "I"),
                            ("l", "J")])
        by_name = {f.name: f for f in cls.fields}
        assert (by_name["a"].zone, by_name["a"].offset) == ("a", 0)
        assert (by_name["i"].zone, by_name["i"].offset) == ("v", 0)
        assert (by_name["l"].zone, by_name["l"].offset) == ("v", 1)
        assert len(cls.v_static_zone) == 3   # int plus two long cells

    def test_no_statics_empty_zones(self):
        cls = self._layout([])
        assert cls.a_static_zone == [] and cls.v_static_zone == []

    def test_type_codes_cover_all_kinds(self):
        cls = self._layout([("r", "Ljava/lang/Object;"), ("i", "I"),
                            ("f", "F"), ("j", "J"), ("d", "D"), ("b", "B"),
                            ("z", "Z"), ("c", "C"), ("s", "S")])
        codes = {f.name: f.type_code for f in cls.fields}
        assert codes == {"r": 0, "i": 1, "f": 2, "j": 3, "d": 4,
                         "b": 5, "z": 5, "c": 6, "s": 7}

    def test_8192_statics_fit(self):
        cls = self._layout([("s%d" % i, "I") for i in range(8192)])
        assert max(f.offset for f in cls.fields) == 8191

    def test_8193rd_static_overflows(self):
        with pytest.raises(StaticOverflow):
            self._layout([("s%d" % i, "I") for i in range(8193)])


def _single_method_class(build, descriptor="()I", pool_pad=0):
    cb = ClassBuilder("T")
    cb.default_init()
    code = cb.method("m", descriptor, ACC_PUBLIC | ACC_STATIC)
    build(code)
    # fields whose names come after the code's own entries: member text
    # stays in the atable, so a narrow ldc index could map to an atable
    # slot beyond one byte
    for i in range(pool_pad):
        cb.field("pad%04d" % i, "I", ACC_PUBLIC)
    reg = lc.Registry()
    obj = reg.new_unloaded("java/lang/Object")
    obj.state = lc.LOADED
    cls = reg.new_unloaded("T")
    lc.load(cls, cb.build(), reg.resolve)
    return cls, next(m for m in cls.methods if m.name == "m")


class TestRewriteLoad:
    def test_ldc_int_becomes_quick_i(self):
        cls, m = _single_method_class(
            lambda c: c.ldc_int(42).op("ireturn"))
        bc = m.code.bytecode
        assert bc[0] == OP["ldc_quick_i"]
        assert cls.pool.v_value[bc[1]] == 42

    def test_ldc_float_distinct_opcode(self):
        cls, m = _single_method_class(
            lambda c: c.ldc_float(1.0).op("freturn"), "()F")
        bc = m.code.bytecode
        assert bc[0] == OP["ldc_quick_f"]
        assert bc[0] != OP["ldc_quick_i"]
        assert cls.pool.v_value[bc[1]] == struct.unpack(
            ">I", struct.pack(">f", 1.0))[0]

    def test_ldc_string_points_at_literal(self):
        cls, m = _single_method_class(
            lambda c: c.ldc_str("lit").op("areturn"), "()Ljava/lang/String;")
        bc = m.code.bytecode
        assert bc[0] == OP["ldc_quick_a"]
        assert cls.pool.a_kind[bc[1]] == cp.A_STRING \
            and cls.pool.a_payload[bc[1]] == "lit"

    def test_ldc_w_uses_wide_quick_form(self):
        cls, m = _single_method_class(
            lambda c: c.ldc_int(7, wide=True).op("ireturn"))
        bc = m.code.bytecode
        assert bc[0] == OP["ldc_quick_i_w"]
        idx = struct.unpack_from(">H", bc, 1)[0]
        assert cls.pool.v_value[idx] == 7

    def test_ldc2_long_and_double(self):
        cls, m = _single_method_class(
            lambda c: c.ldc_long(1 << 35).op("pop2")
                       .ldc_double(2.5).op("dreturn"), "()D")
        bc = m.code.bytecode
        assert bc[0] == OP["ldc2_quick_l"]
        assert bc[ops.size_at(bc, 0) + 1] == OP["ldc2_quick_d"]

    def test_anewarray_quick(self):
        cls, m = _single_method_class(
            lambda c: c.op("iconst_2").anewarray("java/lang/Object")
                       .op("areturn"), "()[Ljava/lang/Object;")
        bc = m.code.bytecode
        assert bc[1] == OP["anewarray_quick"]
        idx = struct.unpack_from(">H", bc, 2)[0]
        assert cls.pool.a_kind[idx] == cp.A_CLASS

    def test_rewrite_operand_holds_its_kind(self):
        cls, m = _single_method_class(
            lambda c: c.ldc_int(5).op("ireturn"))
        bc = m.code.bytecode
        entry = ops.OPERANDS[bc[0]]
        assert cp.holds(cls.pool, entry.space, bc[1], entry.want)

    def test_plain_method_unchanged(self):
        cls, m = _single_method_class(
            lambda c: c.op("iconst_2").op("iconst_3").op("imul")
                       .op("ireturn"))
        assert bytes(m.code.bytecode) == bytes(
            [OP["iconst_2"], OP["iconst_3"], OP["imul"], OP["ireturn"]])

    def test_boundaries_and_length_preserved(self, corpus, corpus_dir):
        # decode the raw code and the rewritten code: identical shapes
        from jrom import classfile as cf
        reg, loader = fresh_world(corpus_dir)
        for name in sorted(corpus):
            cls = loader.ensure_loaded(name)
            raw = cf.parse_class(corpus[name][0])
            for m, rm in zip(cls.methods, raw.methods):
                if m.code is None:
                    continue
                original = rm.attr("Code").code.code
                rewritten = m.code.bytecode
                assert len(original) == len(rewritten)
                assert [o for o, _, _ in ops.walk(original)] == \
                    [o for o, _, _ in ops.walk(rewritten)]

    def test_ldc_string_index_overflow(self):
        """A one-byte ldc's String literal is placed before every Utf8, so
        its atable index stays below the String's raw index and fits the
        byte however many Utf8s follow."""
        cls, m = _single_method_class(
            lambda c: c.ldc_str("late").op("areturn"),
            "()Ljava/lang/String;", pool_pad=300)
        bc = m.code.bytecode
        assert bc[0] == OP["ldc_quick_a"]
        assert (cls.pool.a_kind[bc[1]], cls.pool.a_payload[bc[1]]) == \
            (cp.A_STRING, "late")
        assert len(cls.pool.a_kind) > 300

    def test_unknown_opcode_rejected_at_load(self):
        cb = ClassBuilder("T")
        cb.default_init()
        c = cb.method("m", "()I", ACC_PUBLIC | ACC_STATIC)
        c.op("iconst_2").op("nop").op("nop").op("ireturn")
        data = bytearray(cb.build())
        pattern = bytes([ops.BY_NAME["iconst_2"], 0, 0,
                         ops.BY_NAME["ireturn"]])
        at = bytes(data).index(pattern)
        data[at + 1] = 186          # unassigned opcode value
        reg = lc.Registry()
        obj = reg.new_unloaded("java/lang/Object")
        obj.state = lc.LOADED
        cls = reg.new_unloaded("T")
        with pytest.raises(BadOpcode):
            lc.load(cls, bytes(data), reg.resolve)

    @pytest.mark.parametrize("op", sorted(op for op in ops.NAME
                                          if op >= ops.FIRST_QUICK),
                             ids=ops.NAME.get)
    def test_quick_opcode_rejected_at_load(self, corpus_dir, tmp_path, op):
        """jrom's quick forms exist only inside jrom: a class file holding
        one at an instruction start fails loading, whatever its operand."""
        cb = ClassBuilder("q/T")
        cb.default_init()
        c = cb.method("m", "()I", ACC_PUBLIC | ACC_STATIC)
        c.op("iconst_2").op("nop").op("nop").op("ireturn")
        data = bytearray(cb.build())
        at = bytes(data).index(bytes([OP["iconst_2"], 0, 0, OP["ireturn"]]))
        data[at + 1] = op
        (tmp_path / "q").mkdir()
        (tmp_path / "q" / "T.class").write_bytes(data)
        reg, loader = fresh_world(corpus_dir, str(tmp_path))
        with pytest.raises(BadOpcode,
                           match="reserved opcode 0x%02x at offset 1" % op):
            loader.ensure_loaded("q/T")
        assert reg.get("q/T").state == lc.UNLOADED

    def test_ldc_of_class_constant_rejected(self):
        """An operand naming a constant of another kind than its instruction
        wants fails loading, even where no path reaches it."""
        from jrom.errors import BadPoolRef
        for op, operands in (
                ("ldc", lambda p: (p.klass("T"),)),
                ("getstatic", lambda p: (p.klass("T"),)),
                ("invokevirtual", lambda p: (p.fieldref("T", "f", "I"),)),
                # loading checks the kind of member ref, though the loaded
                # operand names the member handle alone
                ("invokeinterface",
                 lambda p: (*divmod(p.methodref("T", "f", "()I"), 256), 1, 0)),
                ("new", lambda p: (p.integer(42),))):
            cb = ClassBuilder("T")
            cb.default_init()
            c = cb.method("m", "(I)I", ACC_PUBLIC | ACC_STATIC)
            c.op("iload_0").op("ifeq", "DEAD").op("iconst_1").op("ireturn")
            c.label("DEAD").op(op, *operands(cb.pool)).op("ireturn")
            reg = lc.Registry()
            obj = reg.new_unloaded("java/lang/Object")
            obj.state = lc.LOADED
            cls = reg.new_unloaded("T")
            with pytest.raises(BadPoolRef):
                lc.load(cls, cb.build(), reg.resolve)
            assert cls.state == lc.UNLOADED, op

    def test_every_quick_target_holds_its_kind_after_load(self, corpus,
                                                         corpus_dir):
        reg, loader = fresh_world(corpus_dir)
        for name in sorted(corpus):
            cls = loader.ensure_loaded(name)
            for m in cls.methods:
                if m.code_loaded is None:
                    continue
                bc = m.code_loaded.bytecode
                for off, op, size in ops.walk(bc):
                    found = ops.pool_operand(bc, off)
                    if found is None:
                        continue
                    entry, idx = found
                    assert cp.holds(cls.loaded_pool, entry.space, idx,
                                    entry.want)


# each instruction whose class-file operand is a raw pool index: the fault
# text loading gives when the operand names a constant of another kind, and
# the kinds of constant it takes
_LOAD_FAULTS = {
    "ldc": ("ldc operand %d is not an int/float/string",
            {"Integer", "String"}),
    "ldc_w": ("ldc operand %d is not an int/float/string",
              {"Integer", "String"}),
    "ldc2_w": ("ldc2_w operand %d is not a long/double", {"Long"}),
    **{name: ("%s operand %%d is not a class constant" % name, {"Class"})
       for name in ("anewarray", "new", "checkcast", "instanceof",
                    "multianewarray")},
    **{name: ("%s operand %%d is not a field ref constant" % name, set())
       for name in ("getstatic", "putstatic", "getfield", "putfield")},
    **{name: ("%s operand %%d is not a method ref constant" % name, set())
       for name in ("invokevirtual", "invokespecial", "invokestatic")},
    "invokeinterface": (
        "invokeinterface operand %d is not an interface method ref constant",
        set()),
}
# what an operand names -> the raw index it gets in ``pool``, and whether
# loading gives the rule's text (a constant) or the generic one (no constant)
_NAMED = {
    "Utf8": (lambda p, _: p.utf8("x"), True),
    "NameAndType": (lambda p, _: p.nat("f", "I"), True),
    "Class": (lambda p, _: p.klass("T"), True),
    "String": (lambda p, _: p.string("s"), True),
    "Integer": (lambda p, _: p.integer(7), True),
    "Long": (lambda p, _: p.long_(1 << 40), True),
    # a field instruction names a method ref, any other a field ref
    "member ref of the wrong kind": (
        lambda p, name: p.methodref("T", "f", "()I")
        if name.startswith(("get", "put", "invokeinterface"))
        else p.fieldref("T", "f", "I"), True),
    "slot after a Long": (lambda p, _: p.long_(1 << 41) + 1, False),
    "slot past the pool": (lambda p, _: 250, False),
}


@pytest.mark.parametrize("name, named", [
    (name, named) for name, (_, takes) in _LOAD_FAULTS.items()
    for named in _NAMED if named not in takes])
def test_load_fault_names_its_rule(name, named):
    """An operand naming a constant its instruction does not take fails
    loading with the instruction's own fault text, whether or not loading
    keeps that constant; one naming no constant gets the generic text."""
    assert set(_LOAD_FAULTS) == {ops.NAME[op] for op in lc._LOAD}
    cb = ClassBuilder("T")
    cb.default_init()
    make, of_rule = _NAMED[named]
    idx = make(cb.pool, name)
    c = cb.method("m", "(I)I", ACC_PUBLIC | ACC_STATIC)
    c.op("iload_0").op("ifeq", "DEAD").op("iconst_1").op("ireturn")
    c.label("DEAD")
    if name == "invokeinterface":
        c.op(name, *divmod(idx, 256), 1, 0)
    elif name == "multianewarray":      # the assembler has no such op
        c.op("new", idx).op("nop")
    else:
        c.op(name, idx)
    c.op("ireturn")
    data = cb.build()
    if name == "multianewarray":
        tail = [OP["iconst_1"], OP["ireturn"], OP["new"], *divmod(idx, 256)]
        assert data.count(bytes(tail + [OP["nop"]])) == 1
        data = data.replace(bytes(tail + [OP["nop"]]),
                            bytes(tail[:2] + [OP[name]] + tail[3:] + [1]))
    reg = lc.Registry()
    reg.new_unloaded("java/lang/Object").state = lc.LOADED
    cls = reg.new_unloaded("T")
    fault = _LOAD_FAULTS[name][0] % idx if of_rule else \
        "operand %d at offset 6 is not a pool constant" % idx
    with pytest.raises(BadPoolRef) as err:
        lc.load(cls, data, reg.resolve)
    assert str(err.value) == (fault + " at offset 6" if of_rule else fault)
    assert cls.state == lc.UNLOADED


class TestDispatchTable:
    def test_override_keeps_superclass_slot(self, linked_pipeline):
        reg = linked_pipeline.registry
        shape = reg.get("corpus/shapes/Shape")
        circle = reg.get("corpus/shapes/Circle")
        shape_slot = next(m.dispatch_slot for m in shape.methods
                          if m.name == "area")
        circle_area = next(m for m in circle.methods if m.name == "area")
        assert circle_area.dispatch_slot == shape_slot
        assert circle.dispatch_table[shape_slot] is circle_area

    def test_static_only_class_table_equals_super(self, linked_pipeline):
        reg = linked_pipeline.registry
        cls = reg.get("corpus/Recurse")
        assert cls.dispatch_table == cls.super_cls.dispatch_table

    def test_prefix_property_whole_corpus(self, linked_pipeline):
        for cls in linked_pipeline.registry.loadable():
            sup = cls.super_cls
            if sup is None:
                continue
            prefix = cls.dispatch_table[:len(sup.dispatch_table)]
            for mine, inherited in zip(prefix, sup.dispatch_table):
                if mine is not inherited:
                    assert (mine.name, mine.descriptor) == \
                        (inherited.name, inherited.descriptor)
                    assert mine.owner is cls

    def test_new_virtuals_appended_in_order(self, linked_pipeline):
        reg = linked_pipeline.registry
        chain_b = reg.get("corpus/deep/ChainB")
        names = [m.name for m in chain_b.dispatch_table]
        assert names.index("v1") < names.index("v2")


class TestMakeReady:
    def test_constant_values_written(self, corpus_dir):
        reg, loader = fresh_world(corpus_dir)
        cls = loader.ensure_loaded("corpus/Statics")
        # drop <clinit> effects from the picture: run ConstantValue only
        for f in cls.fields:
            if f.name == "sInt":
                owner, local = cls.static_slot(f.zone, f.offset)
        lc.make_ready(cls, lambda c, m: None)
        assert owner.v_static_zone[local] == 7
        by = {f.name: f for f in cls.fields}
        sref = by["sRef"]
        owner, local = cls.static_slot(sref.zone, sref.offset)
        assert owner.a_static_zone[local] == ("str", "init")

    def test_clinit_computed_value(self, corpus_dir):
        write_dir = corpus_dir
        pipe = Pipeline([write_dir])
        pipe.load_targets(["corpus/Statics"], closure=True)
        assert pipe.ready_all() == []
        cls = pipe.registry.get("corpus/Statics")
        f = next(f for f in cls.fields if f.name == "cInt")
        owner, local = cls.static_slot(f.zone, f.offset)
        assert owner.v_static_zone[local] == 42

    def test_no_statics_ready_with_untouched_zones(self, corpus_dir):
        reg, loader = fresh_world(corpus_dir)
        cls = loader.ensure_loaded("corpus/Empty")
        lc.make_ready(cls, lambda c, m: None)
        assert cls.ready
        assert cls.a_static_zone == [] and cls.v_static_zone == []

    def test_unsupported_clinit_keeps_class_non_ready(self, corpus_dir,
                                                      tmp_path):
        cb = ClassBuilder("bad/Mon")
        cb.field("x", "I", ACC_PUBLIC | ACC_STATIC, const=("i", 3))
        cb.default_init()
        c = cb.method("<clinit>", "()V", ACC_STATIC)
        c.new("bad/Mon")
        c.invoke("invokespecial", "bad/Mon", "<init>", "()V")
        c.op("monitorenter")
        c.op("return")
        path = tmp_path / "bad"
        path.mkdir()
        (path / "Mon.class").write_bytes(cb.build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(["bad/Mon"], closure=True)
        failures = pipe.ready_all()
        assert any(name == "bad/Mon" for name, _ in failures)
        cls = pipe.registry.get("bad/Mon")
        assert not cls.ready
        # ConstantValue stage was applied and survives the rollback
        f = next(f for f in cls.fields if f.name == "x")
        owner, local = cls.static_slot(f.zone, f.offset)
        assert owner.v_static_zone[local] == 3

    def test_ready_all_runs_shallower_classes_first(self, corpus_dir,
                                                    tmp_path, monkeypatch):
        # by depth of superclass chain, then by name: not name order
        supers = {"ro/A": "ro/B", "ro/B": None, "ro/C": None, "ro/D": None,
                  "ro/E": "ro/A"}
        for name, sup in supers.items():
            cb = ClassBuilder(name, super_name=sup or "java/lang/Object")
            (tmp_path / "ro").mkdir(exist_ok=True)
            (tmp_path / (name + ".class")).write_bytes(
                cb.default_init().build())
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets(sorted(supers), closure=True)
        order, make_ready = [], lc.make_ready
        monkeypatch.setattr(lc, "make_ready", lambda cls, interp: (
            order.append(cls.name), make_ready(cls, interp)))
        assert pipe.ready_all() == []
        assert [n for n in order if n.startswith("ro/")] == [
            "ro/B", "ro/C", "ro/D", "ro/A", "ro/E"]
        assert order[0] == "java/lang/Object"

    def test_ready_is_idempotent(self, corpus_dir):
        reg, loader = fresh_world(corpus_dir)
        cls = loader.ensure_loaded("corpus/Empty")
        lc.make_ready(cls, lambda c, m: None)
        lc.make_ready(cls, lambda c, m: None)
        assert cls.ready


class TestStateMachine:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.sampled_from(["load", "link", "ready"]),
                    min_size=1, max_size=6))
    def test_only_legal_transitions(self, script):
        import jrom.linker as lk
        data = build_corpus()["corpus/Empty"][0]
        reg = lc.Registry()
        obj = reg.new_unloaded("java/lang/Object")
        lc.load(obj, build_corpus()["java/lang/Object"][0], reg.resolve)
        cls = reg.new_unloaded("corpus/Empty")
        ctx = lk.LinkContext(reg)
        state, ready = "unloaded", False
        for action in script:
            if action == "load":
                legal = state == "unloaded"
                try:
                    lc.load(cls, data, reg.resolve)
                    assert legal
                    state = "loaded"
                except InvalidTransition:
                    assert not legal
            elif action == "link":
                legal = state == "loaded"
                try:
                    lk.link(cls, ctx)
                    assert legal
                    state = "linked"
                except InvalidTransition:
                    assert not legal
            else:
                legal = state in ("loaded", "linked")
                try:
                    lc.make_ready(cls, lambda c, m: None)
                    assert legal
                    ready = True
                except InvalidTransition:
                    assert not legal
            assert cls.ready == ready   # ready never reverts

    def test_link_after_ready_succeeds(self, corpus_dir):
        import jrom.linker as lk
        reg, loader = fresh_world(corpus_dir)
        cls = loader.ensure_loaded("corpus/Empty")
        lc.make_ready(cls, lambda c, m: None)
        assert cls.ready and cls.state == lc.LOADED
        lk.link(cls, lk.LinkContext(reg, loader=loader))
        assert cls.state == lc.LINKED and cls.ready
