"""Two-table pool tests: building, prelinking, marking, packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrom import classfile as cf
from jrom import constpool as cp
from jrom.errors import DanglingIndex, IndexOutOfRange, PoolOverflow
from jrom.lifecycle import Registry

from .conftest import resolve


def raw_pool(*constants):
    """Hand-built RawClassFile around a pool; slot 0 implied."""
    pool = [cf.RawConstant(cf.TAG_PLACEHOLDER)]
    for tag, value in constants:
        if tag == cf.TAG_UTF8:
            pool.append(cf.RawConstant(tag, cf.encode_mutf8(value), value))
        else:
            pool.append(cf.RawConstant(tag, value))
        if tag in (cf.TAG_LONG, cf.TAG_DOUBLE):
            pool.append(cf.RawConstant(cf.TAG_PLACEHOLDER))
    return cf.RawClassFile(0, 48, pool, 0, 0, 0, [], [], [], [])


def prelinked(raw, registry=None):
    registry = registry or Registry()
    pool = cp.build_pool(raw)
    cp.prelink_pass1(pool, raw, registry.resolve)
    cp.prelink_pass2(pool, raw)
    return pool


class TestBuildPool:
    def test_integer_goes_to_vtable(self):
        pool = cp.build_pool(raw_pool((cf.TAG_INTEGER, 42)))
        assert pool.v_value == [42]
        assert pool.a_kind == []

    def test_long_spans_two_cells(self):
        value = 1 << 33
        pool = cp.build_pool(raw_pool((cf.TAG_LONG, value)))
        assert len(pool.v_kind) == 2
        rebuilt = (pool.v_value[0] << 32) | pool.v_value[1]
        assert rebuilt == value

    def test_negative_long_bits(self):
        pool = cp.build_pool(raw_pool((cf.TAG_LONG, -2)))
        rebuilt = (pool.v_value[0] << 32) | pool.v_value[1]
        assert rebuilt == (-2) & 0xFFFFFFFFFFFFFFFF

    def test_utf8_goes_to_atable(self):
        pool = cp.build_pool(raw_pool((cf.TAG_UTF8, "hi")))
        assert list(zip(pool.a_kind, pool.a_payload)) == [(cp.A_UTF8, "hi")]

    def test_entry_count_includes_pending(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1))
        pool = cp.build_pool(raw)
        assert pool.entry_count() == 2


class TestPass1:
    def test_class_constant_becomes_handle(self):
        raw = raw_pool((cf.TAG_UTF8, "java/lang/Object"), (cf.TAG_CLASS, 1))
        registry = Registry()
        pool = cp.build_pool(raw)
        cp.prelink_pass1(pool, raw, registry.resolve)
        handles = [p for k, p in zip(pool.a_kind, pool.a_payload)
                   if k == cp.A_CLASS]
        assert len(handles) == 1
        assert handles[0].name == "java/lang/Object"
        # nothing else references the Utf8: dropped from the live set
        assert pool.a_dead[0]
        assert pool.entry_count() == 1

    def test_empty_pool_is_noop(self):
        raw = raw_pool()
        pool = cp.build_pool(raw)
        cp.prelink_pass1(pool, raw, Registry().resolve)
        assert pool.a_kind == [] and pool.v_kind == []

    def test_string_literals_interned(self):
        raw = raw_pool((cf.TAG_UTF8, "a"), (cf.TAG_STRING, 1),
                       (cf.TAG_STRING, 1))
        pool = cp.build_pool(raw)
        cp.prelink_pass1(pool, raw, Registry().resolve)
        cells = [v for k, v in zip(pool.v_kind, pool.v_value)
                 if k == cp.V_STRING]
        assert len(cells) == 2
        assert cells[0] == cells[1]
        assert pool.a_kind[cells[0]] == cp.A_STRING \
            and pool.a_payload[cells[0]] == "a"

    def test_nat_packs_two_indexes(self):
        raw = raw_pool((cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (1, 2)))
        pool = cp.build_pool(raw)
        cp.prelink_pass1(pool, raw, Registry().resolve)
        nat = pool.v_value[pool.v_kind.index(cp.V_NAT)]
        assert (nat >> 16, nat & 0xFFFF) == (0, 1)

    def test_dangling_class_index(self):
        raw = raw_pool((cf.TAG_CLASS, 9))
        pool = cp.build_pool(raw)
        with pytest.raises(DanglingIndex):
            cp.prelink_pass1(pool, raw, Registry().resolve)


class TestPass2:
    def test_methodref_packs_class_and_handle(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)))
        pool = prelinked(raw)
        ref = pool.v_value[pool.v_kind.index(cp.V_METHODREF)]
        class_aidx, member_aidx = ref >> 16, ref & 0xFFFF
        assert pool.a_kind[class_aidx] == cp.A_CLASS
        handle = pool.a_payload[member_aidx]
        assert pool.a_kind[member_aidx] == cp.A_METHOD
        assert handle.name == "f"
        assert handle.descriptor == "()V"
        # the NameAndType fed the ref and died
        nat_idx = pool.v_kind.index(cp.V_NAT)
        assert pool.v_dead[nat_idx]

    def test_two_fieldrefs_share_one_handle(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "x"), (cf.TAG_UTF8, "I"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_FIELDREF, (2, 5)),
                       (cf.TAG_FIELDREF, (2, 5)))
        pool = prelinked(raw)
        refs = [v for k, v in zip(pool.v_kind, pool.v_value)
                if k == cp.V_FIELDREF]
        assert len(refs) == 2
        assert refs[0] == refs[1]
        assert pool.a_kind.count(cp.A_FIELD) == 1

    def test_no_refs_is_identity(self):
        raw = raw_pool((cf.TAG_INTEGER, 3))
        pool = cp.build_pool(raw)
        cp.prelink_pass1(pool, raw, Registry().resolve)
        before = list(zip(pool.v_kind, pool.v_value))
        cp.prelink_pass2(pool, raw)
        assert list(zip(pool.v_kind, pool.v_value)) == before

    def test_entry_count_never_increases(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)),
                       (cf.TAG_UTF8, "x"), (cf.TAG_STRING, 7),
                       (cf.TAG_LONG, 99))
        registry = Registry()
        pool = cp.build_pool(raw)
        at_build = pool.entry_count()
        cp.prelink_pass1(pool, raw, registry.resolve)
        at_pass1 = pool.entry_count()
        cp.prelink_pass2(pool, raw)
        at_pass2 = pool.entry_count()
        assert at_build >= at_pass1 >= at_pass2
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 0)
        packed, _, _ = cp.pack(pool, marks)
        assert at_pass2 >= packed.entry_count()


class TestMark:
    def _pool(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)),
                       (cf.TAG_UTF8, "s"), (cf.TAG_STRING, 7))
        return prelinked(raw)

    def test_ref_cell_marks_both_handles(self):
        pool = self._pool()
        vidx = pool.v_kind.index(cp.V_METHODREF)
        a_marks, v_marks = marks = cp.new_marks(pool)
        cp.mark(pool, marks, "vtable", vidx)
        cell = pool.v_value[vidx]
        assert a_marks[cell >> 16]
        assert a_marks[cell & 0xFFFF]

    def test_mark_idempotent(self):
        pool = self._pool()
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 0)
        snapshot = (bytes(marks[0]), bytes(marks[1]))
        cp.mark(pool, marks, "v", 0)
        assert marks == snapshot

    def test_string_cell_marks_literal(self):
        pool = self._pool()
        vidx = pool.v_kind.index(cp.V_STRING)
        a_marks, _ = marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", vidx)
        assert a_marks[pool.v_value[vidx]]

    def test_out_of_range(self):
        pool = self._pool()
        marks = cp.new_marks(pool)
        with pytest.raises(IndexOutOfRange):
            cp.mark(pool, marks, "v", 99)
        with pytest.raises(IndexOutOfRange):
            cp.mark(pool, marks, "a", -1)


class TestHolds:
    def test_kind_bounds_and_whole_reads(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)), (cf.TAG_LONG, 5))
        pool = prelinked(raw)
        ref = pool.v_kind.index(cp.V_METHODREF)
        hi = pool.v_kind.index(cp.V_LONG_HI)
        assert cp.holds(pool, "v", ref, cp.V_METHODREF)
        assert cp.holds(pool, "v", hi, cp.V_LONG_HI)
        assert cp.holds(pool, "v", ref, None)
        assert not cp.holds(pool, "v", ref, cp.V_FIELDREF)
        assert not cp.holds(pool, "v", len(pool.v_kind), None)
        assert not cp.holds(pool, "a", len(pool.a_kind), cp.A_CLASS)
        # a member-ref cell whose handle is not a method handle
        pool.v_value[ref] = (pool.v_value[ref] >> 16) * 0x10001
        assert not cp.holds(pool, "v", ref, cp.V_METHODREF)
        pool.v_value[ref] = len(pool.a_kind)
        assert not cp.holds(pool, "v", ref, cp.V_METHODREF)
        # a long whose low cell is past the table
        del pool.v_kind[hi + 1:], pool.v_value[hi + 1:]
        assert not cp.holds(pool, "v", hi, cp.V_LONG_HI)


class TestPack:
    def test_sweep_and_remap(self):
        raw = raw_pool((cf.TAG_INTEGER, 10), (cf.TAG_INTEGER, 11),
                       (cf.TAG_INTEGER, 12), (cf.TAG_INTEGER, 13),
                       (cf.TAG_INTEGER, 14))
        pool = prelinked(raw)
        marks = cp.new_marks(pool)
        for i in (0, 1, 2, 4):
            cp.mark(pool, marks, "v", i)
        resolved_before = {i: resolve(pool, "v", i) for i in (0, 1, 2, 4)}
        packed, _, v_remap = cp.pack(pool, marks)
        assert v_remap == {0: 0, 1: 1, 2: 2, 4: 3}
        for old, new in v_remap.items():
            assert resolve(packed, "v", new) == resolved_before[old]

    def test_all_marked_identity(self):
        raw = raw_pool((cf.TAG_INTEGER, 1), (cf.TAG_INTEGER, 2))
        pool = prelinked(raw)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 0)
        cp.mark(pool, marks, "v", 1)
        _, _, v_remap = cp.pack(pool, marks)
        assert v_remap == {0: 0, 1: 1}

    def test_none_marked_empties_tables(self):
        raw = raw_pool((cf.TAG_INTEGER, 1), (cf.TAG_UTF8, "gone"))
        pool = prelinked(raw)
        packed, _, _ = cp.pack(pool, cp.new_marks(pool))
        assert packed.a_kind == [] and packed.v_kind == []

    def test_long_pair_moves_together(self):
        raw = raw_pool((cf.TAG_INTEGER, 7), (cf.TAG_LONG, 1 << 40))
        pool = prelinked(raw)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 1)    # the long's first cell
        packed, _, _ = cp.pack(pool, marks)
        assert packed.v_kind == [cp.V_LONG_HI, cp.V_LONG_LO]
        assert resolve(packed, "v", 0) == (cp.V_LONG_HI, 1 << 40)

    def test_surviving_ref_cells_are_rewritten(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)))
        pool = prelinked(raw)
        vidx = pool.v_kind.index(cp.V_METHODREF)
        before = resolve(pool, "v", vidx)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", vidx)
        packed, _, v_remap = cp.pack(pool, marks)
        new_vidx = v_remap[vidx]
        assert resolve(packed, "v", new_vidx) == before
        cell = packed.v_value[new_vidx]
        assert (cell >> 16) < len(packed.a_kind)
        assert (cell & 0xFFFF) < len(packed.a_kind)

    def test_stats_count_before_and_after(self):
        raw = raw_pool((cf.TAG_INTEGER, 1), (cf.TAG_INTEGER, 2),
                       (cf.TAG_UTF8, "z"), (cf.TAG_STRING, 3))
        pool = prelinked(raw)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 0)
        packed, _, _ = cp.pack(pool, marks)
        # live before: two ints, the string cell and its literal; the "z"
        # Utf8 fed the String constant and died during prelinking
        assert pool.entry_count() == 4
        assert packed.entry_count() == 2    # one int plus the kept literal
        assert pool.byte_size() == 4 + 4 + 4 + (2 + 1)
        assert packed.byte_size() == 4 + (2 + 1)

    def test_pool_left_as_it_was(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)), (cf.TAG_INTEGER, 3))
        pool = prelinked(raw)

        def tables(p):
            return (list(p.a_kind), list(p.a_payload), list(p.v_kind),
                    list(p.v_value), bytes(p.a_dead), bytes(p.v_dead),
                    dict(p.origin))
        before = tables(pool)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", pool.v_kind.index(cp.V_METHODREF))
        packed, _, _ = cp.pack(pool, marks)
        assert packed is not pool and tables(pool) == before
        assert packed.origin == {}
        assert len(packed.v_kind) < len(pool.v_kind)

    def test_atable_overflow_rejected(self):
        # a NameAndType cannot pack an index above 16 bits
        constants = [(cf.TAG_UTF8, "u%d" % i) for i in range(70000)]
        constants.append((cf.TAG_NAMEANDTYPE, (69999, 70000)))
        raw = raw_pool(*constants)
        pool = cp.build_pool(raw)
        with pytest.raises(PoolOverflow):
            cp.prelink_pass1(pool, raw, Registry().resolve)


@settings(max_examples=60, deadline=None)
@given(marks=st.lists(st.booleans(), min_size=5, max_size=5))
def test_pack_preserves_resolution_of_marked(marks):
    raw = raw_pool((cf.TAG_INTEGER, 100), (cf.TAG_INTEGER, 101),
                   (cf.TAG_UTF8, "a"), (cf.TAG_STRING, 3),
                   (cf.TAG_LONG, 1 << 35))
    pool = prelinked(raw)
    pool_marks = cp.new_marks(pool)
    targets = []
    kinds = pool.v_kind
    for should_mark, vidx in zip(marks, [i for i, k in enumerate(kinds)
                                         if k != cp.V_LONG_LO]):
        if should_mark:
            cp.mark(pool, pool_marks, "v", vidx)
            targets.append((vidx, resolve(pool, "v", vidx)))
    packed, _, v_remap = cp.pack(pool, pool_marks)
    for old, value in targets:
        assert resolve(packed, "v", v_remap[old]) == value
