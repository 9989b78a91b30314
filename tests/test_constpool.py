"""Two-table pool tests: building, prelinking, marking, packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrom import classfile as cf
from jrom import constpool as cp
from jrom.errors import DanglingIndex, IndexOutOfRange, PoolOverflow
from jrom.lifecycle import Registry

from .conftest import prelinked, raw_pool, resolve


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


class TestPass1:
    def test_class_constant_becomes_handle(self):
        raw = raw_pool((cf.TAG_UTF8, "java/lang/Object"), (cf.TAG_CLASS, 1))
        pool = prelinked(raw)
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
        pool = prelinked(raw)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 0)
        packed, _, _ = cp.pack(pool, marks)
        assert pool.entry_count() >= packed.entry_count()


class TestByteSize:
    @pytest.mark.parametrize("text", [
        "", "java/lang/Object", "nul\0inside", "caf\u00e9", "\u20ac\u0416",
        "astral \U0001f600", "\ud800 lone"])
    def test_text_is_sized_as_its_modified_utf8(self, text):
        pool = cp.packed_pool([cp.A_UTF8, cp.A_STRING], [text, text], [], [])
        assert pool.byte_size() == 2 * (2 + len(cf.encode_mutf8(text)))


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


_TEXTS = ("p/A", "p/B", "x", "I", "()V")
_REF_KINDS = {cf.TAG_FIELDREF: cp.V_FIELDREF, cf.TAG_METHODREF: cp.V_METHODREF,
              cf.TAG_IFACEMETHODREF: cp.V_IFACEREF}


@st.composite
def _class_files(draw):
    """A valid raw class file whose pool holds every constant kind in a
    shuffled order, so references point both forward and back, with
    repeated Utf8 and String texts and repeated member refs."""
    texts = draw(st.lists(st.sampled_from(_TEXTS), min_size=1, max_size=6))
    utf8 = st.integers(0, len(texts) - 1)
    # (tag, value) with references given as positions in this list
    logical = [(cf.TAG_UTF8, t) for t in texts]
    for tag, values in ((cf.TAG_INTEGER, st.integers(-2**31, 2**31 - 1)),
                        (cf.TAG_FLOAT, st.integers(0, 2**32 - 1)),
                        (cf.TAG_LONG, st.integers(-2**63, 2**63 - 1)),
                        (cf.TAG_DOUBLE, st.integers(0, 2**64 - 1))):
        logical += [(tag, v) for v in draw(st.lists(values, max_size=2))]
    classes = range(len(logical), len(logical) + draw(st.integers(0, 3)))
    logical += [(cf.TAG_CLASS, draw(utf8)) for _ in classes]
    logical += [(cf.TAG_STRING, draw(utf8))
                for _ in range(draw(st.integers(0, 4)))]
    nats = range(len(logical), len(logical) + draw(st.integers(0, 3)))
    logical += [(cf.TAG_NAMEANDTYPE, (draw(utf8), draw(utf8))) for _ in nats]
    if classes and nats:
        logical += [(draw(st.sampled_from(sorted(_REF_KINDS))),
                     (draw(st.sampled_from(classes)),
                      draw(st.sampled_from(nats))))
                    for _ in range(draw(st.integers(0, 6)))]
    order = draw(st.permutations(range(len(logical))))
    at, idx = {}, 1
    for i in order:
        at[i] = idx
        idx += 2 if logical[i][0] in (cf.TAG_LONG, cf.TAG_DOUBLE) else 1

    def placed_value(tag, value):
        if tag in (cf.TAG_CLASS, cf.TAG_STRING):
            return at[value]
        if tag == cf.TAG_NAMEANDTYPE or tag in _REF_KINDS:
            return at[value[0]], at[value[1]]
        return value
    raw = raw_pool(*((logical[i][0], placed_value(*logical[i]))
                     for i in order))
    members = st.builds(lambda name, desc: cf.RawMember(0, 0, 0, [], name,
                                                        desc),
                        st.sampled_from(_TEXTS + ("absent",)),
                        st.sampled_from(_TEXTS))
    raw.fields = draw(st.lists(members, max_size=2))
    raw.methods = draw(st.lists(members, max_size=2))
    return raw


def _denotes(raw, idx):
    """What raw constant ``idx`` means, in ``resolve``'s terms."""
    tag, value = raw.pool_tags[idx], raw.pool_values[idx]
    if tag == cf.TAG_UTF8:
        return (cp.A_UTF8, value)
    if tag in (cf.TAG_INTEGER, cf.TAG_LONG):
        kind, bits = ((cp.V_INT, 32) if tag == cf.TAG_INTEGER
                      else (cp.V_LONG_HI, 64))
        return (kind, value & ((1 << bits) - 1))
    if tag in (cf.TAG_FLOAT, cf.TAG_DOUBLE):
        return (cp.V_FLOAT if tag == cf.TAG_FLOAT else cp.V_DBL_HI, value)
    if tag == cf.TAG_CLASS:
        return (cp.A_CLASS, raw.utf8(value))
    if tag == cf.TAG_STRING:
        return (cp.V_STRING, raw.utf8(value))
    if tag == cf.TAG_NAMEANDTYPE:
        return (cp.V_NAT, raw.utf8(value[0]), raw.utf8(value[1]))
    owner = raw.class_name(value[0])
    _, name, desc = _denotes(raw, value[1])
    return (_REF_KINDS[tag], owner, owner, name, desc)


@settings(max_examples=150, deadline=None)
@given(raw=_class_files())
def test_prelink_places_every_constant(raw):
    pool = prelinked(raw)
    constants = [i for i, tag in enumerate(raw.pool_tags)
                 if tag != cf.TAG_PLACEHOLDER]
    assert sorted(pool.origin) == constants
    for i in constants:
        assert resolve(pool, *pool.origin[i]) == _denotes(raw, i), i

    # equal literals share one atable entry
    literal_at = {}
    for kind, value in zip(pool.v_kind, pool.v_value):
        if kind == cp.V_STRING:
            assert literal_at.setdefault(pool.a_payload[value], value) == value
    assert pool.a_kind.count(cp.A_STRING) == len(literal_at)

    # equal member refs (one Class constant, one name, descriptor and kind)
    # share one handle, and no two handles are equal
    handle_at = {}
    for kind, value in zip(pool.v_kind, pool.v_value):
        if kind in _REF_KINDS.values():
            handle = value & 0xFFFF
            key = (value >> 16, pool.a_kind[handle]) \
                + resolve(pool, cp.ATABLE, handle)[2:]
            assert handle_at.setdefault(key, handle) == handle
    assert (pool.a_kind.count(cp.A_FIELD) + pool.a_kind.count(cp.A_METHOD)
            == len(handle_at))

    # nothing reads a NameAndType cell or a Utf8 once prelinking is done,
    # except reflection, which reads the names and descriptors of members
    member_texts = {t for m in raw.fields + raw.methods
                    for t in (m.name, m.descriptor)}
    assert list(pool.v_dead) == [k == cp.V_NAT for k in pool.v_kind]
    assert list(pool.a_dead) == [
        k == cp.A_UTF8 and text not in member_texts
        for k, text in zip(pool.a_kind, pool.a_payload)]
