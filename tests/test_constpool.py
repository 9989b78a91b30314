"""Two-table pool tests: building, prelinking, marking, packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrom import classfile as cf
from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import opcodes as ops
from jrom.errors import DanglingIndex, IndexOutOfRange, PoolOverflow
from jrom.lifecycle import Registry

from .conftest import prelinked, raw_pool, resolve


class TestBuildPool:
    def test_integer_goes_to_vtable(self):
        pool, _ = cp.build_pool(raw_pool((cf.TAG_INTEGER, 42)))
        assert pool.v_value == [42]
        assert pool.a_kind == []

    def test_long_spans_two_cells(self):
        value = 1 << 33
        pool, _ = cp.build_pool(raw_pool((cf.TAG_LONG, value)))
        assert len(pool.v_kind) == 2
        rebuilt = (pool.v_value[0] << 32) | pool.v_value[1]
        assert rebuilt == value

    def test_negative_long_bits(self):
        pool, _ = cp.build_pool(raw_pool((cf.TAG_LONG, -2)))
        rebuilt = (pool.v_value[0] << 32) | pool.v_value[1]
        assert rebuilt == (-2) & 0xFFFFFFFFFFFFFFFF

    def test_utf8_goes_to_atable(self):
        # only text that names one of the class's own members: reflection
        # marking can keep nothing else, and the passes read the raw pool
        raw = raw_pool((cf.TAG_UTF8, "hi"), (cf.TAG_UTF8, "lo"),
                       (cf.TAG_UTF8, "()V"))
        raw.methods = [cf.RawMember(0, 1, 3, [], "hi", "()V")]
        pool, placement = cp.build_pool(raw)
        assert list(zip(pool.a_kind, pool.a_payload)) == [
            (cp.A_UTF8, "hi"), (cp.A_UTF8, "()V")]
        assert placement == [None] * 4


class TestPass1:
    def test_class_constant_becomes_handle(self):
        raw = raw_pool((cf.TAG_UTF8, "java/lang/Object"), (cf.TAG_CLASS, 1))
        pool, _ = prelinked(raw)
        handles = [p for k, p in zip(pool.a_kind, pool.a_payload)
                   if k == cp.A_CLASS]
        assert len(handles) == 1
        assert handles[0].name == "java/lang/Object"
        # the Utf8 names no member, so only the handle is built
        assert pool.a_kind == [cp.A_CLASS]
        assert pool.entry_count() == 1

    def test_empty_pool_is_noop(self):
        raw = raw_pool()
        pool, placement = cp.build_pool(raw)
        cp.prelink_pass1(pool, placement, raw, Registry().resolve)
        assert pool.a_kind == [] and pool.v_kind == []

    def test_string_literals_interned(self):
        raw = raw_pool((cf.TAG_UTF8, "a"), (cf.TAG_STRING, 1),
                       (cf.TAG_STRING, 1))
        pool, placement = cp.build_pool(raw)
        cp.prelink_pass1(pool, placement, raw, Registry().resolve)
        # both String constants are placed at the one literal of their text
        assert placement[2] == placement[3] == 0
        assert list(zip(pool.a_kind, pool.a_payload)) == [(cp.A_STRING, "a")]
        assert pool.v_kind == []

    def test_nat_makes_no_cell(self):
        # pass 2 reads a NameAndType's name and descriptor from the raw pool
        raw = raw_pool((cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (1, 2)))
        pool, placement = prelinked(raw)
        assert pool.a_kind == [] and pool.v_kind == []
        assert placement == [None] * 4

    def test_dangling_nat_name(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_INTEGER, 3), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)))
        pool, placement = cp.build_pool(raw)
        cp.prelink_pass1(pool, placement, raw, Registry().resolve)
        with pytest.raises(DanglingIndex,
                           match="NameAndType 5 does not name two Utf8s"):
            cp.prelink_pass2(pool, placement, raw)

    def test_dangling_class_index(self):
        raw = raw_pool((cf.TAG_CLASS, 9))
        pool, placement = cp.build_pool(raw)
        with pytest.raises(DanglingIndex):
            cp.prelink_pass1(pool, placement, raw, Registry().resolve)


class TestPass2:
    def test_methodref_packs_class_and_handle(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)))
        pool, placement = prelinked(raw)
        # the ref is placed at its member handle, which holds the class
        # handle's class; the NameAndType fed the ref and left nothing
        class_aidx, member_aidx = placement[2], placement[6]
        assert pool.a_kind == [cp.A_CLASS, cp.A_METHOD]
        handle = pool.a_payload[member_aidx]
        assert handle.owner is pool.a_payload[class_aidx]
        assert handle.name == "f"
        assert handle.descriptor == "()V"
        assert not handle.is_field
        assert placement[5] is None and pool.v_kind == []

    def test_two_fieldrefs_share_one_handle(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "x"), (cf.TAG_UTF8, "I"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_FIELDREF, (2, 5)),
                       (cf.TAG_FIELDREF, (2, 5)))
        pool, placement = prelinked(raw)
        assert placement[6] == placement[7]
        assert pool.a_kind[placement[6]] == cp.A_FIELD
        assert pool.a_kind.count(cp.A_FIELD) == 1

    def test_no_refs_is_identity(self):
        raw = raw_pool((cf.TAG_INTEGER, 3))
        pool, placement = cp.build_pool(raw)
        cp.prelink_pass1(pool, placement, raw, Registry().resolve)
        before = list(zip(pool.v_kind, pool.v_value))
        cp.prelink_pass2(pool, placement, raw)
        assert list(zip(pool.v_kind, pool.v_value)) == before

    def test_entry_count_never_increases(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)),
                       (cf.TAG_UTF8, "x"), (cf.TAG_STRING, 7),
                       (cf.TAG_LONG, 99))
        pool, _ = prelinked(raw)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 0)
        packed, _, _ = cp.pack(pool, marks)
        assert pool.entry_count() >= packed.entry_count()


class TestByteSize:
    @pytest.mark.parametrize("text", [
        "", "java/lang/Object", "nul\0inside", "caf\u00e9", "\u20ac\u0416",
        "astral \U0001f600", "\ud800 lone"])
    def test_text_is_sized_as_its_modified_utf8(self, text):
        pool = cp.RuntimePool([cp.A_UTF8, cp.A_STRING], [text, text], [], [])
        assert pool.byte_size() == 2 * (2 + len(cf.encode_mutf8(text)))


class TestMark:
    def _pool(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)),
                       (cf.TAG_UTF8, "s"), (cf.TAG_STRING, 7))
        return prelinked(raw)

    def test_member_ref_marks_its_handle_alone(self):
        # a member instruction names the handle its ref was placed at:
        # keeping it keeps that handle, and not the class handle the
        # handle's owner came from
        pool, placement = self._pool()
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, cp.ATABLE, placement[6])
        assert [i for i, m in enumerate(marks[0]) if m] == [placement[6]]
        assert pool.a_kind[placement[6]] == cp.A_METHOD
        assert not marks[0][placement[2]] and not any(marks[1])

    def test_mark_idempotent(self):
        pool, _ = self._pool()
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "a", 0)
        snapshot = (bytes(marks[0]), bytes(marks[1]))
        cp.mark(pool, marks, "a", 0)
        assert marks == snapshot

    def test_string_marks_its_literal(self):
        # a quick ldc names the literal its String was placed at: keeping
        # it keeps the literal alone
        pool, placement = self._pool()
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, cp.ATABLE, placement[8])
        assert (pool.a_kind[placement[8]], pool.a_payload[placement[8]]) \
            == (cp.A_STRING, "s")
        assert [i for i, m in enumerate(marks[0]) if m] == [placement[8]]
        assert not any(marks[1])

    def test_out_of_range(self):
        pool, _ = self._pool()
        marks = cp.new_marks(pool)
        with pytest.raises(IndexOutOfRange):
            cp.mark(pool, marks, "v", 99)
        with pytest.raises(IndexOutOfRange):
            cp.mark(pool, marks, "a", -1)
        for table in ("vtable", "atable", "x"):
            with pytest.raises(IndexOutOfRange):
                cp.mark(pool, marks, table, 0)


class TestHolds:
    def test_kind_bounds_and_whole_reads(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)), (cf.TAG_LONG, 5))
        pool, _ = prelinked(raw)
        handle = pool.a_kind.index(cp.A_METHOD)
        hi = pool.v_kind.index(cp.V_LONG_HI)
        assert cp.holds(pool, "a", handle, cp.A_METHOD)
        assert cp.holds(pool, "v", hi, cp.V_LONG_HI)
        assert cp.holds(pool, "a", handle, None)
        assert not cp.holds(pool, "a", handle, cp.A_FIELD)
        assert not cp.holds(pool, "v", len(pool.v_kind), None)
        assert not cp.holds(pool, "a", len(pool.a_kind), cp.A_CLASS)
        # a long whose low cell is past the table
        del pool.v_kind[hi + 1:], pool.v_value[hi + 1:]
        assert not cp.holds(pool, "v", hi, cp.V_LONG_HI)


class TestPack:
    def test_sweep_and_remap(self):
        raw = raw_pool((cf.TAG_INTEGER, 10), (cf.TAG_INTEGER, 11),
                       (cf.TAG_INTEGER, 12), (cf.TAG_INTEGER, 13),
                       (cf.TAG_INTEGER, 14))
        pool, _ = prelinked(raw)
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
        pool, _ = prelinked(raw)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 0)
        cp.mark(pool, marks, "v", 1)
        _, _, v_remap = cp.pack(pool, marks)
        assert v_remap == {0: 0, 1: 1}

    def test_none_marked_empties_tables(self):
        raw = raw_pool((cf.TAG_INTEGER, 1), (cf.TAG_UTF8, "gone"))
        pool, _ = prelinked(raw)
        packed, _, _ = cp.pack(pool, cp.new_marks(pool))
        assert packed.a_kind == [] and packed.v_kind == []

    def test_long_pair_moves_together(self):
        raw = raw_pool((cf.TAG_INTEGER, 7), (cf.TAG_LONG, 1 << 40))
        pool, _ = prelinked(raw)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 1)    # the long's first cell
        packed, _, _ = cp.pack(pool, marks)
        assert packed.v_kind == [cp.V_LONG_HI, cp.V_LONG_LO]
        assert resolve(packed, "v", 0) == (cp.V_LONG_HI, 1 << 40)

    def test_stats_count_before_and_after(self):
        raw = raw_pool((cf.TAG_INTEGER, 1), (cf.TAG_INTEGER, 2),
                       (cf.TAG_UTF8, "z"), (cf.TAG_STRING, 3))
        pool, _ = prelinked(raw)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "v", 0)
        packed, _, _ = cp.pack(pool, marks)
        # before: two ints and the literal; the "z" Utf8 names no member
        # and the String is placed at its literal, so prelinking builds
        # neither.  No ldc loads the literal, so it is swept.
        assert pool.entry_count() == 3
        assert packed.entry_count() == 1    # the one marked int
        assert pool.byte_size() == 4 + 4 + (2 + 1)
        assert packed.byte_size() == 4

    def test_pool_left_as_it_was(self):
        raw = raw_pool((cf.TAG_UTF8, "A"), (cf.TAG_CLASS, 1),
                       (cf.TAG_UTF8, "f"), (cf.TAG_UTF8, "()V"),
                       (cf.TAG_NAMEANDTYPE, (3, 4)),
                       (cf.TAG_METHODREF, (2, 5)), (cf.TAG_INTEGER, 3))
        pool, _ = prelinked(raw)

        def tables(p):
            return (list(p.a_kind), list(p.a_payload), list(p.v_kind),
                    list(p.v_value))
        before = tables(pool)
        marks = cp.new_marks(pool)
        cp.mark(pool, marks, "a", pool.a_kind.index(cp.A_METHOD))
        packed, _, _ = cp.pack(pool, marks)
        assert packed is not pool and tables(pool) == before
        assert not hasattr(pool, "origin") and not hasattr(packed, "origin")
        assert len(packed.v_kind) < len(pool.v_kind)

    def test_atable_overflow_rejected(self):
        # a two-byte operand cannot name an atable index above 16 bits: a
        # Class constant at raw index 1 whose handle follows 70,000 literals
        constants = [(cf.TAG_CLASS, 2), (cf.TAG_UTF8, "A")]
        for i in range(70000):
            constants += [(cf.TAG_UTF8, "u%d" % i),
                          (cf.TAG_STRING, 2 * i + 3)]
        raw = raw_pool(*constants)
        pool, placement = prelinked(raw)
        assert placement[1] == 70000
        new = bytes([ops.BY_NAME["new"], 0, 1, ops.BY_NAME["areturn"]])
        m = lc.MethodRep(None, "m", "()V", 0, 0,
                         lc.MethodCode(bytearray(new), 1, 0, ()))
        with pytest.raises(PoolOverflow,
                           match="new index 70000 does not fit two bytes"):
            lc.rewrite_load(m, raw.pool_tags, placement, None)


@settings(max_examples=60, deadline=None)
@given(marks=st.lists(st.booleans(), min_size=5, max_size=5))
def test_pack_preserves_resolution_of_marked(marks):
    raw = raw_pool((cf.TAG_INTEGER, 100), (cf.TAG_INTEGER, 101),
                   (cf.TAG_UTF8, "a"), (cf.TAG_STRING, 3),
                   (cf.TAG_LONG, 1 << 35))
    pool, _ = prelinked(raw)
    pool_marks = cp.new_marks(pool)
    targets = []
    # every entry a link can keep: the ints, the long and the literal
    entries = [("v", i) for i, k in enumerate(pool.v_kind)
               if k in (cp.V_INT, cp.V_LONG_HI)] \
        + [("a", pool.a_kind.index(cp.A_STRING))]
    for should_mark, (space, idx) in zip(marks, entries):
        if should_mark:
            cp.mark(pool, pool_marks, space, idx)
            targets.append((space, idx, resolve(pool, space, idx)))
    packed, *remaps = cp.pack(pool, pool_marks)
    for space, old, value in targets:
        remap = remaps[space == "v"]
        assert resolve(packed, space, remap[old]) == value


_TEXTS = ("p/A", "p/B", "x", "I", "()V")
# member ref tag -> the kind of handle it is placed at
_REF_KINDS = {cf.TAG_FIELDREF: cp.A_FIELD, cf.TAG_METHODREF: cp.A_METHOD,
              cf.TAG_IFACEMETHODREF: cp.A_METHOD}


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
    """What raw constant ``idx`` places as, in ``resolve``'s terms, and in
    which table; None for a constant that places nothing."""
    tag, value = raw.pool_tags[idx], raw.pool_values[idx]
    if tag in (cf.TAG_UTF8, cf.TAG_NAMEANDTYPE):
        return None
    if tag in (cf.TAG_INTEGER, cf.TAG_LONG):
        kind, bits = ((cp.V_INT, 32) if tag == cf.TAG_INTEGER
                      else (cp.V_LONG_HI, 64))
        return cp.VTABLE, (kind, value & ((1 << bits) - 1))
    if tag in (cf.TAG_FLOAT, cf.TAG_DOUBLE):
        return cp.VTABLE, (cp.V_FLOAT if tag == cf.TAG_FLOAT
                           else cp.V_DBL_HI, value)
    if tag == cf.TAG_CLASS:
        return cp.ATABLE, (cp.A_CLASS, raw.utf8(value))
    if tag == cf.TAG_STRING:
        return cp.ATABLE, (cp.A_STRING, raw.utf8(value))
    owner = raw.class_name(value[0])
    name, desc = (raw.utf8(i) for i in raw.pool_values[value[1]])
    return cp.ATABLE, (_REF_KINDS[tag], owner, name, desc)


@settings(max_examples=150, deadline=None)
@given(raw=_class_files())
def test_prelink_places_every_constant(raw):
    pool, placement = prelinked(raw)
    assert len(placement) == len(raw.pool_tags)
    for i, tag in enumerate(raw.pool_tags):
        denoted = None if tag == cf.TAG_PLACEHOLDER else _denotes(raw, i)
        if denoted is None:
            assert placement[i] is None, i
        else:
            space, value = denoted
            assert resolve(pool, space, placement[i]) == value, i

    # the atable holds the literals, then the Utf8s that spell this
    # class's own member names and descriptors, in raw order (nothing
    # else reads text once prelinking is done, and reflection keeps only
    # those), then the class handles and the member handles; the vtable
    # holds immediates only, so no cell names the atable
    member_texts = {t for m in raw.fields + raw.methods
                    for t in (m.name, m.descriptor)}
    member_utf8 = [v for t, v in zip(raw.pool_tags, raw.pool_values)
                   if t == cf.TAG_UTF8 and v in member_texts]
    order = [cp.A_STRING, cp.A_UTF8, cp.A_CLASS, cp.A_FIELD]
    ranks = [order.index(cp.A_FIELD if k == cp.A_METHOD else k)
             for k in pool.a_kind]
    assert ranks == sorted(ranks)
    assert [p for k, p in zip(pool.a_kind, pool.a_payload)
            if k == cp.A_UTF8] == member_utf8
    assert set(pool.v_kind) <= {cp.V_INT, cp.V_FLOAT, cp.V_LONG_HI,
                                cp.V_LONG_LO, cp.V_DBL_HI, cp.V_DBL_LO}

    # equal literals share one atable entry, and every literal is placed
    literals = [placement[i] for i, t in enumerate(raw.pool_tags)
                if t == cf.TAG_STRING]
    assert len(set(literals)) == pool.a_kind.count(cp.A_STRING)
    assert len({pool.a_payload[a] for a in literals}) == len(set(literals))

    # equal member refs (one Class constant, one name, descriptor and kind)
    # share one handle, and no two handles are equal
    handle_at = {}
    for i, tag in enumerate(raw.pool_tags):
        if tag in _REF_KINDS:
            handle = placement[i]
            key = (raw.pool_values[i][0], pool.a_kind[handle]) \
                + resolve(pool, cp.ATABLE, handle)[2:]
            assert handle_at.setdefault(key, handle) == handle
    assert (pool.a_kind.count(cp.A_FIELD) + pool.a_kind.count(cp.A_METHOD)
            == len(handle_at))
