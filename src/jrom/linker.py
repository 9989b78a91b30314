"""Linking: resolve external references, compact call sites, pack the pool.

Linking a class loads everything its pool mentions and unifies symbolic
member handles with real field/method objects.  Each method's code is then
decoded once (quick rewrites never change instruction sizes, so every pass
shares that decode) and goes through, in order: the structural checks; the
rewrites to quick forms that need no pool entry (invokevirtual compaction,
static encoding, closed-field rewriting); one marking of what the final code
still references, into marks that live only while the class links; the
pack, which leaves the loaded pool as it was and makes the linked pool
new; and the relink of every surviving operand through the pack remaps.
"""

from dataclasses import dataclass, field

from . import constpool as cp
from . import lifecycle as lc
from . import opcodes as ops
from .errors import (BadOpcode, ClassNotFound, InternalError, InvalidTransition,
                     NoSuchField, NoSuchMethod, Truncated, VerifyError)

_OP = ops.BY_NAME


@dataclass
class LinkContext:
    registry: object
    loader: object = None               # used to load referenced classes
    introspection: bool = True
    private_field_opt: bool = False
    closed_packages: set = field(default_factory=set)
    closed_world: bool = False

    def package_closed(self, package):
        return self.closed_world or package in self.closed_packages


def _package_of(name):
    return name.rsplit("/", 1)[0] if "/" in name else ""


def link(cls, ctx):
    """Bring a loaded class to state linked."""
    if cls.state != lc.LOADED:
        raise InvalidTransition("%s is %s, cannot link" % (cls.name, cls.state))
    pool = cls.pool

    for kind, ref in zip(pool.a_kind, pool.a_payload):
        if kind != cp.A_CLASS:
            continue
        if ref.state == lc.UNLOADED:
            if ctx.loader is None:
                raise ClassNotFound(ref.name)
            ctx.loader.ensure_loaded(ref.name)

    for kind, handle in zip(pool.a_kind, pool.a_payload):
        if kind not in (cp.A_FIELD, cp.A_METHOD):
            continue
        if handle.resolved is not None:
            continue
        if handle.is_field:
            found = handle.owner.find_field(handle.name, handle.descriptor)
            if found is None:
                raise NoSuchField("%s.%s:%s" % (handle.owner.name, handle.name,
                                                handle.descriptor))
        else:
            found = handle.owner.find_method(handle.name, handle.descriptor)
            if found is None:
                raise NoSuchMethod("%s.%s%s" % (handle.owner.name, handle.name,
                                                handle.descriptor))
        handle.resolved = found

    decoded = []
    for m in cls.methods:
        if m.code is not None:
            m.code = m.code_loaded.clone()
            sizes = _decode(m)
            check_method(m, pool, sizes)
            decoded.append((m, sizes))
    for m, sizes in decoded:
        rewrite_method(m, pool, sizes, ctx)
    marks = cp.new_marks(pool)
    for m, sizes in decoded:
        mark_method(m, pool, marks, sizes)
    mark_reflection(pool, marks, cls, ctx)
    cls.pool, *remaps = cp.pack(pool, marks)
    for m, sizes in decoded:
        relink_method(m, pool, remaps, sizes)
    cls.state = lc.LINKED


def _decode(m):
    """offset -> size of every instruction of the method's code.

    The result lives only while the class links: a decode cached on every
    linked method would stay in memory for the rest of the run.
    """
    try:
        return ops.instruction_sizes(m.code.bytecode)
    except (BadOpcode, Truncated) as e:
        raise VerifyError("%s: %s" % (m, e)) from None


def _member_at(pool, bc, off):
    """The resolved field or method a member-ref instruction names."""
    entry, raw_idx = ops.pool_operand(bc, off)
    placed = pool.origin.get(raw_idx)
    if placed is None or placed[0] != cp.VTABLE:
        raise VerifyError("operand %d at %d is not a pool constant" % (raw_idx, off))
    vidx = placed[1]
    if pool.v_kind[vidx] != entry.want:
        raise VerifyError("operand %d at %d holds %s, expected %s"
                          % (raw_idx, off, pool.v_kind[vidx], entry.want))
    return pool.a_payload[pool.v_value[vidx] & 0xFFFF].resolved


def check_method(m, pool, sizes):
    """Structural and resolution checks of one decoded method."""
    bc = m.code.bytecode
    for off in sizes:
        for t in ops.branch_targets(bc, off):
            if t not in sizes:
                raise VerifyError("%s: branch from %d to non-boundary %d"
                                  % (m, off, t))
        local = ops.local_slot(bc, off)
        if local is not None:
            idx, width = local
            if idx + width > m.code.max_locals:
                raise VerifyError("%s: local %d out of range at %d" % (m, idx, off))
            continue
        found = ops.pool_operand(bc, off)
        if found is None:
            continue
        entry, idx = found
        if entry.kind == ops.QUICK:
            if not cp.holds(pool, entry.space, idx, entry.want):
                raise VerifyError("%s: quick operand %d bad at %d" % (m, idx, off))
        elif entry.want is None:
            raise VerifyError("%s: raw constant load survived loading at %d"
                              % (m, off))
        elif entry.space == cp.ATABLE:
            placed = pool.origin.get(idx)
            if placed is None or placed[0] != cp.ATABLE \
                    or pool.a_kind[placed[1]] != cp.A_CLASS:
                raise VerifyError("%s: operand %d at %d is not a class constant"
                                  % (m, idx, off))
        else:
            _check_member(m, bc, off, _member_at(pool, bc, off),
                          entry.want == cp.V_FIELDREF)

    code_len = len(bc)
    for start, end, handler, catch in m.code.exception_table:
        if not (start < end <= code_len):
            raise VerifyError("%s: exception range [%d,%d) invalid" % (m, start, end))
        if start not in sizes or handler not in sizes:
            raise VerifyError("%s: exception boundary not on an instruction" % m)
        if end != code_len and end not in sizes:
            raise VerifyError("%s: exception range end %d not on an instruction"
                              % (m, end))
        if catch is not None and not cp.holds(pool, cp.ATABLE, catch,
                                              cp.A_CLASS):
            raise VerifyError("%s: catch type %s is not a class entry" % (m, catch))


def _check_member(m, bc, off, member, is_field):
    op = bc[off]
    static_op = op in (_OP["getstatic"], _OP["putstatic"], _OP["invokestatic"])
    if is_field:
        if member is None:
            raise VerifyError("%s: unresolved field at %d" % (m, off))
        if member.is_static != static_op:
            raise VerifyError("%s: static/instance mismatch for %s at %d"
                              % (m, member.name, off))
        return
    if member is None:
        raise VerifyError("%s: unresolved call at %d" % (m, off))
    if static_op:
        if not member.is_static:
            raise VerifyError("%s: invokestatic on instance method at %d"
                              % (m, off))
    elif member.is_static:
        raise VerifyError("%s: instance call on static method at %d" % (m, off))
    if op == _OP["invokeinterface"] and bc[off + 4] != 0:
        raise VerifyError("%s: invokeinterface pad byte not zero at %d"
                          % (m, off))


def rewrite_method(m, pool, sizes, ctx):
    """Rewrite the sites whose final form needs no pool entry.

    invokevirtual sites are compacted where the encoding fits.  Static
    accesses become quick forms carrying (offset << 3) | type when the
    static is declared along the owning class's superclass chain: a 13-bit
    offset is resolved by walking that chain at run time, so an unrelated
    owner has to stay symbolic.  Under the closure flags, getfield/putfield
    over closed fields become offsets the same way.
    """
    bc = m.code.bytecode
    fields_closed = ctx.private_field_opt or ctx.closed_world or ctx.closed_packages
    for off in sizes:
        op = bc[off]
        if op == _OP["invokevirtual"]:
            compact_invokevirtual(bc, off, _member_at(pool, bc, off))
        elif op in (_OP["getstatic"], _OP["putstatic"]):
            f = _member_at(pool, bc, off)
            if any(k is f.owner for k in m.owner.hierarchy()):
                _encode_field(bc, off, f)
        elif op in (_OP["getfield"], _OP["putfield"]) and fields_closed:
            f = _member_at(pool, bc, off)
            if _field_rewritable(f, m.owner, ctx) \
                    and f.offset <= lc.MAX_STATIC_OFFSET:
                _encode_field(bc, off, f)


def compact_invokevirtual(bc, off, target):
    """Rewrite one invokevirtual site when both bytes fit.

    The 16-bit pool operand becomes (argument slot count, dispatch table
    slot).  Sites whose target has no dispatch slot (private or otherwise
    non-virtual) are left alone.
    """
    if target.dispatch_slot is not None and target.nargs < 256 \
            and target.dispatch_slot < 256:
        bc[off] = _OP["invokevirtual_quick"]
        bc[off + 1] = target.nargs
        bc[off + 2] = target.dispatch_slot


def _encode_field(bc, off, f):
    """get/put static or field -> its quick form carrying (offset << 3) | type."""
    bc[off] = _OP[ops.NAME[bc[off]] + "_quick"]
    ops.write_operand(bc, off, 2, (f.offset << 3) | f.type_code)


def _field_rewritable(f, cls, ctx):
    if ctx.closed_world:
        return True
    if not f.is_public and ctx.package_closed(_package_of(f.owner.name)):
        return True
    return ctx.private_field_opt and f.is_private and f.owner is cls


def _pool_entries(pool, bc, sizes):
    """(offset, Operand, table index) of every pool operand of the code."""
    for off in sizes:
        found = ops.pool_operand(bc, off)
        if found is not None:
            entry, idx = found
            if entry.kind == ops.POOL:
                idx = pool.origin[idx][1]
            yield off, entry, idx


def mark_method(m, pool, marks, sizes):
    """Mark every entry the method's final code still references."""
    for _, entry, idx in _pool_entries(pool, m.code.bytecode, sizes):
        cp.mark(pool, marks, entry.space, idx)
    for _, _, _, catch in m.code.exception_table:
        if catch is not None:
            cp.mark(pool, marks, cp.ATABLE, catch)


def mark_reflection(pool, marks, cls, ctx):
    """Keep member name and descriptor text alive when introspection is on."""
    if not ctx.introspection:
        return
    for member in cls.fields + cls.methods:
        for text in (member.name, member.descriptor):
            aidx = pool.utf8_aindex(text)
            if aidx is not None:
                cp.mark(pool, marks, cp.ATABLE, aidx)


def relink_method(m, pool, remaps, sizes):
    """Rewrite every operand naming an entry of the loaded ``pool`` through
    the (atable, vtable) remaps of its pack."""
    bc = m.code.bytecode
    a_remap, v_remap = remaps

    def remap(space, idx, off):
        table = a_remap if space == cp.ATABLE else v_remap
        try:
            return table[idx]
        except KeyError:
            raise InternalError("%s: operand at %d references swept %s entry %d"
                                % (m, off, space, idx)) from None

    for off, entry, idx in _pool_entries(pool, bc, sizes):
        ops.write_operand(bc, off, entry.size, remap(entry.space, idx, off))
    m.code.exception_table = [
        (s, e, h, None if c is None else remap(cp.ATABLE, c, 0))
        for s, e, h, c in m.code.exception_table]
