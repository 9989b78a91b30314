"""Linking: resolve external references, compact call sites, pack the pool.

Linking a class loads everything its pool mentions and resolves every
member handle to a real field or method.  Each method's loaded code is
then cloned, decoded once and walked once (link_method): per instruction,
the checks loading cannot make, the rewrite to a quick form where one
needs no pool entry, and the marking of the entry the final instruction
still names, into marks that live only while the class links.  The walk
records each kept pool operand, so after the pack, which copies the
marked entries into a new pool and leaves the loaded one as it was, the
relink rewrites those sites through the pack remaps without decoding
again.  All of this is built on the side: the class gets its linked code,
its packed pool and its resolved handles only once every step has
succeeded, so a link that fails leaves the class as loaded.  Loading
already rejected quick opcodes and checked every pool operand (parsing,
every catch type), so link does not.
"""

from dataclasses import dataclass, field

from . import constpool as cp
from . import lifecycle as lc
from . import opcodes as ops
from .errors import (ClassNotFound, InternalError, InvalidTransition,
                     NoSuchField, NoSuchMethod, VerifyError)

_OP = ops.BY_NAME
_MEMBER_REFS = (cp.V_FIELDREF, cp.V_METHODREF, cp.V_IFACEREF)


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
    """Bring a loaded class to state linked, or leave it as loaded."""
    if cls.state != lc.LOADED:
        raise InvalidTransition("%s is %s, cannot link" % (cls.name, cls.state))
    pool = cls.pool

    # prelinking places every Class constant before any member handle, so
    # each handle's owner is loaded by the time the handle resolves
    members = {}            # atable index of a member handle -> its member
    for aidx, (kind, entry) in enumerate(zip(pool.a_kind, pool.a_payload)):
        if kind == cp.A_CLASS:
            if entry.state == lc.UNLOADED:
                if ctx.loader is None:
                    raise ClassNotFound(entry.name)
                ctx.loader.ensure_loaded(entry.name)
        elif kind in (cp.A_FIELD, cp.A_METHOD):
            members[aidx] = _resolve(entry)

    marks = cp.new_marks(pool)
    linked = []             # (method, its linked code, its kept pool sites)
    for m in cls.methods:
        if m.code_loaded is not None:
            code = m.code_loaded.clone()
            linked.append((m, code, link_method(m, code, pool, members,
                                                marks, ctx)))
    mark_reflection(pool, marks, ctx)
    packed, *remaps = cp.pack(pool, marks)
    for m, code, sites in linked:
        relink_method(m, code, sites, remaps)

    for m, code, _ in linked:
        m.code = code
    for aidx, member in members.items():
        pool.a_payload[aidx].resolved = member
    cls.pool = packed
    cls.state = lc.LINKED


def _resolve(handle):
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
    return found


def link_method(m, code, pool, members, marks, ctx):
    """One pass over one decode of ``code``, a clone of the loaded code.

    Per instruction: the checks that loading cannot make (the branch
    targets fall on instructions, the local slot is below max_locals, a
    static instruction names a static member and an instance one an
    instance member, the pad byte of invokeinterface is zero); the rewrite
    to a quick form that needs no pool entry; the marking of the entry the
    final instruction still names.  Then every exception range must lie
    inside the code on instruction boundaries, and its catch type is
    marked.  Returns (offset, Operand, index) of every pool operand kept,
    for the relink.
    """
    bc = code.bytecode
    sizes = ops.instruction_sizes(bc)
    sites = []
    for off in sizes:
        for t in ops.branch_targets(bc, off):
            if t not in sizes:
                raise VerifyError("%s: branch from %d to non-boundary %d"
                                  % (m, off, t))
        local = ops.local_slot(bc, off)
        if local is not None:
            idx, width = local
            if idx + width > code.max_locals:
                raise VerifyError("%s: local %d out of range at %d" % (m, idx, off))
            continue
        found = ops.pool_operand(bc, off)
        if found is None:
            continue
        entry, idx = found
        if entry.want in _MEMBER_REFS:
            op = bc[off]
            member = members[pool.v_value[idx] & 0xFFFF]
            _check_member(m, bc, off, member, entry.want == cp.V_FIELDREF)
            _rewrite_member(m, bc, off, member, ctx)
            if bc[off] != op:           # a quick form names no pool entry
                continue
        cp.mark(pool, marks, entry.space, idx)
        sites.append((off, entry, idx))

    code_len = len(bc)
    for start, end, handler, catch in code.exception_table:
        if not (start < end <= code_len):
            raise VerifyError("%s: exception range [%d,%d) invalid" % (m, start, end))
        if start not in sizes or handler not in sizes:
            raise VerifyError("%s: exception boundary not on an instruction" % m)
        if end != code_len and end not in sizes:
            raise VerifyError("%s: exception range end %d not on an instruction"
                              % (m, end))
        if catch is not None:
            cp.mark(pool, marks, cp.ATABLE, catch)
    return sites


def _check_member(m, bc, off, member, is_field):
    op = bc[off]
    static_op = op in (_OP["getstatic"], _OP["putstatic"], _OP["invokestatic"])
    if is_field:
        if member.is_static != static_op:
            raise VerifyError("%s: static/instance mismatch for %s at %d"
                              % (m, member.name, off))
        return
    if static_op:
        if not member.is_static:
            raise VerifyError("%s: invokestatic on instance method at %d"
                              % (m, off))
    elif member.is_static:
        raise VerifyError("%s: instance call on static method at %d" % (m, off))
    if op == _OP["invokeinterface"] and bc[off + 4] != 0:
        raise VerifyError("%s: invokeinterface pad byte not zero at %d"
                          % (m, off))


def _rewrite_member(m, bc, off, member, ctx):
    """Rewrite a member site to a quick form that needs no pool entry.

    An invokevirtual site becomes invokevirtual_quick (argument slot count,
    dispatch table slot) when both fit a byte; a target with no dispatch
    slot (private or otherwise non-virtual) stays symbolic.  Static
    accesses become quick forms carrying (offset << 3) | type when the
    static is declared along the owning class's superclass chain: a 13-bit
    offset is resolved by walking that chain at run time, so an unrelated
    owner has to stay symbolic.  Under the closure flags, getfield/putfield
    over closed fields become offsets the same way.
    """
    op = bc[off]
    if op == _OP["invokevirtual"]:
        slot = member.dispatch_slot
        if slot is not None and slot < 256 and member.nargs < 256:
            bc[off:off + 3] = bytes((_OP["invokevirtual_quick"], member.nargs,
                                     slot))
        return
    if op in (_OP["getstatic"], _OP["putstatic"]):
        quick = any(k is member.owner for k in m.owner.hierarchy())
    elif op in (_OP["getfield"], _OP["putfield"]):
        quick = _field_rewritable(member, m.owner, ctx) \
            and member.offset <= lc.MAX_STATIC_OFFSET
    else:
        return
    if quick:
        bc[off] = _OP[ops.NAME[op] + "_quick"]
        ops.write_operand(bc, off, 2, (member.offset << 3) | member.type_code)


def _field_rewritable(f, cls, ctx):
    if ctx.closed_world:
        return True
    if not f.is_public and ctx.package_closed(_package_of(f.owner.name)):
        return True
    return ctx.private_field_opt and f.is_private and f.owner is cls


def mark_reflection(pool, marks, ctx):
    """Keep member name and descriptor text alive when introspection is on.

    Prelinking left live exactly the Utf8s that spell a name or descriptor
    of the class's own members; the first of each text is kept.
    """
    if not ctx.introspection:
        return
    a_marks = marks[0]
    seen = set()
    for aidx, (kind, text, dead) in enumerate(
            zip(pool.a_kind, pool.a_payload, pool.a_dead)):
        if kind == cp.A_UTF8 and not dead and text not in seen:
            seen.add(text)
            a_marks[aidx] = True


def relink_method(m, code, sites, remaps):
    """Rewrite each kept pool operand of ``code``, and each catch type, an
    index into the loaded pool, through the (atable, vtable) remaps of its
    pack."""
    bc = code.bytecode
    a_remap, v_remap = remaps

    def remap(space, idx, off):
        table = a_remap if space == cp.ATABLE else v_remap
        try:
            return table[idx]
        except KeyError:
            raise InternalError("%s: operand at %d references swept %s entry %d"
                                % (m, off, space, idx)) from None

    for off, entry, idx in sites:
        ops.write_operand(bc, off, entry.size, remap(entry.space, idx, off))
    code.exception_table = [
        (s, e, h, None if c is None else remap(cp.ATABLE, c, 0))
        for s, e, h, c in code.exception_table]
