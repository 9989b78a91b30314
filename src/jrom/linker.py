"""Linking: resolve external references, compact call sites, pack the pool.

Linking a class loads everything its pool mentions and resolves every
member handle to a real field or method.  Each method's loaded code is
then cloned and walked once over the pool sites of its shape
(link_method): per site, the checks that need resolution, the rewrite to
a quick form where one needs no pool entry, and the marking of the entry
the final instruction still names, into marks that live only while the
class links.  The walk records each kept pool operand, so after the pack,
which copies the marked entries into a new pool and leaves the loaded one
as it was, the relink rewrites those sites through the pack remaps
without decoding again.  Loading made each member instruction name its
member handle, so a kept one marks that handle alone: a class handle
survives only where a class operand or a catch type names it, and a
string literal only where a quick ldc loads it.  All of this is built on
the side: the class gets its linked code, its packed pool and its resolved
handles only once every step has succeeded, so a link that fails leaves
the class as loaded.
Loading already made the structural checks, with each body's shape,
rejected quick opcodes and checked every pool operand, so link does not.
"""

from dataclasses import dataclass, field

from . import constpool as cp
from . import lifecycle as lc
from . import opcodes as ops
from .errors import (ClassNotFound, InvalidTransition, NoSuchField,
                     NoSuchMethod, VerifyError)

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
    for _, code, sites in linked:
        relink_method(code, sites, remaps)

    for m, code, _ in linked:
        m.code = code
    for aidx, member in members.items():
        pool.a_payload[aidx].resolved = member
    cls.pool = packed
    cls.state = lc.LINKED


def _resolve(handle):
    found = handle.lookup()
    if found is not None:
        return found
    if handle.is_field:
        raise NoSuchField("%s.%s:%s" % (handle.owner.name, handle.name,
                                        handle.descriptor))
    raise NoSuchMethod("%s.%s%s" % (handle.owner.name, handle.name,
                                    handle.descriptor))


def link_method(m, code, pool, members, marks, ctx):
    """One pass over the pool sites of the shape of ``code``, a clone of
    the loaded code, which shares the loaded shape.

    Per site: the checks that need resolution (a static instruction
    names a static member and an instance one an instance member, the pad
    byte of invokeinterface is zero); the rewrite to a quick form that
    needs no pool entry; the marking of the entry the final instruction
    still names.  Then each catch type is marked.  Returns (offset,
    Operand, index) of every pool operand kept, for the relink.
    """
    bc = code.bytecode
    sites = []
    for off in code.shape_of(m).sites:
        found = ops.pool_operand(bc, off)
        if found is None:
            continue
        entry, idx = found
        if entry.want in (cp.A_FIELD, cp.A_METHOD):
            op = bc[off]
            member = members[idx]
            _check_member(m, bc, off, member, entry.want == cp.A_FIELD)
            _rewrite_member(m, bc, off, member, ctx)
            if bc[off] != op:           # a quick form names no pool entry
                continue
        cp.mark(pool, marks, entry.space, idx)
        sites.append((off, entry, idx))

    for *_, catch in code.exception_table:
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
        if slot is not None and slot < 256:    # nargs < 256 at load
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

    Prelinking put into the atable exactly the Utf8s that spell a name or
    descriptor of the class's own members; the first of each text is kept.
    """
    if not ctx.introspection:
        return
    a_marks = marks[0]
    seen = set()
    for aidx, (kind, text) in enumerate(zip(pool.a_kind, pool.a_payload)):
        if kind == cp.A_UTF8 and text not in seen:
            seen.add(text)
            a_marks[aidx] = True


def relink_method(code, sites, remaps):
    """Rewrite each kept pool operand of ``code``, and each catch type, an
    index into the loaded pool, through the (atable, vtable) remaps of its
    pack.  link_method marked every one, so each remap holds it."""
    bc = code.bytecode
    a_remap, v_remap = remaps
    for off, entry, idx in sites:
        table = a_remap if entry.space == cp.ATABLE else v_remap
        ops.write_operand(bc, off, entry.size, table[idx])
    code.exception_table = tuple((s, e, h, None if c is None else a_remap[c])
                                 for s, e, h, c in code.exception_table)
