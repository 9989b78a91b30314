"""Class lifecycle: unloaded -> loaded -> linked, plus the ready flag.

Loading parses the class file, builds and prelinks the runtime pool, lays
out fields, builds the dispatch table, walks each method body once into
its shape, which makes the body's structural checks and records the
instructions that name the pool, and at those rewrites every pool operand
to the table index where prelinking placed its constant (and the
constant-loading instructions to their quick forms).  A String operand
names its literal and a member ref operand its member handle.  The ready
flag is orthogonal: a class becomes ready once its statics are
initialized, which may happen while it is merely loaded.
"""

import os
from dataclasses import dataclass, field as dc_field

from . import classfile as cf
from . import constpool as cp
from . import descriptors as desc
from . import opcodes as ops
from .errors import (BadOpcode, BadPoolRef, ClassNotFound, ClassUnreadable,
                     HierarchyCycle, InvalidName, InvalidTransition,
                     JromError, NameMismatch, PoolOverflow, StaticOverflow,
                     UnsupportedClinit)

UNLOADED = "unloaded"
LOADED = "loaded"
LINKED = "linked"

_OP = ops.BY_NAME

MAX_STATIC_OFFSET = (1 << 13) - 1
# a new instance's field slots by type code; any other type starts at 0
_SLOT_DEFAULTS = {desc.TC_REF: (None,), desc.TC_FLOAT: (0.0,),
                  desc.TC_LONG: (0, None), desc.TC_DOUBLE: (0.0, None)}


@dataclass(slots=True)
class FieldRep:
    owner: object
    name: str
    descriptor: str
    access_flags: int
    is_static: bool
    type_code: int
    zone: str = None        # "a" or "v" when static
    offset: int = None      # hierarchy-wide slot offset (static or instance)
    constant_value: tuple = None

    @property
    def is_private(self):
        return bool(self.access_flags & cf.ACC_PRIVATE)

    @property
    def is_public(self):
        return bool(self.access_flags & cf.ACC_PUBLIC)

    @property
    def width(self):
        return desc.slot_width(self.descriptor)


@dataclass(slots=True)
class MethodCode:
    bytecode: bytearray
    max_stack: int
    max_locals: int
    exception_table: tuple  # (start, end, handler, atable catch or None)s
    stack_maps: bytes = None
    # the body's ops.Shape (shape_of), which a clone shares; whoever moves
    # or retargets an instruction sets it back to None
    shape: ops.Shape = dc_field(default=None, repr=False, compare=False)
    # verify's entry record of the body against one pool (verify.decoded),
    # sizes too; whoever rewrites the bytecode or sizes sets it to None
    decoded: tuple = dc_field(default=None, repr=False, compare=False)

    def shape_of(self, method, shared=None):
        """The body's shape, built once; a VerifyError names ``method``.
        A new shape equal to one in ``shared`` (a registry's
        ``shared_shapes``) is that one."""
        if self.shape is None:
            shape = ops.method_shape(self, method)
            self.shape = shape if shared is None \
                else shared.setdefault(shape, shape)
        return self.shape

    def clone(self):
        return MethodCode(bytearray(self.bytecode), self.max_stack,
                          self.max_locals, tuple(self.exception_table),
                          self.stack_maps, self.shape)


@dataclass(slots=True)
class MethodRep:
    owner: object
    name: str
    descriptor: str
    access_flags: int
    nargs: int
    code: MethodCode = None
    code_loaded: MethodCode = None
    dispatch_slot: int = None

    @property
    def key(self):
        return (self.name, self.descriptor)

    def code_at(self, stage):
        """The body run at a pipeline stage: as loaded, or as linked."""
        return self.code_loaded if stage == LOADED else self.code

    @property
    def is_static(self):
        return bool(self.access_flags & cf.ACC_STATIC)

    @property
    def is_private(self):
        return bool(self.access_flags & cf.ACC_PRIVATE)

    @property
    def is_virtual(self):
        return (not self.is_static and not self.is_private
                and self.name not in ("<init>", "<clinit>"))

    def __repr__(self):
        return "<method %s.%s%s>" % (self.owner.name if self.owner else "?",
                                     self.name, self.descriptor)


class ClassRep:
    """A class known to the registry, in any lifecycle state."""

    def __init__(self, name, synthetic=False):
        self.name = name
        self.state = UNLOADED if not synthetic else LOADED
        self.ready = synthetic
        self.synthetic = synthetic
        self.access_flags = 0
        self.super_cls = None
        self.interfaces = []
        self.pool = None
        self.fields = []
        self.methods = []
        self.method_keys = None     # declared_method's map, once built
        self.dispatch_table = []
        self.a_static_zone = []
        self.v_static_zone = []
        self.a_base = self.v_base = 0
        self.instance_base = self.instance_size = 0
        # (entries, pool bytes, class bytes) of the class file and of the
        # loaded class, recorded at load for the footprint report
        self.raw_stats = self.loaded_stats = None
        self.loaded_pool = None
        self.zones_initial = None
        self._defaults = None

    def __repr__(self):
        flag = "+ready" if self.ready else ""
        return "<class %s %s%s>" % (self.name, self.state, flag)

    @property
    def is_interface(self):
        return bool(self.access_flags & cf.ACC_INTERFACE)

    def declared_method(self, key):
        """This class's first method of a (name, descriptor) key, or None.
        The key map is built at the first lookup, since a class reloaded
        from an image may never need one; whoever replaces ``methods``
        after a lookup drops it, as ``lay_out_class`` does."""
        if self.method_keys is None:
            self.method_keys = {(m.name, m.descriptor): m
                                for m in reversed(self.methods)}
        return self.method_keys.get(key)

    def pool_at(self, stage):
        """The pool this class's methods run against at a stage: the loaded
        one, or the current one, which stays the loaded one until a link
        succeeds."""
        pool = self.loaded_pool if stage == LOADED else self.pool
        if pool is None:
            raise InvalidTransition("%s has no %s pool" % (self.name, stage))
        return pool

    def find_method(self, name, descriptor):
        """JVM-style resolution: the class, its supers, then interfaces."""
        key = (name, descriptor)
        k = self
        while k is not None:
            m = k.declared_method(key)
            if m is not None:
                return m
            k = k.super_cls
        seen = set()
        stack = []
        k = self
        while k is not None:
            stack.extend(k.interfaces)
            k = k.super_cls
        while stack:
            iface = stack.pop()
            if iface.name in seen:
                continue
            seen.add(iface.name)
            m = iface.declared_method(key)
            if m is not None:
                return m
            stack.extend(iface.interfaces)
        return None

    def find_field(self, name, descriptor):
        """Resolution order: own fields, then the superinterfaces depth
        first, then the superclass, each class searched once."""
        stack, seen = [self], set()
        while stack:
            k = stack.pop()
            if k is None or k.name in seen:
                continue
            seen.add(k.name)
            for f in k.fields:
                if f.name == name and f.descriptor == descriptor:
                    return f
            stack += [k.super_cls, *reversed(k.interfaces)]
        return None

    def hierarchy(self):
        k = self
        while k is not None:
            yield k
            k = k.super_cls

    def is_subclass_of(self, other):
        """Whether ``other`` is this class, a superclass or one of their
        superinterfaces, each interface searched once."""
        if other.name == "java/lang/Object":
            return True
        seen = set()
        for k in self.hierarchy():
            if k is other:
                return True
            stack = list(k.interfaces)
            while stack:
                iface = stack.pop()
                if iface is other:
                    return True
                if iface.name not in seen:
                    seen.add(iface.name)
                    stack.extend(iface.interfaces)
        return False

    def static_slot(self, zone, offset):
        """Map a hierarchy-wide static offset to (owning class, local index)."""
        for k in self.hierarchy():
            base = k.a_base if zone == "a" else k.v_base
            size = len(k.a_static_zone if zone == "a" else k.v_static_zone)
            if base <= offset < base + size:
                return k, offset - base
        raise BadPoolRef("static offset %d not in %s-zone of %s hierarchy"
                         % (offset, zone, self.name))

    def instance_defaults(self):
        if self._defaults is None:
            slots = [0] * self.instance_size
            for k in self.hierarchy():
                for f in k.fields:
                    if not f.is_static:
                        start = _SLOT_DEFAULTS.get(f.type_code, (0,))
                        slots[f.offset:f.offset + len(start)] = start
            self._defaults = slots
        return list(self._defaults)


class Registry:
    """Name -> ClassRep map; the single shared structure of a pipeline."""

    PRIMITIVES = ("int", "long", "float", "double",
                  "byte", "short", "char", "boolean")

    def __init__(self):
        self.classes = {}
        self.image_flags = None     # an image's link flags, set by load_image
        # equal steps and locals pads of verify.decoded, and equal
        # ops.Shapes of loading and decode, are each kept as one
        self.shared_steps = {}
        self.shared_shapes = {}
        for p in self.PRIMITIVES:
            self.classes[p] = ClassRep(p, synthetic=True)

    def new_unloaded(self, name):
        if not name:
            raise InvalidName("empty class name")
        cls = self.classes.get(name)
        if cls is None:
            if name.startswith("["):
                cls = self._make_array(name)
            else:
                cls = ClassRep(name)
            self.classes[name] = cls
        return cls

    # the resolver handed to prelinking and loading
    def resolve(self, name):
        return self.new_unloaded(name)

    def get(self, name):
        return self.classes.get(name)

    def _make_array(self, name):
        cls = ClassRep(name, synthetic=True)
        cls.super_cls = self.new_unloaded("java/lang/Object")
        return cls

    def loadable(self):
        return [c for c in self.classes.values() if not c.synthetic]


class Classpath:
    """Ordered directories searched for <binary-name>.class files."""

    def __init__(self, paths):
        self.paths = list(paths)

    def find(self, name):
        """The bytes of the first ``name``.class on the path, or None."""
        rel = name.replace("/", os.sep) + ".class"
        for p in self.paths:
            full = os.path.join(p, rel)
            try:
                with open(full, "rb") as fh:
                    return fh.read()
            except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
                continue
            except OSError as e:
                raise ClassUnreadable("cannot read class %s from %s: %s"
                                      % (name, full, e.strerror or e))
        return None


class Loader:
    """Loads classes from a classpath, superclasses first."""

    def __init__(self, classpath, registry):
        self.classpath = classpath
        self.registry = registry
        self.failed = {}    # name -> the error its load raised, raised again

    def ensure_loaded(self, name):
        """Load a class, its superclasses first: walk up their names,
        parsing each class, to one that is loaded, then load back down.  A
        class the walk leaves unloaded records the error that stopped it."""
        first = cls = self.registry.new_unloaded(name)
        path, parsed = {}, []   # the walk from ``name`` up: name -> class
        try:
            while cls.state == UNLOADED:
                if name in self.failed:
                    raise self.failed[name]
                if name in path:
                    raise HierarchyCycle(" -> ".join([*path, name]))
                path[name] = cls
                data = self.classpath.find(name)
                if data is None:
                    raise ClassNotFound(name)
                raw = cf.parse_class(data)
                if raw.name != name:
                    raise NameMismatch("file declares %s, expected %s"
                                       % (raw.name, name))
                parsed.append((cls, raw, data))
                if raw.super_name is None:
                    break
                name = raw.super_name
                cls = self.registry.new_unloaded(name)
            for cls, raw, data in reversed(parsed):
                load_parsed(cls, raw, data, self.registry.resolve,
                            self.registry.shared_shapes)
        except JromError as e:
            self.failed.update((n, e) for n, c in path.items()
                               if c.state == UNLOADED)
            raise
        return first


def load(cls, data, resolver):
    """Bring an unloaded class to state loaded from raw .class bytes.

    The superclass must already be loaded (a Loader arranges that); the
    resolver provides handles for every other referenced class, created in
    state unloaded when unseen.
    """
    if cls.state != UNLOADED:
        raise InvalidTransition("%s is %s, cannot load" % (cls.name, cls.state))
    raw = cf.parse_class(data)
    if raw.name != cls.name:
        raise NameMismatch("file declares %s, expected %s" % (raw.name, cls.name))
    load_parsed(cls, raw, data, resolver)


def load_parsed(cls, raw, data, resolver, shapes=None):
    # raw pool index -> table index: read only while the class loads
    pool, placement = cp.build_pool(raw)
    cp.prelink_pass1(pool, placement, raw, resolver)
    cp.prelink_pass2(pool, placement, raw)

    if raw.super_name is not None:
        sup = resolver(raw.super_name)
        if sup.synthetic:
            raise InvalidName("superclass %s of %s is not a class"
                              % (raw.super_name, cls.name))
        if sup.state == UNLOADED:
            raise ClassNotFound("superclass %s of %s is not loaded"
                                % (raw.super_name, cls.name))
        cls.super_cls = sup
    cls.access_flags = raw.access_flags
    cls.interfaces = [resolver(raw.class_name(i)) for i in raw.interfaces]

    cls.pool = pool
    lay_out_class(
        cls,
        # a non-static field's ConstantValue is ignored (JVMS 4.7.2)
        ((fm.name, fm.descriptor, fm.access_flags,
          cf.constant_value_of(raw, fm) if fm.access_flags & cf.ACC_STATIC
          else None) for fm in raw.fields),
        ((mm.name, mm.descriptor, mm.access_flags, _raw_code(mm, placement))
         for mm in raw.methods))
    for m in cls.methods:
        if m.code is not None:
            rewrite_load(m, raw.pool_tags, placement, shapes)
        m.code_loaded = m.code
    cls.state = LOADED
    cls.loaded_pool = pool
    cls.raw_stats = (cf.pool_entry_count(raw),
                     raw.pool_end - raw.pool_entries_start, len(data))
    cls.loaded_stats = footprint(cls, LOADED)


def footprint(cls, stage):
    """(entries, pool bytes, class bytes) of ``cls`` at a stage, as the
    footprint report models them (romizer.SIZING_MODEL)."""
    pool = cls.pool_at(stage)
    pool_bytes = pool.byte_size()
    codes = [m.code_at(stage) for m in cls.methods]
    return pool.entry_count(), pool_bytes, pool_bytes + sum(
        len(c.bytecode) + 8 * len(c.exception_table) + len(c.stack_maps or b"")
        for c in codes if c is not None) + 8 * (len(cls.fields) + len(codes))


def _raw_code(raw_method, placement):
    """The method's code as the class file gives it, but for its catch
    types, which are table indexes, or None."""
    code_attr = raw_method.attr("Code")
    if code_attr is None:
        return None
    raw_code = code_attr.code
    # parse_class checked that each catch type names a Class constant, and
    # prelinking placed every one in the atable
    table = tuple((start, end, handler, placement[catch] if catch else None)
                  for start, end, handler, catch in raw_code.exception_table)
    stack_maps = None
    for a in raw_code.attributes:
        if a.retained:
            stack_maps = a.payload
            break
    return MethodCode(bytearray(raw_code.code), raw_code.max_stack,
                      raw_code.max_locals, table, stack_maps)


def lay_out_class(cls, fields, methods):
    """Field offsets, static zones, methods and dispatch table of a class.

    Shared by class-file and image loading.  ``fields`` yields (name,
    descriptor, access flags, ConstantValue) and ``methods`` (name,
    descriptor, access flags, code) tuples; the superclass, if any, must
    already be laid out.
    """
    sup = cls.super_cls
    if sup is not None:
        cls.a_base = sup.a_base + len(sup.a_static_zone)
        cls.v_base = sup.v_base + len(sup.v_static_zone)
        cls.instance_base = sup.instance_size
    cls.fields = []
    instance_offset = cls.instance_base
    for name, descriptor, flags, constant in fields:
        f = FieldRep(cls, name, descriptor, flags, bool(flags & cf.ACC_STATIC),
                     desc.type_code(descriptor), constant_value=constant)
        if not f.is_static:
            f.offset = instance_offset
            instance_offset += f.width
        cls.fields.append(f)
    cls.instance_size = instance_offset
    lay_out_statics(cls)
    cls.methods = [
        MethodRep(cls, name, descriptor, flags,
                  desc.arg_slots(descriptor,
                                 include_receiver=not flags & cf.ACC_STATIC),
                  code=code)
        for name, descriptor, flags, code in methods]
    cls.method_keys = None      # a lookup while unloaded built an empty one
    build_dispatch_table(cls)


def lay_out_statics(cls):
    """Assign zone slots to static fields, continuing the superclass layout.

    Reference statics take consecutive a-zone slots, primitives v-zone
    slots (two for long/double).  Offsets are hierarchy-wide so a 13-bit
    offset names a slot unambiguously along one superclass chain.
    """
    next_a = cls.a_base
    next_v = cls.v_base
    for f in cls.fields:
        if not f.is_static:
            continue
        if f.type_code == desc.TC_REF:
            f.zone = "a"
            f.offset = next_a
            next_a += 1
        else:
            f.zone = "v"
            f.offset = next_v
            next_v += f.width
        if f.offset > MAX_STATIC_OFFSET:
            raise StaticOverflow("static %s.%s needs offset %d"
                                 % (cls.name, f.name, f.offset))
    cls.a_static_zone = [None] * (next_a - cls.a_base)
    cls.v_static_zone = [0] * (next_v - cls.v_base)


_LDC_QUICK = {cf.TAG_INTEGER: "ldc_quick_i", cf.TAG_FLOAT: "ldc_quick_f",
              cf.TAG_STRING: "ldc_quick_a"}
# symbolic opcode -> (fault message, {tag of the raw constant named: quick
# form}); the quick form of ldc_w is the wide one
_LOAD_QUICK = {
    _OP["ldc"]: ("ldc operand %d is not an int/float/string", _LDC_QUICK),
    _OP["ldc_w"]: ("ldc operand %d is not an int/float/string",
                   {k: v + "_w" for k, v in _LDC_QUICK.items()}),
    _OP["ldc2_w"]: ("ldc2_w operand %d is not a long/double",
                    {cf.TAG_LONG: "ldc2_quick_l",
                     cf.TAG_DOUBLE: "ldc2_quick_d"}),
    _OP["anewarray"]: ("anewarray operand %d is not a class constant",
                       {cf.TAG_CLASS: "anewarray_quick"}),
}
# the same for every instruction whose operand a class file gives as a raw
# pool index: the others keep their opcode, and a member instruction checks
# the kind of its member ref
_LOAD = dict(_LOAD_QUICK)
for _names, _tag, _what in (
        ("new checkcast instanceof multianewarray", cf.TAG_CLASS, "a class"),
        ("getstatic putstatic getfield putfield", cf.TAG_FIELDREF,
         "a field ref"),
        ("invokevirtual invokespecial invokestatic", cf.TAG_METHODREF,
         "a method ref"),
        ("invokeinterface", cf.TAG_IFACEMETHODREF, "an interface method ref")):
    for _name in _names.split():
        _LOAD[_OP[_name]] = ("%s operand %%d is not %s constant"
                             % (_name, _what), {_tag: _name})


def rewrite_load(m, tags, placement, shapes):
    """Build (and check) the shape of ``m``'s code, kept as one of
    ``shapes`` where equal (``MethodCode.shape_of``), and at each of its
    pool sites rewrite the raw pool operand in place to the table index
    ``placement`` gives its constant, whose tag ``tags`` holds, and each
    constant load to its quick form.

    The one check of a class file's pool operands: an operand that does not
    name a constant of a tag its instruction takes raises BadPoolRef, and a
    quick opcode, which only jrom writes and the shape counts among its
    sites, raises BadOpcode at any instruction start.  Every replacement
    keeps the instruction's byte length, so the shape holds.
    """
    bc = m.code.bytecode
    for off in m.code.shape_of(m, shapes).sites:
        op = bc[off]
        rule = _LOAD.get(op)
        if rule is None:
            if op >= ops.FIRST_QUICK:
                raise BadOpcode("reserved opcode 0x%02x at offset %d"
                                % (op, off))
            continue
        fault, forms = rule
        size = ops.OPERANDS[op].size    # every form keeps it
        raw_idx = ops.read_operand(bc, off, size)
        tag = tags[raw_idx] if raw_idx < len(tags) else cf.TAG_PLACEHOLDER
        name = forms.get(tag)
        if name is None:
            if tag == cf.TAG_PLACEHOLDER:
                raise BadPoolRef("operand %d at offset %d is not a pool "
                                 "constant" % (raw_idx, off))
            raise BadPoolRef("%s at offset %d" % (fault % raw_idx, off))
        idx = placement[raw_idx]
        if idx >> (8 * size):
            raise PoolOverflow("%s index %d does not fit %s" % (
                name, idx, "one byte" if size == 1 else "two bytes"))
        bc[off] = _OP[name]
        ops.write_operand(bc, off, size, idx)


def build_dispatch_table(cls):
    """Superclass table as a prefix, overrides in place, new methods appended."""
    table = list(cls.super_cls.dispatch_table) if cls.super_cls else []
    for m in cls.methods:
        if not m.is_virtual:
            continue
        for i, existing in enumerate(table):
            if existing.name == m.name and existing.descriptor == m.descriptor:
                table[i] = m
                m.dispatch_slot = i
                break
        else:
            table.append(m)
            m.dispatch_slot = len(table) - 1
    cls.dispatch_table = table


def make_ready(cls, interp):
    """Initialize static fields; ready stays false if <clinit> is unsupported.

    ConstantValue attributes are written first, then <clinit> runs under
    the supplied interpreter callback: interp(cls, method) must execute
    against the live zones and raise UnsupportedClinit on any opcode or
    effect it cannot honor.
    """
    if cls.ready:
        return
    if cls.state not in (LOADED, LINKED):
        raise InvalidTransition("%s is %s, cannot become ready"
                                % (cls.name, cls.state))
    for f in cls.fields:
        if not f.is_static or f.constant_value is None:
            continue
        kind, value = f.constant_value
        owner, local = cls.static_slot(f.zone, f.offset)
        # parse_class matched kind and type; a float's value is its bits
        if kind == "s":
            owner.a_static_zone[local] = ("str", value)
        elif kind in "jd":
            owner.v_static_zone[local:local + 2] = divmod(
                value & 0xFFFFFFFFFFFFFFFF, 1 << 32)
        else:
            owner.v_static_zone[local] = value & 0xFFFFFFFF
    cls.zones_initial = (list(cls.a_static_zone), list(cls.v_static_zone))

    clinit = next((m for m in cls.methods
                   if m.name == "<clinit>" and m.code is not None), None)
    if clinit is not None:
        try:
            interp(cls, clinit)
        except UnsupportedClinit:
            cls.a_static_zone = list(cls.zones_initial[0])
            cls.v_static_zone = list(cls.zones_initial[1])
            raise
    cls.ready = True
