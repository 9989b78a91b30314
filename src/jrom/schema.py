"""A declarative language for binary records, compiled to Python.

A format is declared once, as Records of fields and parts in order.  A
field is one fixed-size value; its type gives the lines that check and
convert it as it is read, and those that convert it as it is written.  A
part (array, option, union, blob) is a fixed-size head, a count, flag, kind
code or length, then what the head says follows.  The first read of a
top-level record compiles its reader, and the first write its writer: each
one straight-line function, with every nested part inlined.  An array is a
for loop, an option an if, a union an if/elif on its kind and a blob one
slice.  The fields between two parts, with the head of the second, are one
struct.  The position is a local, stored back into the cursor once per
record.
"""

import struct
from collections import namedtuple
from functools import partial

from . import errors

# the errors that check lines may raise by name
_ERRORS = {n: e for n, e in vars(errors).items() if isinstance(e, type)}


class Widen(Exception):
    """Raised by a dump line for a value its field is too narrow to hold;
    the argument names what the writer must widen before writing again."""


# A format's settings: its byte order (a struct prefix), truncated(what,
# at), the error of an input that ends inside ``what`` at offset ``at``, and
# the lines that load the cursor attributes its checks, and dumps, use.
Schema = namedtuple("Schema", "order truncated reads writes", defaults=("",))


def _short(schema, cur, pos, fields):
    """Raise for a run the input ends inside, as reading its fields one by
    one would: check those that fit, then name the first that does not."""
    for f in fields:
        end = pos + f.size
        if end > len(cur.data):
            raise schema.truncated(f.what, pos)
        f.load(schema, cur, struct.unpack_from(
            schema.order + f.fmt, cur.data, pos)[0], end)
        pos = end


class _Source:
    """The lines of generated functions, and the objects their code names;
    ``kind`` is the local that holds the kind of the union whose bodies
    are being compiled."""

    def __init__(self, schema):
        self.schema, self.lines, self.count, self.kind = schema, [], 0, None
        self.env, self.names = dict(_ERRORS, Widen=Widen,
                                    short=partial(_short, schema),
                                    truncated=schema.truncated), {}

    def name(self, obj):
        """A global of the generated code that holds ``obj``."""
        if id(obj) not in self.names:
            self.names[id(obj)] = "k%d" % len(self.names)
            self.env[self.names[id(obj)]] = obj
        return self.names[id(obj)]

    def var(self):
        """A fresh local."""
        self.count += 1
        return "v%d" % self.count

    def add(self, depth, *lines):
        self.lines += ["    " * depth + line for line in lines]

    def layout(self, fields):
        return self.name(struct.Struct(
            self.schema.order + "".join(f.fmt for f in fields)))

    def compile(self):
        exec(compile("\n".join(self.lines), "<schema record>", "exec"),
             self.env)
        return self.env


class Field:
    """A fixed-size value: its struct code and the name a short input
    reports.  ``check`` holds the lines that check and convert the value
    as it is read, ``dump`` those that convert it as it is written, and
    may raise Widen for a value too large for ``fmt``; in them {v} is the
    local that holds the value, {at} the offset just past it and {f} the
    field."""
    check = dump = ()

    def __init__(self, fmt, what):
        self.fmt, self.what, self.head = fmt, what, self
        self.size = struct.calcsize("<" + fmt)

    def expand(self, src, lines, v, at=None):
        """``check`` or ``dump`` as source lines for the value in ``v``."""
        return [line.format(v=v, at=at, f=src.name(self)) for line in lines]

    def load(self, schema, cur, value, at):
        """``check`` as a function, compiled at its first call: for a run
        the input ends inside, and for ids read ahead of their strings."""
        src = _Source(schema)
        src.add(0, "def load(schema, cur, v, at):")
        src.add(1, schema.reads,
                *self.expand(src, self.check, "v", "at"), "return v")
        self.load = src.compile()["load"]
        return self.load(schema, cur, value, at)


U8, U16, U32, U64 = (partial(Field, fmt) for fmt in "BHIQ")


class Expect(Field):
    """A value the input must hold, or ``error(value)`` is raised."""
    check = ("if {v} != {f}.value:", "    raise {f}.error({v})")

    def __init__(self, fmt, what, value, error):
        super().__init__(fmt, what)
        self.value, self.error = value, error


class Record:
    """Fields and parts in order.  Its value is the tuple of theirs, the
    one member's value for a record of one member, or an instance of type
    ``into`` built from them in member order; with ``into`` a type and its
    attribute names in member order, by keyword, and writing then reads
    those attributes.  A top-level record names its ``schema``."""

    def __init__(self, *members, into=None, schema=None):
        self.runs, run = [], []     # (fields, the part they end with or None)
        for m in members:
            run.append(m.head)
            if m.head is not m:
                self.runs.append((run, m))
                run = []
        if run:
            self.runs.append((run, None))
        self.size, self.schema = len(members), schema
        kind, names = into if isinstance(into, tuple) else (into, "")
        self.into = kind, names.split()

    def read(self, cur):
        """The record's value at ``cur.pos``; compiled at the first call."""
        src = _Source(self.schema)
        src.add(0, "def read(cur):")
        src.add(1, "data, pos = cur.data, cur.pos", "limit = len(data)",
                self.schema.reads)
        src.add(1, "value = " + read_value(src, self, 1),
                "cur.pos = pos", "return value")
        self.read = src.compile()["read"]
        return self.read(cur)

    def write(self, cur, value):
        """Append ``value`` to ``cur.data``; compiled at the first call."""
        src = _Source(self.schema)
        src.add(0, "def write(cur, value):")
        src.add(1, "out = cur.data", self.schema.writes)
        _write(src, self, "value", 1)
        self.write = src.compile()["write"]
        self.write(cur, value)


def _read(src, record, depth):
    """Add the lines reading ``record``; return the expressions of its
    members' values, a union's as its (kind, body) pair.  A run that the
    input ends inside goes to _short."""
    values = []
    for fields, part in record.runs:
        run = [src.var() for _ in fields]
        src.add(depth, "end = pos + %d" % sum(f.size for f in fields),
                "if end > limit:",
                "    short(cur, pos, %s)" % src.name(fields),
                "%s = data[pos]" % run[0] if [f.fmt for f in fields] == ["B"]
                else "%s, = %s.unpack_from(data, pos)"
                % (", ".join(run), src.layout(fields)))
        at = 0
        for f, v in zip(fields, run):
            at += f.size
            src.add(depth, *f.expand(src, f.check, v, "pos + %d" % at))
        src.add(depth, "pos = end")
        if part:
            run[-1] = part.read_after(src, run[-1], depth)
        values += run
    return values


def read_value(src, record, depth, *extra):
    """Add the lines reading ``record``; return the expression of its
    value, with ``extra`` expressions after its members' values."""
    return _value(src, record, _read(src, record, depth) + list(extra))


def _value(src, record, values):
    """The expression of a record's value, from those of its members."""
    values = [v if isinstance(v, str) else "(%s, %s)" % v for v in values]
    kind, names = record.into
    if names:
        values = ["%s=%s" % pair for pair in zip(names, values)]
    if kind:
        return "%s(%s)" % (src.name(kind), ", ".join(values))
    return values[0] if record.size == 1 else "(%s,)" % ", ".join(values)


def _write(src, record, value, depth):
    """Add the lines appending local ``value`` as ``record``."""
    values = [src.var() for _ in range(record.size)]
    if record.into[1]:
        src.add(depth, "%s = %s" % (", ".join(values), ", ".join(
            "%s.%s" % (value, name) for name in record.into[1])))
    elif record.size == 1:
        values = [value]
    else:
        src.add(depth, "%s, = %s" % (", ".join(values), value))
    for fields, part in record.runs:
        run, values = values[:len(fields)], values[len(fields):]
        packed = list(run)
        for f, v in zip(fields[:-1] if part else fields, run):
            src.add(depth, *f.expand(src, f.dump, v))
        if part:
            packed[-1] = part.write_head(src, run[-1], depth)
        src.add(depth, "out += %s.pack(%s)"
                % (src.layout(fields), ", ".join(packed)))
        if part:
            part.write_after(src, run[-1], depth)


def _record(node):
    return node if isinstance(node, Record) else Record(node)


def _head(src, head, expr, depth):
    """The expression of a count or length head written as ``expr``, after
    the head's dump lines where it has any."""
    if not head.dump:
        return expr
    value = src.var()
    src.add(depth, "%s = %s" % (value, expr),
            *head.expand(src, head.dump, value))
    return value


class Array:
    """A count, then that many elements.  With ``columns``, the elements'
    members, or a union element's kinds and bodies, are read into one list
    each, and the value is the tuple of those lists.  With ``frozen``, the
    value is a tuple, so an empty array reads as the shared ()."""

    def __init__(self, count, elem, columns=False, frozen=False):
        self.head, self.elem, self.columns = count, _record(elem), columns
        self.frozen = frozen

    def read_after(self, src, n, depth):
        start = len(src.lines)  # the lists are made here, once they are known
        src.add(depth, "for _ in range(%s):" % n)
        values = _read(src, self.elem, depth + 1)
        if not self.columns:
            values = [_value(src, self.elem, values)]
        elif len(values) == 1:  # a union element: kinds, then bodies
            values = values[0]
        lists = [src.var() for _ in values]
        src.lines.insert(start, "    " * depth + "%s = %s" % (
            ", ".join(lists), ", ".join("[]" for _ in lists)))
        src.add(depth + 1, *("%s.append(%s)" % pair
                             for pair in zip(lists, values)))
        if self.columns:
            return "(%s,)" % ", ".join(lists)
        return "tuple(%s)" % lists[0] if self.frozen else lists[0]

    def write_head(self, src, items, depth):
        return _head(src, self.head, "len(%s%s)"
                     % (items, "[0]" if self.columns else ""), depth)

    def write_after(self, src, items, depth):
        elem = src.var()
        src.add(depth, "for %s in %s:" % (
            elem, "zip(*%s)" % items if self.columns else items))
        _write(src, self.elem, elem, depth + 1)


class Option:
    """A flag, then the body if the flag is set; None stands for no body."""

    def __init__(self, flag, body):
        self.head, self.body = flag, _record(body)

    def read_after(self, src, flag, depth):
        src.add(depth, "if %s:" % flag)
        src.add(depth + 1, flag + " = " + read_value(src, self.body, depth + 1))
        src.add(depth, "else:", "    %s = None" % flag)
        return flag

    def write_head(self, src, value, depth):
        return "%s is not None" % value

    def write_after(self, src, value, depth):
        src.add(depth, "if %s is not None:" % value)
        _write(src, self.body, value, depth + 1)


class Union:
    """A kind code, then the body of that kind; the value is (kind, the
    body's value), with None for a kind that has no body, or, with
    ``bare``, the body's value alone, which the code's ``kind_of`` lines
    turn into its kind as it is written.  ``bodies`` has one entry per kind
    of the code, and the last one is taken for any kind not before it."""

    def __init__(self, code, bodies, bare=False):
        self.head, self.bare = code, bare
        self.bodies = {kind: body and _record(body)
                       for kind, body in bodies.items()}

    def _branches(self, src, kind, depth):
        """The body of each kind, after adding its if, elif or else."""
        last = len(self.bodies) - 1
        for i, (k, body) in enumerate(self.bodies.items()):
            src.add(depth, "else:" if i == last else "%s %s == %r:"
                    % ("elif" if i else "if", kind, k))
            yield body

    def read_after(self, src, kind, depth):
        value, outer, src.kind = src.var(), src.kind, kind
        for body in self._branches(src, kind, depth):
            src.add(depth + 1, "%s = %s" % (value, read_value(
                src, body, depth + 1) if body else "None"))
        src.kind = outer
        return value if self.bare else (kind, value)

    def write_head(self, src, value, depth):
        if self.bare:
            src.add(depth, "{0}k = {0}b = {0}".format(value),
                    *self.head.expand(src, self.head.kind_of, value + "k"))
        else:
            src.add(depth, "{0}k, {0}b = {0}".format(value))
        src.add(depth, "{0}c = {0}k".format(value),
                *self.head.expand(src, self.head.dump, value + "c"))
        return value + "c"

    def write_after(self, src, value, depth):
        for body in self._branches(src, value + "k", depth):
            if body:
                _write(src, body, value + "b", depth + 1)
            else:
                src.add(depth + 1, "pass")


class Blob:
    """A byte length, then the bytes: as ``kind``, bytes, bytearray, or
    str for a string's UTF-8."""

    def __init__(self, length, what, kind=bytes):
        self.head, self.what, self.kind = length, what, kind

    def read_after(self, src, n, depth):
        src.add(depth, "end = pos + %s" % n, "if end > limit:",
                "    raise truncated(%r, pos)" % self.what)
        if self.kind is str:
            src.add(depth, "try:", "    %s = data[pos:end].decode("
                    "'utf-8', 'surrogatepass')" % n,
                    "except UnicodeDecodeError:",
                    "    raise Corrupt('undecodable string table entry',"
                    " end) from None")
        else:
            src.add(depth, "%s = %s(data[pos:end])" % (n, src.name(self.kind)))
        src.add(depth, "pos = end")
        return n

    def write_head(self, src, data, depth):
        if self.kind is str:
            src.add(depth, "{0}b = {0}.encode('utf-8', 'surrogatepass')"
                    .format(data))
            return _head(src, self.head, "len(%sb)" % data, depth)
        return _head(src, self.head, "len(%s)" % data, depth)

    def write_after(self, src, data, depth):
        src.add(depth, "out += %s%s" % (data, "b" if self.kind is str else ""))
