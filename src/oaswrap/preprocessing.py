"""Pre-generation phase: canonical unique names, schema de-duplication, and
the named GraphQL types, each field and enum value carrying the raw name that
serving maps back to.

The types dictionary flattens every request/response schema (and, recursively,
every nested object or enum) into uniquely named entries, adding an entry only
when no structurally equal entry of the same direction exists.
"""

from __future__ import annotations

import json

from .errors import InvalidOasError, MissingRefError, SanitationError
from .ir import (ENUM, INPUT_OBJECT, OBJECT, REFERENCE, SCALAR_TYPE_NAMES, ArgIR, FieldBinding,
                 FieldIR, TypeIR, list_of, non_null, reference, scalar)
from .oas_ingest import (
    FORM_MEDIA,
    OasDocument,
    OasOperation,
    OasResponse,
    SchemaObject,
    is_json_media,
    is_success_status,
    unescape_pointer_token,
)
from .report import (
    INVALID_SCHEMA_TYPE,
    MISSING_RESPONSE_SCHEMA,
    MULTIPLE_RESPONSES,
    UNKNOWN_SCHEMA_TYPE,
    UNSUPPORTED_FEATURE,
    Report,
    record_warning,
)

INPUT = "input"
OUTPUT = "output"

SCALAR_TYPES = {"string": scalar("String"), "number": scalar("Float"), "integer": scalar("Int"),
                "boolean": scalar("Boolean")}

CAMEL = "camel"
PRESERVE = "preserve"

_LEGAL = frozenset("_0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


# -- name sanitation -----------------------------------------------------------


def sanitize(raw: str, casing: str = CAMEL) -> str:
    """Strip characters illegal in GraphQL names ([_A-Za-z][_0-9A-Za-z]*).

    In camel mode underscores count as separators too, and the letter after a
    removed separator is upper-cased; separators before the first kept
    character never upcase (so "$id" stays "id"). At most one leading
    underscore is kept, since names starting with "__" are GraphQL's own.
    """
    out: list[str] = []
    pending_upper = False
    for ch in raw:
        is_separator = ch not in _LEGAL or (casing == CAMEL and ch == "_")
        if is_separator:
            pending_upper = True
            continue
        if pending_upper and out and ch.isalpha() and casing == CAMEL:
            out.append(ch.upper())
        else:
            out.append(ch)
        pending_upper = False
    if not out:
        raise SanitationError(f"name {raw!r} contains no characters legal in GraphQL names")
    if out[0].isdigit():
        out.insert(0, "_")
    name = "".join(out)
    return "_" + name.lstrip("_") if name.startswith("__") else name


class SanitizedNames(dict):
    """raw -> ``sanitize(raw, casing)`` for one run, each raw name sanitized
    on its first lookup only. A name without a legal character raises
    ``SanitationError`` on every lookup."""

    def __init__(self, casing: str):
        super().__init__()
        self.casing = casing

    def __missing__(self, raw: str) -> str:
        self[raw] = name = sanitize(raw, self.casing)
        return name

    def enum_value(self, value: object) -> str:
        """One enum value's name; booleans can never become legal enum values."""
        if isinstance(value, bool):
            raise SanitationError(f"enum value {value} is a boolean; true and false are "
                                  f"forbidden as GraphQL enum values")
        result = self[str(value)]
        if result in ("true", "false", "null"):
            raise SanitationError(f"enum value {value!r} sanitizes to reserved word {result!r}")
        return result


def lower_first(name: str) -> str:
    return name[:1].lower() + name[1:]


def upper_first(name: str) -> str:
    return name[:1].upper() + name[1:]


def first_free(base: str, taken, counters: dict[str, int] | None = None) -> str:
    """The first of base, base2, base3, ... not in ``taken``. ``counters``,
    kept across calls on one namespace whose names are never released,
    remembers where each base's search stopped, so suffixing one base is
    amortised O(1); the caller takes the name."""
    if base not in taken:
        return base
    counter = 2 if counters is None else counters.get(base, 2)
    while f"{base}{counter}" in taken:
        counter += 1
    if counters is not None:
        counters[base] = counter + 1
    return f"{base}{counter}"


# -- structural equality ---------------------------------------------------------


# One encoder for every enum value: json.dumps with arguments builds a new one per call.
_encode_enum_value = json.JSONEncoder(sort_keys=True, default=str).encode


def _label(s: SchemaObject) -> tuple:
    """What equality compares on one node: type, property keys, required and
    enum as sets, items presence and allOf arity; titles never count."""
    enum = None
    if s.enum is not None:
        enum = frozenset(map(_encode_enum_value, s.enum))
    return (s.type, frozenset(s.properties), frozenset(s.required), enum,
            s.items is not None, None if s.all_of is None else len(s.all_of))


def _children(s: SchemaObject) -> list[SchemaObject]:
    """Properties by key, then items, then allOf members (compared member-wise)."""
    out = [s.properties[key] for key in sorted(s.properties)]
    if s.items is not None:
        out.append(s.items)
    return out + list(s.all_of or ())


def deep_equal(a: SchemaObject, b: SchemaObject, doc: OasDocument | None = None) -> bool:
    """Structural schema equality over ``_label`` and ``_children``.

    Reference cycles are handled coinductively (a revisited pair is equal).
    """
    assumed: set[tuple[int, int]] = set()

    def eq(x: SchemaObject, y: SchemaObject) -> bool:
        if doc is None:
            if x.ref or y.ref:
                return x.ref == y.ref
        else:
            x, y = doc.deref(x), doc.deref(y)
        if x is y or (id(x), id(y)) in assumed:
            return True
        assumed.add((id(x), id(y)))
        return _label(x) == _label(y) and all(map(eq, _children(x), _children(y)))

    return eq(a, b)


class StructuralClasses:
    """Exact structural classes: two schemas share a class iff ``deep_equal``
    holds between them.

    One iterative post-order walk over every node reachable from ``roots``
    hash-conses the finite ones (Filliâtre & Conchon, "Type-Safe Modular
    Hash-Consing", 2006): a node whose children all have classes is interned
    by (label, child classes) in the one signature table when it closes. A
    node that reaches a reference cycle, which no finite node can equal, is
    classed afterwards by Moore-style partition refinement (Paige & Tarjan,
    "Three Partition Refinement Algorithms", 1987) over those nodes alone:
    each round re-interns (label, child classes), the finite children's held
    fixed, until the class count stops growing. Refined classes are numbered
    past the finite ones, in order of their first node, so the last round's
    signatures join the table; nodes built later (merged allOf schemas) are
    classed through it. A ``$ref`` that cannot be resolved is a leaf with a
    label of its own; reporting it is left to the walk that needs it.
    """

    def __init__(self, doc: OasDocument, roots: list[SchemaObject]):
        self._labels: dict[tuple, int] = {}
        self._table: dict[tuple, int] = {}
        table = self._table
        position: dict[int, int] = {}  # id of a node, or of a $ref to it -> index
        labels: list[int] = []
        children: list = []  # each node's children, a list or an empty tuple
        leaf_labels: dict[str | None, int] = {}  # a leaf's type -> its label id
        classes: list[int] = []  # -1 while open, and for a node that reaches a cycle
        cyclic: list[int] = []  # indices of nodes that reach a cycle, as they close
        stack: list = list(roots)
        while stack:
            s = stack.pop()
            if s.__class__ is int:  # the node at index s closes
                kids = tuple([classes[position[id(c)]] for c in children[s]])
                if -1 in kids:
                    cyclic.append(s)
                else:
                    classes[s] = table.setdefault((labels[s], kids), len(table))
                continue
            if id(s) in position:
                continue
            try:
                r = s if s.ref is None else doc.deref(s)
            except (MissingRefError, InvalidOasError):
                r, label, kids = s, self._label_id(("$ref", s.ref)), ()
            else:
                if id(r) in position:
                    position[id(s)] = position[id(r)]
                    continue
                if (r.properties or r.required or r.enum is not None or r.items is not None
                        or r.all_of is not None):
                    label, kids = self._label_id(_label(r)), _children(r)
                else:  # a leaf, labelled by its type alone
                    label, kids = leaf_labels.get(r.type), ()
                    if label is None:
                        label = leaf_labels[r.type] = self._label_id(_label(r))
            position[id(s)] = position[id(r)] = index = len(labels)
            labels.append(label)
            children.append(kids)
            classes.append(-1)
            if kids:
                stack.append(index)
                stack.extend(kids)
            else:  # a leaf closes at once
                classes[index] = table.setdefault((labels[index], ()), len(table))

        if cyclic:
            base = len(table)
            edges = [[position[id(c)] for c in children[index]] for index in cyclic]
            for index in cyclic:
                classes[index] = base
            count = 1
            while True:
                refined: dict[tuple, int] = {}
                new = [refined.setdefault((labels[index], tuple(map(classes.__getitem__, kids))),
                                          base + len(refined))
                       for index, kids in zip(cyclic, edges)]
                for index, cls in zip(cyclic, new):
                    classes[index] = cls
                if len(refined) == count:
                    break
                count = len(refined)
            table.update(refined)
        self._classes = {key: classes[index] for key, index in position.items()}

    def _label_id(self, label: tuple) -> int:
        return self._labels.setdefault(label, len(self._labels))

    def of(self, schema: SchemaObject) -> int:
        """The class of a walked node, or of a node built from walked ones."""
        cls = self._classes.get(id(schema))
        if cls is None:
            signature = (self._label_id(_label(schema)), tuple(map(self.of, _children(schema))))
            cls = self._classes[id(schema)] = self._table.setdefault(signature, len(self._table))
        return cls


def plain_scalar(s: SchemaObject) -> TypeIR | None:
    """The type of a node with no $ref, enum, allOf or composition and a
    scalar type, which ``Preprocessor.add`` would give it with no warning and
    no entry; None for any other node."""
    if s.ref is None and s.enum is None and s.all_of is None and s.composed_with is None:
        return SCALAR_TYPES.get(s.type)
    return None


# -- types dictionary --------------------------------------------------------------


class DictionaryEntry:
    def __init__(self, name: str,
                 base_name: str,  # name before the Input suffix / uniqueness suffix
                 schema: SchemaObject, direction: str):  # input | output
        self.name, self.base_name = name, base_name
        self.schema, self.direction = schema, direction


class TypesDictionary:
    """Registry of de-duplicated schema objects with canonical unique names,
    and the named GraphQL type each object or enum entry translates to."""

    def __init__(self):
        self.entries: dict[str, DictionaryEntry] = {}
        self.types: dict[str, TypeIR] = {}
        # graphql-core's build_schema finds the roots by these conventional names.
        self.taken_names: set[str] = {*SCALAR_TYPE_NAMES, "Query", "Mutation", "Subscription"}
        self._next_suffix: dict[str, int] = {}  # base -> first counter not yet tried

    def take(self, base: str) -> str:
        """The first free of base, base2, base3, ... in the type namespace."""
        name = first_free(base, self.taken_names, self._next_suffix)
        self.taken_names.add(name)
        return name


class PreprocessResult:
    def __init__(self, dictionary: TypesDictionary,
                 fields: dict[str, FieldIR],  # operation key -> root field; none if skipped
                 names: SanitizedNames):  # the run's one name policy
        self.dictionary, self.fields, self.names = dictionary, fields, names


def name_candidates(schema: SchemaObject, ref_name: str | None, op: OasOperation | None,
                    property_key: str | None, names: SanitizedNames) -> list[str]:
    """Sanitized naming candidates in priority order: ref name, then title,
    then method+path, then the parent property key; empty when none is legal."""
    candidates: list[str] = []
    if ref_name:
        candidates.append(ref_name)
    if schema.title:
        candidates.append(schema.title)
    if op is not None:
        candidates.append(f"{op.method.lower()}{op.path}")
    if property_key is not None:
        candidates.append(upper_first(property_key))

    sanitized: list[str] = []
    for raw in candidates:
        try:
            sanitized.append(names[raw])
        except SanitationError:
            continue
    return sanitized


class Preprocessor:
    """Builds the types dictionary and each bound operation's root field."""

    def __init__(self, doc: OasDocument, report: Report, casing: str = CAMEL):
        self.doc = doc
        self.report = report
        self.names = SanitizedNames(casing)
        self.dictionary = TypesDictionary()
        self._first: dict[tuple[str, int], str] = {}  # (direction, class) -> entry name
        self._decided: dict[tuple[int, str], TypeIR] = {}  # (id of node, direction) -> type
        self._open_arrays: set[int] = set()  # arrays being classified since the last object

    def run(self) -> PreprocessResult:
        roots = [part.schema for op in self.doc.operations
                 for part in (*op.responses.values(), op.request_body, *op.parameters)
                 if part is not None and part.schema is not None]
        self.classes = StructuralClasses(self.doc, roots)
        fields: dict[str, FieldIR] = {}
        for op in self.doc.operations:
            root = self._bind_operation(op)
            if root is not None:
                fields[op.key] = root
        self.report.stats.operations_total = len(self.doc.operations)
        self.report.stats.operations_skipped = self.report.stats.operations_total - len(fields)
        return PreprocessResult(self.dictionary, fields, self.names)

    # -- per-operation ----------------------------------------------------

    def _bind_operation(self, op: OasOperation) -> FieldIR | None:
        """The operation's root field, or None when it is skipped. Its
        arguments are the parameters in declaration order, then the body."""
        response = self._select_response(op)
        if response is None:
            record_warning(self.report, MISSING_RESPONSE_SCHEMA, op.pointer,
                           "operation has no success response schema; operation skipped")
            return None

        if op.request_body is not None and op.request_body.schema is None:
            record_warning(self.report, MISSING_RESPONSE_SCHEMA, op.request_body.pointer,
                           "request body lacks a schema; operation skipped")
            return None

        if not is_json_media(response.content_type):
            record_warning(
                self.report, INVALID_SCHEMA_TYPE, response.pointer,
                f"response content type {response.content_type!r} is not JSON; "
                f"exposing the body as String",
            )
            output = scalar("String")
        else:
            output = self.add(response.schema, OUTPUT, op=op, top_level=True)

        request = None
        if op.request_body is not None:
            body = op.request_body
            if is_json_media(body.content_type) or body.content_type == FORM_MEDIA:
                request = self.add(body.schema, INPUT, op=op, top_level=True)
            else:
                record_warning(
                    self.report, INVALID_SCHEMA_TYPE, body.pointer,
                    f"request content type {body.content_type!r} is not JSON; "
                    f"accepting the payload as String",
                )
                request = scalar("String")

        args: dict[str, ArgIR] = {}
        for param in op.parameters:
            if param.schema is None:
                record_warning(self.report, INVALID_SCHEMA_TYPE, param.pointer,
                               f"parameter {param.name!r} lacks a schema; assuming string")
                param_type = scalar("String")
            else:
                param_type = self.add(param.schema, INPUT, property_key=param.name,
                                      top_level=False)
            name = first_free(self.names[param.name], args)
            args[name] = ArgIR(name, non_null(param_type) if param.required else param_type,
                               raw=param.name, location=param.location, default=param.default)
        if request is not None:
            name = first_free(self._field_name(request, "payload"), args)
            args[name] = ArgIR(name, non_null(request) if op.request_body.required else request,
                               location="body")
        return FieldIR(self._field_name(output, f"{op.method.lower()}{op.path}"), output, args,
                       op.description, FieldBinding("operation", plan_key=op.key))

    def _field_name(self, type_ir: TypeIR, raw: str) -> str:
        """A root field or payload argument name: the base name of the entry
        type_ir references, else raw sanitized; lower-cased."""
        if type_ir.kind == REFERENCE:
            return lower_first(self.dictionary.entries[type_ir.name].base_name)
        return lower_first(self.names[raw])

    def _select_response(self, op: OasOperation) -> OasResponse | None:
        """Lowest concrete success code first, then 2XX wildcards; responses
        without a schema are skip causes, and 'default' never counts."""
        concrete = sorted(
            (s for s in op.responses if s.isdigit() and 200 <= int(s) <= 299), key=int
        )
        wildcards = [s for s in op.responses if is_success_status(s) and not s.isdigit()]
        candidates = concrete + wildcards
        if not candidates:
            return None
        if len(candidates) > 1:
            record_warning(
                self.report, MULTIPLE_RESPONSES, f"{op.pointer}/responses",
                f"operation defines {len(candidates)} success responses; "
                f"selected lowest status {candidates[0]}",
            )
        chosen = op.responses[candidates[0]]
        return chosen if chosen.schema is not None else None

    # -- schema walk --------------------------------------------------------

    def add(self, schema: SchemaObject, direction: str, op: OasOperation | None = None,
            property_key: str | None = None, top_level: bool = False) -> TypeIR:
        """Classify one schema node, creating a dictionary entry when it is
        new, unique, and nameable. Warnings fire here, once per node."""
        ref_name = None
        if schema.ref is not None:
            ref_name = unescape_pointer_token(schema.ref.rsplit("/", 1)[-1])
        resolved = self.doc.deref(schema)
        if resolved.all_of:
            resolved = self.doc.merge_all_of(resolved, self.report)

        known = self._decided.get((id(resolved), direction))
        if known is not None:
            return known

        type_ir = self._classify(resolved, direction, ref_name, op, property_key, top_level)
        self._decided[(id(resolved), direction)] = type_ir
        return type_ir

    def _classify(self, resolved: SchemaObject, direction: str, ref_name: str | None,
                  op: OasOperation | None, property_key: str | None,
                  top_level: bool) -> TypeIR:
        if (op is not None and not top_level
                and name_candidates(resolved, ref_name, None, property_key, self.names)):
            op = None  # items are named from their operation only when nothing else names them
        if resolved.composed_with is not None:
            record_warning(
                self.report, UNSUPPORTED_FEATURE, resolved.pointer,
                f"schema composition via {resolved.composed_with} is unsupported; "
                f"falling back to string",
            )
            return self._fallback_entry(resolved, direction, ref_name, op, property_key, top_level)

        stype = resolved.type
        if stype == "object":
            if not resolved.properties:
                record_warning(self.report, INVALID_SCHEMA_TYPE, resolved.pointer,
                               "object schema has no properties; falling back to string")
                return self._fallback_entry(resolved, direction, ref_name, op,
                                            property_key, top_level)
            return self._object_entry(resolved, direction, ref_name, op, property_key)

        if stype == "array":
            if resolved.items is None:
                record_warning(self.report, INVALID_SCHEMA_TYPE, resolved.pointer,
                               "array schema lacks items; falling back to string")
                return self._fallback_entry(resolved, direction, ref_name, op,
                                            property_key, top_level)
            if id(resolved) in self._open_arrays:
                record_warning(self.report, INVALID_SCHEMA_TYPE, resolved.pointer,
                               "array schema contains itself with no object in between; "
                               "falling back to string")
                return scalar("String")
            if top_level:
                self._ensure_entry(resolved, direction, ref_name, op, property_key)
            self._open_arrays.add(id(resolved))
            item = self.add(resolved.items, direction, op=op, property_key=property_key)
            self._open_arrays.discard(id(resolved))
            # Decided already only if the items reached this array again.
            return self._decided.get((id(resolved), direction)) or list_of(item)

        if stype == "string" and resolved.enum:
            return self._enum_entry(resolved, direction, ref_name, op, property_key)

        if stype in SCALAR_TYPES:
            if top_level:
                self._ensure_entry(resolved, direction, ref_name, op, property_key)
            return SCALAR_TYPES[stype]

        if stype is None:
            record_warning(self.report, INVALID_SCHEMA_TYPE, resolved.pointer,
                           "schema lacks a type; falling back to string")
        else:
            record_warning(self.report, UNKNOWN_SCHEMA_TYPE, resolved.pointer,
                           f"schema type {stype!r} is unknown; falling back to string")
        return self._fallback_entry(resolved, direction, ref_name, op, property_key, top_level)

    def _object_entry(self, resolved, direction, ref_name, op, property_key) -> TypeIR:
        existing = self._find_equal(resolved, direction)
        if existing in self.dictionary.types:
            return reference(existing)
        name = self._new_entry(resolved, direction, ref_name, op, property_key)
        # Reserve before recursing so reference cycles terminate.
        type_ir = self._decided[(id(resolved), direction)] = reference(name)
        fields: dict[str, FieldIR] = {}
        self.dictionary.types[name] = TypeIR(
            OBJECT if direction == OUTPUT else INPUT_OBJECT, name=name, fields=fields,
            description=resolved.description)
        open_arrays, self._open_arrays = self._open_arrays, set()
        required = set(resolved.required)
        for key in sorted(resolved.properties):
            child = resolved.properties[key]
            field_name = first_free(self.names[key], fields)
            field_type = plain_scalar(child)
            if field_type is None:
                field_type = self.add(child, direction, property_key=key)
                child = self.doc.deref(child)
            if key in required:
                field_type = non_null(field_type)
            fields[field_name] = FieldIR(field_name, field_type, raw=key,
                                         description=child.description)
        self._open_arrays = open_arrays
        return type_ir

    def _enum_entry(self, resolved, direction, ref_name, op, property_key) -> TypeIR:
        existing = self._find_equal(resolved, direction)
        if existing in self.dictionary.types:
            return reference(existing)
        name = self._new_entry(resolved, direction, ref_name, op, property_key)
        values: dict[str, str] = {}  # sanitized -> raw
        seen: set[str] = set()  # a repeated raw value maps to one name
        for value in resolved.enum:
            sanitized = self.names.enum_value(value)
            if str(value) not in seen:
                seen.add(str(value))
                values[first_free(sanitized, values)] = str(value)
        self.dictionary.types[name] = TypeIR(ENUM, name=name, enum_values=values,
                                             description=resolved.description)
        return reference(name)

    def _fallback_entry(self, resolved, direction, ref_name, op, property_key,
                        top_level) -> TypeIR:
        if top_level:
            self._ensure_entry(resolved, direction, ref_name, op, property_key)
        return scalar("String")

    def _ensure_entry(self, resolved, direction, ref_name, op, property_key) -> str:
        existing = self._find_equal(resolved, direction)
        if existing is not None:
            return existing
        return self._new_entry(resolved, direction, ref_name, op, property_key)

    def _find_equal(self, resolved: SchemaObject, direction: str) -> str | None:
        """The first same-direction entry structurally equal to this schema.
        Equality ignores oneOf/anyOf/not, so an object or enum reuses the
        entry only if it has a type: a composed schema's entry has none."""
        return self._first.get((direction, self.classes.of(resolved)))

    def _new_entry(self, resolved: SchemaObject, direction: str, ref_name: str | None,
                   op: OasOperation | None, property_key: str | None) -> str:
        # Type names share one global namespace; input variants carry an
        # Input suffix so an input/output pair never collides in the SDL.
        candidates = name_candidates(resolved, ref_name, op, property_key, self.names)
        if not candidates:
            raise SanitationError(
                f"no legal GraphQL name can be derived for schema at {resolved.pointer!r}")
        suffix = "Input" if direction == INPUT else ""
        taken = self.dictionary.taken_names
        # The first free candidate, or else the last one with a number.
        base = next((b for b in candidates if b + suffix not in taken), candidates[-1])
        name = self.dictionary.take(base + suffix)
        self.dictionary.entries[name] = DictionaryEntry(
            name=name, base_name=base, schema=resolved, direction=direction)
        self._first[direction, self.classes.of(resolved)] = name
        return name


def preprocess(doc: OasDocument, report: Report, casing: str = CAMEL) -> PreprocessResult:
    return Preprocessor(doc, report, casing).run()
