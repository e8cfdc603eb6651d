"""Pre-generation phase: canonical unique names, schema de-duplication, and
the bidirectional raw/sanitized name mapping used again at serve time.

The types dictionary flattens every request/response schema (and, recursively,
every nested object or enum) into uniquely named entries, adding an entry only
when no structurally equal entry of the same direction exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import SanitationError
from .oas_ingest import (
    OasDocument,
    OasOperation,
    OasResponse,
    SchemaObject,
    is_success_status,
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

SCALAR_NAMES = {"string": "String", "number": "Float", "integer": "Int", "boolean": "Boolean"}

# Levels below a node that its de-duplication key summarises.
KEY_DEPTH = 4

CAMEL = "camel"
PRESERVE = "preserve"

_LEGAL = frozenset("_0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


# -- name sanitation -----------------------------------------------------------


def sanitize(raw: str, casing: str = CAMEL) -> str:
    """Strip characters illegal in GraphQL names ([_A-Za-z][_0-9A-Za-z]*).

    In camel mode underscores count as separators too, and the letter after a
    removed separator is upper-cased; separators before the first kept
    character never upcase (so "$id" stays "id").
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
    return "".join(out)


def sanitize_enum_value(value: object, casing: str = CAMEL) -> str:
    """Sanitize one enum value; booleans can never become legal enum values."""
    if isinstance(value, bool):
        raise SanitationError(
            f"enum value {value} is a boolean; true and false are forbidden as GraphQL enum values"
        )
    result = sanitize(str(value), casing)
    if result in ("true", "false", "null"):
        raise SanitationError(f"enum value {value!r} sanitizes to reserved word {result!r}")
    return result


@dataclass
class _Scope:
    forward: dict[str, str] = field(default_factory=dict)  # raw -> sanitized
    reverse: dict[str, str] = field(default_factory=dict)  # sanitized -> raw


class SanitationMap:
    """Bidirectional raw/sanitized name mapping, scoped per type or operation."""

    def __init__(self):
        self.scopes: dict[str, _Scope] = {}

    def scope(self, scope_id: str) -> _Scope:
        return self.scopes.setdefault(scope_id, _Scope())

    def register(self, scope_id: str, raw: str, sanitized: str) -> str:
        scope = self.scope(scope_id)
        if raw in scope.forward:
            return scope.forward[raw]
        final = sanitized
        counter = 2
        while final in scope.reverse:
            final = f"{sanitized}{counter}"
            counter += 1
        scope.forward[raw] = final
        scope.reverse[final] = raw
        return final

    def to_sanitized(self, scope_ids: list[str], raw: str) -> str | None:
        for scope_id in scope_ids:
            scope = self.scopes.get(scope_id)
            if scope and raw in scope.forward:
                return scope.forward[raw]
        return None

    def to_raw(self, scope_ids: list[str], sanitized: str) -> str | None:
        for scope_id in scope_ids:
            scope = self.scopes.get(scope_id)
            if scope and sanitized in scope.reverse:
                return scope.reverse[sanitized]
        return None


def register_mapping(sanmap: SanitationMap, scope_id: str, raw: str, sanitized: str) -> str:
    """Record raw<->sanitized within a scope, suffixing on collisions.

    Returns the final sanitized name actually recorded (idempotent per raw).
    """
    return sanmap.register(scope_id, raw, sanitized)


def sanitize_tree(value, sanmap: SanitationMap, scope_ids: list[str],
                  dropped: list[str] | None = None):
    """Rename raw object keys to their sanitized form, recursively.

    Keys with no mapping in any of the given scopes are dropped (the generated
    GraphQL type cannot expose them); drops are reported via ``dropped``.
    """
    if isinstance(value, dict):
        out = {}
        for key, child in value.items():
            mapped = sanmap.to_sanitized(scope_ids, key)
            if mapped is None:
                if dropped is not None:
                    dropped.append(key)
                continue
            out[mapped] = sanitize_tree(child, sanmap, scope_ids, dropped)
        return out
    if isinstance(value, list):
        return [sanitize_tree(item, sanmap, scope_ids, dropped) for item in value]
    return value


def desanitize_tree(value, sanmap: SanitationMap, scope_ids: list[str]):
    """Rename sanitized object keys back to their raw upstream form.

    Unmapped keys pass through unchanged.
    """
    if isinstance(value, dict):
        out = {}
        for key, child in value.items():
            raw = sanmap.to_raw(scope_ids, key)
            out[raw if raw is not None else key] = desanitize_tree(child, sanmap, scope_ids)
        return out
    if isinstance(value, list):
        return [desanitize_tree(item, sanmap, scope_ids) for item in value]
    return value


# -- structural equality ---------------------------------------------------------


def deep_equal(a: SchemaObject, b: SchemaObject, doc: OasDocument | None = None) -> bool:
    """Structural schema equality: properties compared key-wise, required and
    enum as sets, title/description ignored, arrays by item schema.

    Reference cycles are handled coinductively (a revisited pair is equal).
    """
    visited: set[tuple[int, int]] = set()

    def resolved(s: SchemaObject) -> SchemaObject:
        return doc.deref(s) if doc is not None else s

    def enum_key(values) -> frozenset | None:
        if values is None:
            return None
        return frozenset(json.dumps(v, sort_keys=True) for v in values)

    def eq(x: SchemaObject, y: SchemaObject) -> bool:
        if doc is None and (x.ref or y.ref):
            return x.ref == y.ref
        x, y = resolved(x), resolved(y)
        if x is y:
            return True
        pair = (id(x), id(y))
        if pair in visited:
            return True
        visited.add(pair)
        if x.type != y.type:
            return False
        if enum_key(x.enum) != enum_key(y.enum):
            return False
        if set(x.required) != set(y.required):
            return False
        if set(x.properties) != set(y.properties):
            return False
        for key in x.properties:
            if not eq(x.properties[key], y.properties[key]):
                return False
        if (x.items is None) != (y.items is None):
            return False
        if x.items is not None and not eq(x.items, y.items):
            return False
        # nested allOf nodes are compared member-wise (top-level entries are
        # always pre-merged, so this only guards properties)
        if (x.all_of is None) != (y.all_of is None):
            return False
        if x.all_of is not None:
            if len(x.all_of) != len(y.all_of):
                return False
            for xm, ym in zip(x.all_of, y.all_of):
                if not eq(xm, ym):
                    return False
        return True

    return eq(a, b)


def structure_key(schema: SchemaObject, doc: OasDocument, memo: dict[tuple[int, int], int],
                  depth: int = KEY_DEPTH) -> int:
    """Merkle-style hash of a schema unfolded ``depth`` levels: its label
    (type, property keys, required and enum as sets, items presence, allOf
    arity) with the keys of its properties, items and allOf members.

    Bisimilar schemas have equal finite unfoldings, so ``deep_equal(a, b)``
    implies equal keys, cycles included. A collision or a difference below
    ``depth`` costs one more ``deep_equal``, never a wrong merge. ``memo`` is
    keyed on node identity, so it must not outlive the document.
    """
    s = doc.deref(schema)
    slot = (id(s), depth)
    key = memo.get(slot)
    if key is None:
        if depth == 0:
            enum = None
            if s.enum is not None:
                enum = tuple(sorted({json.dumps(v, sort_keys=True) for v in s.enum}))
            key = hash((s.type, tuple(sorted(s.properties)), tuple(sorted(set(s.required))),
                        enum, s.items is not None, None if s.all_of is None else len(s.all_of)))
        else:
            children = [s.properties[k] for k in sorted(s.properties)]
            if s.items is not None:
                children.append(s.items)
            children.extend(s.all_of or ())
            key = hash((structure_key(s, doc, memo, 0),
                        *(structure_key(c, doc, memo, depth - 1) for c in children)))
        memo[slot] = key
    return key


# -- types dictionary --------------------------------------------------------------


@dataclass
class Provenance:
    """Which naming fallback produced an entry's name."""

    kind: str  # component_ref | title | operation | property_key
    detail: str
    suffixed: bool = False


@dataclass
class DictionaryEntry:
    name: str
    base_name: str  # name before the Input suffix / uniqueness suffix
    schema: SchemaObject
    direction: str  # input | output
    origin: Provenance
    pointer: str


@dataclass
class TypeDecision:
    """How one schema node maps into the GraphQL type system."""

    kind: str  # "entry" | "scalar" | "list" | "string_fallback"
    name: str | None = None  # entry name, or scalar name for kind=scalar
    item: "TypeDecision | None" = None  # kind=list
    entry_kind: str | None = None  # for kind=entry: "object" | "enum" | "scalar" | "fallback"


class TypesDictionary:
    """Registry of de-duplicated schema objects with canonical unique names."""

    def __init__(self):
        self.entries: dict[str, DictionaryEntry] = {}
        self.by_structure: dict[tuple[str, int], list[str]] = {}  # (direction, key) -> names
        self.taken_names: set[str] = set()
        self._next_suffix: dict[str, int] = {}  # base -> first counter not yet tried
        self.decisions: dict[tuple[int, str], TypeDecision] = {}

    def entries_for(self, direction: str) -> list[DictionaryEntry]:
        return [e for e in self.entries.values() if e.direction == direction]

    def take_name(self, candidate: str) -> str | None:
        if candidate in self.taken_names:
            return None
        self.taken_names.add(candidate)
        return candidate

    def take_suffixed(self, base: str) -> str:
        # Names are never released, so counters tried once stay taken.
        counter = self._next_suffix.get(base, 2)
        while f"{base}{counter}" in self.taken_names:
            counter += 1
        self._next_suffix[base] = counter + 1
        name = f"{base}{counter}"
        self.taken_names.add(name)
        return name

    def decision_for(self, schema: SchemaObject, direction: str,
                     doc: OasDocument) -> TypeDecision | None:
        return self.decisions.get((id(doc.canonical_schema(schema)), direction))


@dataclass
class OperationBinding:
    """Per-operation outcome of preprocessing."""

    op: OasOperation
    skipped: bool = False
    selected_status: str | None = None
    response_content_type: str | None = None
    response: TypeDecision | None = None
    request: TypeDecision | None = None
    request_content_type: str | None = None
    params: dict[str, TypeDecision] = field(default_factory=dict)  # raw param name -> decision


@dataclass
class PreprocessResult:
    dictionary: TypesDictionary
    sanmap: SanitationMap
    bindings: dict[str, OperationBinding]  # operation key -> binding


def name_candidates(schema: SchemaObject, ref_name: str | None, op: OasOperation | None,
                    property_key: str | None, casing: str = CAMEL) -> list[tuple[str, str, str]]:
    """Sanitized naming candidates in priority order: ref name, then title,
    then method+path, then the parent property key."""
    candidates: list[tuple[str, str, str]] = []
    if ref_name:
        candidates.append(("component_ref", ref_name, ref_name))
    if schema.title:
        candidates.append(("title", schema.title, schema.title))
    if op is not None:
        candidates.append(("operation", op.key, f"{op.method.lower()}{op.path}"))
    if property_key is not None:
        pretty = property_key[:1].upper() + property_key[1:]
        candidates.append(("property_key", property_key, pretty))

    sanitized: list[tuple[str, str, str]] = []
    for kind, detail, raw in candidates:
        try:
            sanitized.append((kind, detail, sanitize(raw, casing)))
        except SanitationError:
            continue
    if not sanitized:
        raise SanitationError(
            f"no legal GraphQL name can be derived for schema at {schema.pointer!r}"
        )
    return sanitized


def canonical_name(schema: SchemaObject, ref_name: str | None, op: OasOperation | None,
                   property_key: str | None, dictionary: TypesDictionary,
                   casing: str = CAMEL) -> tuple[str, Provenance]:
    """Pick a unique name; exhausted candidates get a numeric suffix."""
    sanitized = name_candidates(schema, ref_name, op, property_key, casing)
    for kind, detail, name in sanitized:
        if dictionary.take_name(name):
            return name, Provenance(kind, detail)
    kind, detail, last = sanitized[-1]
    return dictionary.take_suffixed(last), Provenance(kind, detail, suffixed=True)


class Preprocessor:
    """Builds the types dictionary, sanitation map, and operation bindings."""

    def __init__(self, doc: OasDocument, report: Report, casing: str = CAMEL):
        self.doc = doc
        self.report = report
        self.casing = casing
        self.dictionary = TypesDictionary()
        self.sanmap = SanitationMap()
        self._keys: dict[tuple[int, int], int] = {}

    def run(self) -> PreprocessResult:
        bindings: dict[str, OperationBinding] = {}
        for op in self.doc.operations:
            bindings[op.key] = self._bind_operation(op)
        self.report.stats.operations_total = len(self.doc.operations)
        self.report.stats.operations_skipped = sum(1 for b in bindings.values() if b.skipped)
        return PreprocessResult(self.dictionary, self.sanmap, bindings)

    # -- per-operation ----------------------------------------------------

    def _bind_operation(self, op: OasOperation) -> OperationBinding:
        binding = OperationBinding(op=op)

        selected = self._select_response(op)
        if selected is None:
            record_warning(self.report, MISSING_RESPONSE_SCHEMA, op.pointer,
                           "operation has no success response schema; operation skipped")
            binding.skipped = True
            return binding
        status, response = selected
        binding.selected_status = status
        binding.response_content_type = response.content_type

        if op.request_body is not None and op.request_body.schema is None:
            record_warning(self.report, MISSING_RESPONSE_SCHEMA, op.request_body.pointer,
                           "request body lacks a schema; operation skipped")
            binding.skipped = True
            return binding

        if not _json_media(response.content_type):
            record_warning(
                self.report, INVALID_SCHEMA_TYPE, response.pointer,
                f"response content type {response.content_type!r} is not JSON; "
                f"exposing the body as String",
            )
            binding.response = TypeDecision("string_fallback")
        else:
            binding.response = self.add(response.schema, OUTPUT, op=op, top_level=True)

        if op.request_body is not None:
            body = op.request_body
            if _json_media(body.content_type) or body.content_type == "application/x-www-form-urlencoded":
                binding.request = self.add(body.schema, INPUT, op=op, top_level=True)
                binding.request_content_type = body.content_type
            else:
                record_warning(
                    self.report, INVALID_SCHEMA_TYPE, body.pointer,
                    f"request content type {body.content_type!r} is not JSON; "
                    f"accepting the payload as String",
                )
                binding.request = TypeDecision("string_fallback")
                binding.request_content_type = body.content_type

        for param in op.parameters:
            if param.schema is None:
                record_warning(self.report, INVALID_SCHEMA_TYPE, param.pointer,
                               f"parameter {param.name!r} lacks a schema; assuming string")
                binding.params[param.name] = TypeDecision("string_fallback")
            else:
                binding.params[param.name] = self.add(
                    param.schema, INPUT, property_key=param.name, top_level=False
                )
        return binding

    def _select_response(self, op: OasOperation) -> tuple[str, OasResponse] | None:
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
        chosen = candidates[0]
        if op.responses[chosen].schema is None:
            return None
        return chosen, op.responses[chosen]

    # -- schema walk --------------------------------------------------------

    def add(self, schema: SchemaObject, direction: str, op: OasOperation | None = None,
            property_key: str | None = None, top_level: bool = False) -> TypeDecision:
        """Classify one schema node, creating a dictionary entry when it is
        new, unique, and nameable. Warnings fire here, once per node."""
        ref_name = None
        if schema.ref is not None:
            ref_name = unescape_last_token(schema.ref)
        resolved = self.doc.deref(schema)
        if resolved.all_of:
            resolved = self.doc.merge_all_of(resolved, self.report)

        known = self.dictionary.decisions.get((id(resolved), direction))
        if known is not None:
            return known

        decision = self._classify(resolved, direction, ref_name, op, property_key, top_level)
        self.dictionary.decisions[(id(resolved), direction)] = decision
        return decision

    def _classify(self, resolved: SchemaObject, direction: str, ref_name: str | None,
                  op: OasOperation | None, property_key: str | None,
                  top_level: bool) -> TypeDecision:
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
            if top_level:
                self._ensure_entry(resolved, direction, ref_name, op, property_key)
            item = self.add(resolved.items, direction, property_key=property_key)
            return TypeDecision("list", item=item)

        if stype == "string" and resolved.enum:
            return self._enum_entry(resolved, direction, ref_name, op, property_key)

        if stype in SCALAR_NAMES:
            if top_level:
                self._ensure_entry(resolved, direction, ref_name, op, property_key)
            return TypeDecision("scalar", name=SCALAR_NAMES[stype])

        if stype is None:
            record_warning(self.report, INVALID_SCHEMA_TYPE, resolved.pointer,
                           "schema lacks a type; falling back to string")
        else:
            record_warning(self.report, UNKNOWN_SCHEMA_TYPE, resolved.pointer,
                           f"schema type {stype!r} is unknown; falling back to string")
        return self._fallback_entry(resolved, direction, ref_name, op, property_key, top_level)

    def _object_entry(self, resolved, direction, ref_name, op, property_key) -> TypeDecision:
        existing = self._find_equal(resolved, direction)
        if existing is not None:
            return TypeDecision("entry", name=existing, entry_kind="object")
        name = self._new_entry(resolved, direction, ref_name, op, property_key)
        decision = TypeDecision("entry", name=name, entry_kind="object")
        # Reserve before recursing so reference cycles terminate.
        self.dictionary.decisions[(id(resolved), direction)] = decision
        scope = f"type:{name}"
        for key in sorted(resolved.properties):
            register_mapping(self.sanmap, scope, key, sanitize(key, self.casing))
            self.add(resolved.properties[key], direction, property_key=key)
        return decision

    def _enum_entry(self, resolved, direction, ref_name, op, property_key) -> TypeDecision:
        existing = self._find_equal(resolved, direction)
        if existing is not None:
            return TypeDecision("entry", name=existing, entry_kind="enum")
        name = self._new_entry(resolved, direction, ref_name, op, property_key)
        return TypeDecision("entry", name=name, entry_kind="enum")

    def _fallback_entry(self, resolved, direction, ref_name, op, property_key,
                        top_level) -> TypeDecision:
        if top_level:
            self._ensure_entry(resolved, direction, ref_name, op, property_key)
        return TypeDecision("string_fallback")

    def _ensure_entry(self, resolved, direction, ref_name, op, property_key) -> str:
        existing = self._find_equal(resolved, direction)
        if existing is not None:
            return existing
        return self._new_entry(resolved, direction, ref_name, op, property_key)

    def _bucket(self, resolved: SchemaObject, direction: str) -> tuple[str, int]:
        return direction, structure_key(resolved, self.doc, self._keys)

    def _find_equal(self, resolved: SchemaObject, direction: str) -> str | None:
        """The same-direction entry deep_equal to this schema, among those
        sharing its structure key."""
        for name in self.dictionary.by_structure.get(self._bucket(resolved, direction), []):
            if deep_equal(self.dictionary.entries[name].schema, resolved, self.doc):
                return name
        return None

    def _new_entry(self, resolved: SchemaObject, direction: str, ref_name: str | None,
                   op: OasOperation | None, property_key: str | None) -> str:
        # Type names share one global namespace; input variants carry an
        # Input suffix so an input/output pair never collides in the SDL.
        candidates = name_candidates(resolved, ref_name, op, property_key, self.casing)
        decorate = (lambda b: f"{b}Input") if direction == INPUT else (lambda b: b)
        name = base = origin = None
        for kind, detail, candidate_base in candidates:
            taken = self.dictionary.take_name(decorate(candidate_base))
            if taken:
                name, base, origin = taken, candidate_base, Provenance(kind, detail)
                break
        if name is None:
            kind, detail, candidate_base = candidates[-1]
            name = self.dictionary.take_suffixed(decorate(candidate_base))
            base, origin = candidate_base, Provenance(kind, detail, suffixed=True)
        entry = DictionaryEntry(
            name=name, base_name=base, schema=resolved, direction=direction,
            origin=origin, pointer=resolved.pointer,
        )
        self.dictionary.entries[name] = entry
        self.dictionary.by_structure.setdefault(self._bucket(resolved, direction), []).append(name)
        return name


def preprocess(doc: OasDocument, report: Report, casing: str = CAMEL) -> PreprocessResult:
    return Preprocessor(doc, report, casing).run()


def build_types_dictionary(doc: OasDocument, report: Report,
                           casing: str = CAMEL) -> TypesDictionary:
    """Spec-facing wrapper returning just the dictionary."""
    return preprocess(doc, report, casing).dictionary


def _json_media(content_type: str | None) -> bool:
    if content_type is None:
        return False
    base = content_type.split(";", 1)[0].strip().lower()
    if base == "application/json":
        return True
    return base.startswith("application/") and "json" in base


def unescape_last_token(pointer: str) -> str:
    token = pointer.rsplit("/", 1)[-1]
    return token.replace("~1", "/").replace("~0", "~")
