"""GraphQL schema generation: dictionary entries become typed IR, links become
nested fields, security schemes become credential viewers, and everything is
assembled into root query/mutation fields with resolve-plan bindings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .oas_ingest import (
    LinkDefinition,
    OasDocument,
    OasOperation,
    unescape_pointer_token,
)
from .preprocessing import (
    OUTPUT,
    DictionaryEntry,
    OperationBinding,
    PreprocessResult,
    SanitationMap,
    TypeDecision,
    TypesDictionary,
    sanitize,
    sanitize_enum_value,
)
from .report import UNSUPPORTED_FEATURE, Report, record_warning
from .resolver_runtime import ResolvePlan

SCALAR = "Scalar"
ENUM = "Enum"
OBJECT = "Object"
INPUT_OBJECT = "InputObject"
LIST = "List"
NON_NULL = "NonNull"
REFERENCE = "Reference"

SCALAR_TYPE_NAMES = ("Int", "Float", "String", "Boolean", "ID")


@dataclass
class TypeIR:
    kind: str
    name: str | None = None
    of_type: "TypeIR | None" = None
    fields: "dict[str, FieldIR] | None" = None
    enum_values: list[str] | None = None
    description: str | None = None

    def unwrap(self) -> "TypeIR":
        t = self
        while t.of_type is not None:
            t = t.of_type
        return t


def scalar(name: str) -> TypeIR:
    return TypeIR(SCALAR, name=name)


def reference(name: str) -> TypeIR:
    return TypeIR(REFERENCE, name=name)


def list_of(inner: TypeIR) -> TypeIR:
    return TypeIR(LIST, of_type=inner)


def non_null(inner: TypeIR) -> TypeIR:
    if inner.kind == NON_NULL:
        return inner
    return TypeIR(NON_NULL, of_type=inner)


def resolve_type(t: TypeIR, types: dict[str, TypeIR]) -> TypeIR:
    if t.kind == REFERENCE:
        return types[t.name]
    return t


@dataclass
class ArgIR:
    name: str
    type: TypeIR
    description: str | None = None


@dataclass
class FieldBinding:
    kind: str  # "operation" | "viewer" | "placeholder"
    plan_key: str | None = None
    link_params: dict[str, str] = field(default_factory=dict)  # raw param -> expression
    schemes: list[str] = field(default_factory=list)  # viewer credential schemes
    credential_args: dict[str, str] = field(default_factory=dict)  # anyAuth: arg -> scheme


@dataclass
class FieldIR:
    name: str
    type: TypeIR
    args: dict[str, ArgIR] = field(default_factory=dict)
    description: str | None = None
    binding: FieldBinding | None = None


@dataclass
class ViewerSpec:
    kind: str  # apiKey | basicAuth | anyAuth
    scheme_name: str  # "" for anyAuth
    root_side: str  # query | mutation
    field_name: str
    type_name: str
    args: dict[str, ArgIR] = field(default_factory=dict)
    wrapped_fields: list[str] = field(default_factory=list)


@dataclass
class SchemaIR:
    types: dict[str, TypeIR] = field(default_factory=dict)
    query_fields: dict[str, FieldIR] = field(default_factory=dict)
    mutation_fields: dict[str, FieldIR] = field(default_factory=dict)
    viewers: list[ViewerSpec] = field(default_factory=list)


# -- entry translation ---------------------------------------------------------


def type_from_decision(decision: TypeDecision | None) -> TypeIR:
    if decision is None:
        return scalar("String")
    if decision.kind == "entry":
        return reference(decision.name)
    if decision.kind == "scalar":
        return scalar(decision.name)
    if decision.kind == "list":
        return list_of(type_from_decision(decision.item))
    return scalar("String")  # string_fallback


def translate_schema(entry: DictionaryEntry, dictionary: TypesDictionary,
                     sanmap: SanitationMap, report: Report, doc: OasDocument,
                     casing: str = "camel") -> TypeIR | None:
    """Translate one dictionary entry to a named GraphQL type.

    Entries holding plain scalars or fallback shapes produce no named type
    (their uses are typed inline); returns None for those.
    """
    schema = entry.schema
    if schema.type == "string" and schema.enum:
        scope = f"type:{entry.name}"
        values = []
        for value in schema.enum:
            sanitized = sanitize_enum_value(value, casing)
            final = sanmap.register(scope, str(value), sanitized)
            if final not in values:  # a repeated raw value maps to the same name
                values.append(final)
        return TypeIR(ENUM, name=entry.name, enum_values=values,
                      description=schema.description)

    if schema.type == "object" and schema.properties:
        scope = f"type:{entry.name}"
        registered = sanmap.scope(scope).forward  # preprocessing names every property
        fields: dict[str, FieldIR] = {}
        for key in sorted(schema.properties):
            child = schema.properties[key]
            field_name = registered.get(key) or sanmap.register(scope, key, sanitize(key, casing))
            child_decision = decision_for_child(child, entry.direction, dictionary, doc)
            field_type = type_from_decision(child_decision)
            if key in schema.required:
                field_type = non_null(field_type)
            child_resolved = doc.deref(child)
            fields[field_name] = FieldIR(
                name=field_name, type=field_type,
                description=child_resolved.description,
            )
        kind = OBJECT if entry.direction == OUTPUT else INPUT_OBJECT
        return TypeIR(kind, name=entry.name, fields=fields, description=schema.description)

    return None


def decision_for_child(schema, direction: str, dictionary: TypesDictionary,
                       doc: OasDocument) -> TypeDecision | None:
    resolved = doc.canonical_schema(schema)
    return dictionary.decisions.get((id(resolved), direction))


# -- link attachment -------------------------------------------------------------


def attach_links(object_type: TypeIR, op: OasOperation, links: dict[str, LinkDefinition],
                 doc: OasDocument, plans: dict[str, ResolvePlan],
                 bindings: dict[str, OperationBinding], report: Report, casing: str = "camel") -> int:
    """Add one extra field per usable link to the operation's response type.

    Returns the number of fields attached; unusable links are skipped with a
    warning rather than failing generation.
    """
    attached = 0
    for name, link in links.items():
        # A list response's links go on the item type, where an index never resolves.
        indexed = [e for e in link.parameters.values() if _indexes_body(e)]
        if indexed and bindings[op.key].response.kind == "list":
            record_warning(report, UNSUPPORTED_FEATURE, link.pointer,
                           f"link {name!r} on a list response indexes the list "
                           f"with {indexed[0]!r}; link skipped")
            continue
        target = _find_link_target(doc, link)
        if target is None or target.key not in plans or bindings[target.key].skipped:
            record_warning(report, UNSUPPORTED_FEATURE, link.pointer,
                           f"link {name!r} targets a missing or skipped operation; link skipped")
            continue
        if link.request_body is not None:
            record_warning(report, UNSUPPORTED_FEATURE, link.pointer,
                           f"link {name!r} uses a requestBody expression; link skipped")
            continue
        unsupported = [e for e in link.parameters.values() if not supported_expression(e)]
        if unsupported:
            record_warning(report, UNSUPPORTED_FEATURE, link.pointer,
                           f"link {name!r} uses unsupported runtime expression "
                           f"{unsupported[0]!r}; link skipped")
            continue

        target_plan = plans[target.key]
        field_name = lower_first(sanitize(name, casing))
        base = field_name
        counter = 2
        while field_name in object_type.fields:
            field_name = f"{base}{counter}"
            counter += 1

        parent_params = {p.name for p in op.parameters}
        args: dict[str, ArgIR] = {}
        for arg_name, param in target_plan.parameter_map.items():
            if param.raw_name in link.parameters:
                continue  # satisfied by the link expression
            arg_type = type_from_decision(param.decision)
            # A required parameter stays required on the link field unless the
            # parent operation declares the same raw name, in which case the
            # propagated value covers it and the argument relaxes to optional.
            if param.required and param.raw_name not in parent_params:
                arg_type = non_null(arg_type)
            args[arg_name] = ArgIR(arg_name, arg_type, param.description)
        if target_plan.payload_arg is not None:
            payload_type = type_from_decision(bindings[target.key].request)
            if target_plan.payload_required:
                payload_type = non_null(payload_type)
            args[target_plan.payload_arg] = ArgIR(target_plan.payload_arg, payload_type)

        object_type.fields[field_name] = FieldIR(
            name=field_name,
            type=type_from_decision(bindings[target.key].response),
            args=args,
            description=link.description,
            binding=FieldBinding("operation", plan_key=target.key,
                                 link_params=dict(link.parameters)),
        )
        attached += 1
    return attached


def _find_link_target(doc: OasDocument, link: LinkDefinition) -> OasOperation | None:
    if link.operation_id:
        return doc.find_operation(operation_id=link.operation_id)
    if link.operation_ref:
        ref = link.operation_ref
        if not ref.startswith("#/paths/"):
            return None
        tokens = ref[len("#/paths/"):].split("/")
        if len(tokens) != 2:
            return None
        path = unescape_pointer_token(tokens[0])
        return doc.find_operation(method=tokens[1].lower(), path=path)
    return None


def supported_expression(expr: str) -> bool:
    if expr.startswith("$response.body#/"):
        return True
    if expr.startswith("$request.path.") or expr.startswith("$request.query."):
        return len(expr.split(".", 2)[2]) > 0
    return False


def _indexes_body(expr: str) -> bool:
    """A ``$response.body#/`` expression whose pointer starts with an index."""
    return (expr.startswith("$response.body#/")
            and expr[len("$response.body#/"):].split("/", 1)[0].isdigit())


def lower_first(name: str) -> str:
    return name[:1].lower() + name[1:]


def upper_first(name: str) -> str:
    return name[:1].upper() + name[1:]


# -- schema assembly ---------------------------------------------------------------


PLACEHOLDER_DESCRIPTION = ("Inert placeholder: this API exposes no GET operations, "
                           "so the query root has no data fields.")


def viewer_eligible(scheme) -> bool:
    return scheme.type == "apiKey" or (scheme.type == "http" and scheme.http_scheme == "basic")


class SchemaAssembler:
    """Builds the SchemaIR: named types, root fields, viewers, link fields."""

    def __init__(self, doc: OasDocument, pre: PreprocessResult,
                 plans: dict[str, ResolvePlan], report: Report, casing: str = "camel"):
        self.doc = doc
        self.pre = pre
        self.plans = plans
        self.report = report
        self.casing = casing
        self._credential_types: dict[str, str] = {}  # scheme name -> input type name

    def assemble(self) -> SchemaIR:
        schema = SchemaIR()
        dictionary = self.pre.dictionary
        sanmap = self.pre.sanmap

        for entry in list(dictionary.entries.values()):
            type_ir = translate_schema(entry, dictionary, sanmap, self.report,
                                       self.doc, self.casing)
            if type_ir is not None:
                schema.types[entry.name] = type_ir
        self.report.stats.types_created = len(schema.types)

        attached = 0
        for op in self.doc.operations:
            binding = self.pre.bindings[op.key]
            if binding.skipped:
                continue
            links = op.links()
            if not links:
                continue
            target_type = self._response_object_type(binding, schema)
            if target_type is None:
                for link in links.values():
                    record_warning(self.report, UNSUPPORTED_FEATURE, link.pointer,
                                   "link declared on a non-object response; link skipped")
                continue
            attached += attach_links(target_type, op, links, self.doc, self.plans,
                                     self.pre.bindings, self.report, self.casing)
        self.report.stats.links_attached = attached

        self._place_operations(schema)
        if not schema.query_fields:
            schema.query_fields["placeholder"] = FieldIR(
                name="placeholder", type=scalar("String"),
                description=PLACEHOLDER_DESCRIPTION,
                binding=FieldBinding("placeholder"),
            )
        self.report.stats.viewers_created = len(schema.viewers)
        return schema

    def _response_object_type(self, binding: OperationBinding,
                              schema: SchemaIR) -> TypeIR | None:
        decision = binding.response
        if decision is None:
            return None
        if decision.kind == "list":
            decision = decision.item
        if decision is None or decision.kind != "entry":
            return None
        type_ir = schema.types.get(decision.name)
        if type_ir is not None and type_ir.kind == OBJECT:
            return type_ir
        return None

    # -- root field placement -------------------------------------------------

    def _place_operations(self, schema: SchemaIR) -> None:
        root_names: dict[str, dict[str, int]] = {"query": {}, "mutation": {}}
        # (side, scheme) -> list of (field_name, FieldIR)
        viewer_groups: dict[tuple[str, str], list[tuple[str, FieldIR]]] = {}
        any_auth_fields: dict[str, list[tuple[str, FieldIR]]] = {"query": [], "mutation": []}

        for op in self.doc.operations:
            binding = self.pre.bindings[op.key]
            if binding.skipped:
                continue
            side = "query" if op.method == "get" else "mutation"
            field_ir = self._operation_field(op, binding)
            eligible = [name for name in op.security
                        if name in self.doc.security_schemes
                        and viewer_eligible(self.doc.security_schemes[name])]
            if eligible:
                for scheme_name in eligible:
                    viewer_groups.setdefault((side, scheme_name), []).append(
                        (field_ir.name, field_ir))
                any_auth_fields[side].append((field_ir.name, field_ir))
            else:
                name = _unique(root_names[side], field_ir.name)
                target = schema.query_fields if side == "query" else schema.mutation_fields
                target[name] = _renamed(field_ir, name)

        for (side, scheme_name), members in viewer_groups.items():
            self._add_scheme_viewer(schema, side, scheme_name, members, root_names[side])
        for side, members in any_auth_fields.items():
            if members:
                self._add_any_auth_viewer(schema, side, members, root_names[side])

    def _operation_field(self, op: OasOperation, binding: OperationBinding) -> FieldIR:
        plan = self.plans[op.key]
        field_type = type_from_decision(binding.response)
        args: dict[str, ArgIR] = {}
        for arg_name, param in plan.parameter_map.items():
            arg_type = type_from_decision(param.decision)
            if param.required:
                arg_type = non_null(arg_type)
            args[arg_name] = ArgIR(arg_name, arg_type, param.description)
        if plan.payload_arg is not None:
            payload_type = type_from_decision(binding.request)
            if plan.payload_required:
                payload_type = non_null(payload_type)
            args[plan.payload_arg] = ArgIR(plan.payload_arg, payload_type,
                                           op.request_body.description if op.request_body else None)
        return FieldIR(
            name=self._field_base(op, binding), type=field_type, args=args,
            description=op.description,
            binding=FieldBinding("operation", plan_key=op.key),
        )

    def _field_base(self, op: OasOperation, binding: OperationBinding) -> str:
        decision = binding.response
        if (decision is not None and decision.kind == "entry"
                and decision.entry_kind in ("object", "enum")):
            return lower_first(self.pre.dictionary.entries[decision.name].base_name)
        return lower_first(sanitize(f"{op.method.lower()}{op.path}", self.casing))

    # -- viewers -----------------------------------------------------------------

    def _add_scheme_viewer(self, schema: SchemaIR, side: str, scheme_name: str,
                           members: list[tuple[str, FieldIR]],
                           root_names: dict[str, int]) -> None:
        scheme = self.doc.security_schemes[scheme_name]
        pretty = upper_first(sanitize(scheme_name, self.casing))
        prefix = "viewer" if side == "query" else "mutationViewer"
        field_name = _unique(root_names, f"{prefix}{pretty}")
        type_name = self._take_type_name(upper_first(field_name))

        if scheme.type == "apiKey":
            kind = "apiKey"
            args = {"apiKey": ArgIR("apiKey", non_null(scalar("String")),
                                    f"API key for security scheme {scheme_name!r}")}
        else:
            kind = "basicAuth"
            args = {
                "username": ArgIR("username", non_null(scalar("String"))),
                "password": ArgIR("password", non_null(scalar("String"))),
            }

        fields = self._viewer_member_fields(members)
        schema.types[type_name] = TypeIR(
            OBJECT, name=type_name, fields=fields,
            description=f"Gates operations secured by {scheme_name!r}; credentials "
                        f"propagate to every nested resolution.",
        )
        container = schema.query_fields if side == "query" else schema.mutation_fields
        container[field_name] = FieldIR(
            name=field_name, type=non_null(reference(type_name)), args=args,
            description=f"Supplies {kind} credentials for {scheme_name!r}.",
            binding=FieldBinding("viewer", schemes=[scheme_name]),
        )
        schema.viewers.append(ViewerSpec(
            kind=kind, scheme_name=scheme_name, root_side=side,
            field_name=field_name, type_name=type_name, args=args,
            wrapped_fields=sorted(fields),
        ))

    def _add_any_auth_viewer(self, schema: SchemaIR, side: str,
                             members: list[tuple[str, FieldIR]],
                             root_names: dict[str, int]) -> None:
        prefix = "viewer" if side == "query" else "mutationViewer"
        field_name = _unique(root_names, f"{prefix}AnyAuth")
        type_name = self._take_type_name(upper_first(field_name))

        args: dict[str, ArgIR] = {}
        arg_names: dict[str, int] = {}
        credential_args: dict[str, str] = {}
        schemes: list[str] = []
        for scheme_name, scheme in self.doc.security_schemes.items():
            if not viewer_eligible(scheme):
                continue
            schemes.append(scheme_name)
            cred_type = self._credential_type(schema, scheme_name, scheme)
            arg_name = _unique(arg_names, lower_first(sanitize(scheme_name, self.casing)))
            args[arg_name] = ArgIR(arg_name, reference(cred_type),
                                   f"Credentials for scheme {scheme_name!r}.")
            credential_args[arg_name] = scheme_name

        fields = self._viewer_member_fields(members)
        schema.types[type_name] = TypeIR(
            OBJECT, name=type_name, fields=fields,
            description="Accepts credentials for several schemes at once, so nested "
                        "queries can span differently secured operations.",
        )
        container = schema.query_fields if side == "query" else schema.mutation_fields
        container[field_name] = FieldIR(
            name=field_name, type=non_null(reference(type_name)), args=args,
            description="Combined-credential viewer.",
            binding=FieldBinding("viewer", schemes=schemes, credential_args=credential_args),
        )
        schema.viewers.append(ViewerSpec(
            kind="anyAuth", scheme_name="", root_side=side,
            field_name=field_name, type_name=type_name, args=args,
            wrapped_fields=sorted(fields),
        ))

    def _viewer_member_fields(self, members: list[tuple[str, FieldIR]]) -> dict[str, FieldIR]:
        names: dict[str, int] = {}
        fields: dict[str, FieldIR] = {}
        for base_name, field_ir in members:
            name = _unique(names, base_name)
            fields[name] = _renamed(field_ir, name)
        return fields

    def _credential_type(self, schema: SchemaIR, scheme_name: str, scheme) -> str:
        """One credential input type per scheme, shared by both viewer sides."""
        if scheme_name in self._credential_types:
            return self._credential_types[scheme_name]
        pretty = upper_first(sanitize(scheme_name, self.casing))
        name = self._credential_types[scheme_name] = self._take_type_name(f"{pretty}Credentials")
        if scheme.type == "apiKey":
            fields = {"apiKey": FieldIR("apiKey", non_null(scalar("String")))}
        else:
            fields = {
                "username": FieldIR("username", non_null(scalar("String"))),
                "password": FieldIR("password", non_null(scalar("String"))),
            }
        schema.types[name] = TypeIR(INPUT_OBJECT, name=name, fields=fields,
                                    description=f"Credential group for {scheme_name!r}.")
        return name

    def _take_type_name(self, wanted: str) -> str:
        dictionary = self.pre.dictionary
        return dictionary.take_name(wanted) or dictionary.take_suffixed(wanted)


def _unique(registry: dict[str, int], base: str) -> str:
    if base not in registry:
        registry[base] = 1
        return base
    registry[base] += 1
    candidate = f"{base}{registry[base]}"
    while candidate in registry:
        registry[base] += 1
        candidate = f"{base}{registry[base]}"
    registry[candidate] = 1
    return candidate


def _renamed(field_ir: FieldIR, name: str) -> FieldIR:
    if field_ir.name == name:
        return field_ir
    return FieldIR(name=name, type=field_ir.type, args=field_ir.args,
                   description=field_ir.description, binding=field_ir.binding)


def assemble_schema(doc: OasDocument, pre: PreprocessResult,
                    plans: dict[str, ResolvePlan], report: Report,
                    casing: str = "camel") -> SchemaIR:
    return SchemaAssembler(doc, pre, plans, report, casing).assemble()


# -- SDL printing -------------------------------------------------------------------


def print_sdl(schema: SchemaIR) -> str:
    """Deterministic SDL text: Query, then Mutation, then named types sorted by
    name; fields in insertion order. Re-parses to an equivalent SchemaIR."""
    blocks: list[str] = []
    blocks.append(_fields_block("type", "Query", None, schema.query_fields))
    if schema.mutation_fields:
        blocks.append(_fields_block("type", "Mutation", None, schema.mutation_fields))
    for name in sorted(schema.types):
        type_ir = schema.types[name]
        if type_ir.kind == ENUM:
            blocks.append(_enum_block(type_ir))
        elif type_ir.kind == INPUT_OBJECT:
            blocks.append(_fields_block("input", name, type_ir.description, type_ir.fields))
        else:
            blocks.append(_fields_block("type", name, type_ir.description, type_ir.fields))
    return "\n\n".join(blocks) + "\n"


def _fields_block(keyword: str, name: str, description: str | None,
                  fields: dict[str, FieldIR]) -> str:
    lines: list[str] = []
    if description:
        lines.append(_string_literal(description))
    lines.append(f"{keyword} {name} {{")
    for field_ir in fields.values():
        if field_ir.description:
            lines.append(f"  {_string_literal(field_ir.description)}")
        entry = f"  {field_ir.name}"
        if field_ir.args:
            rendered = ", ".join(
                f"{arg.name}: {_type_literal(arg.type)}" for arg in field_ir.args.values()
            )
            entry += f"({rendered})"
        entry += f": {_type_literal(field_ir.type)}"
        lines.append(entry)
    lines.append("}")
    return "\n".join(lines)


def _enum_block(type_ir: TypeIR) -> str:
    lines: list[str] = []
    if type_ir.description:
        lines.append(_string_literal(type_ir.description))
    lines.append(f"enum {type_ir.name} {{")
    for value in type_ir.enum_values or []:
        lines.append(f"  {value}")
    lines.append("}")
    return "\n".join(lines)


def _type_literal(t: TypeIR) -> str:
    if t.kind == NON_NULL:
        return _type_literal(t.of_type) + "!"
    if t.kind == LIST:
        return f"[{_type_literal(t.of_type)}]"
    return t.name or "String"


def _string_literal(text: str) -> str:
    return json.dumps(text)
