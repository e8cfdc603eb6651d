"""GraphQL schema assembly: the named types preprocessing built, links as
nested fields, security schemes as credential viewers, and root query and
mutation fields with resolve-plan bindings; then SDL printing.
"""

from __future__ import annotations

import json
from dataclasses import replace

from .ir import (
    CREDENTIAL_MEMBERS,
    ENUM,
    INPUT_OBJECT,
    LIST,
    NON_NULL,
    OBJECT,
    REFERENCE,
    ArgIR,
    FieldBinding,
    FieldIR,
    LinkExpression,
    SchemaIR,
    TypeIR,
    credential_kind,
    non_null,
    reference,
    scalar,
    type_str,
)
from .oas_ingest import (
    LinkDefinition,
    OasDocument,
    OasOperation,
    unescape_pointer_token,
)
from .preprocessing import PreprocessResult, first_free, lower_first, upper_first
from .report import UNSUPPORTED_FEATURE, Report, record_warning


# -- link attachment -------------------------------------------------------------


def attach_links(object_type: TypeIR, op: OasOperation, links: dict[str, LinkDefinition],
                 doc: OasDocument, pre: PreprocessResult, report: Report,
                 always_sent: frozenset[str]) -> int:
    """Add one extra field per usable link to the operation's response type.

    A required target argument relaxes to optional when its raw name is in
    ``always_sent``, what every operation reaching the type always sends: the
    propagated value then covers it. Returns the number of fields attached;
    unusable links are skipped with a warning rather than failing generation.
    """
    attached = 0
    for name, link in links.items():
        exprs = {key: parse_link_expression(text) for key, text in link.parameters.items()}
        # A list response's links go on the item type, where an index never resolves.
        indexed = [e.text for e in exprs.values()
                   if e is not None and e.source == "body" and e.tokens[0].isdigit()]
        if indexed and pre.fields[op.key].type.kind == LIST:
            record_warning(report, UNSUPPORTED_FEATURE, link.pointer,
                           f"link {name!r} on a list response indexes the list "
                           f"with {indexed[0]!r}; link skipped")
            continue
        target = _find_link_target(doc, link)
        if target is None or target.key not in pre.fields:
            record_warning(report, UNSUPPORTED_FEATURE, link.pointer,
                           f"link {name!r} targets a missing or skipped operation; link skipped")
            continue
        if link.request_body is not None:
            record_warning(report, UNSUPPORTED_FEATURE, link.pointer,
                           f"link {name!r} uses a requestBody expression; link skipped")
            continue
        unsupported = [link.parameters[key] for key, e in exprs.items() if e is None]
        if unsupported:
            record_warning(report, UNSUPPORTED_FEATURE, link.pointer,
                           f"link {name!r} uses unsupported runtime expression "
                           f"{unsupported[0]!r}; link skipped")
            continue

        target_field = pre.fields[target.key]
        link_params = {arg_name: expr for key, expr in exprs.items()
                       if (arg_name := _link_argument(target_field.args, key)) is not None}
        binding = FieldBinding("operation", plan_key=target.key, link_params=link_params)
        # The same link declared for another operation of this type is the
        # field already there, with the same arguments.
        if any(f.binding == binding for f in object_type.fields.values()):
            continue
        args = {arg_name: _relaxed(arg) if arg.raw in always_sent else arg
                for arg_name, arg in target_field.args.items() if arg_name not in link_params}
        field_name = first_free(lower_first(pre.names[name]), object_type.fields)
        object_type.fields[field_name] = FieldIR(
            name=field_name, type=target_field.type, args=args,
            description=link.description, binding=binding,
        )
        attached += 1
    return attached


def _link_argument(args: dict[str, ArgIR], key: str) -> str | None:
    """The target argument a link parameter key binds: a qualified key
    (``path.id``, ``query.id``, ``header.X``) the parameter in that location,
    any other key the first declared parameter of that raw name."""
    location, _, raw = key.partition(".")
    for arg in args.values():
        if (arg.location, arg.raw) == (location, raw):
            return arg.name
    return next((arg.name for arg in args.values() if arg.raw == key), None)


def _relaxed(arg: ArgIR) -> ArgIR:
    return replace(arg, type=arg.type.of_type) if arg.type.kind == NON_NULL else arg


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


def parse_link_expression(text: str) -> LinkExpression | None:
    """The record of a supported runtime expression, or None for any other.
    A body pointer's tokens are unescaped as JSON pointer tokens."""
    if text.startswith("$response.body#/"):
        tokens = text[len("$response.body#/"):].split("/")
        return LinkExpression(text, "body", tuple(map(unescape_pointer_token, tokens)))
    for source in ("path", "query"):
        prefix = f"$request.{source}."
        if text.startswith(prefix) and len(text) > len(prefix):
            return LinkExpression(text, source, (text[len(prefix):],))
    return None


# -- schema assembly ---------------------------------------------------------------


PLACEHOLDER_DESCRIPTION = ("Inert placeholder: this API exposes no GET operations, "
                           "so the query root has no data fields.")


class SchemaAssembler:
    """Builds the SchemaIR: named types, root fields, viewers, link fields."""

    def __init__(self, doc: OasDocument, pre: PreprocessResult, report: Report):
        self.doc = doc
        self.pre = pre
        self.report = report
        self._credential_types: dict[str, str] = {}  # scheme name -> input type name

    def assemble(self) -> SchemaIR:
        schema = SchemaIR(types=dict(self.pre.dictionary.types))
        self.report.stats.types_created = len(schema.types)

        attached = 0
        always_sent = None
        for op in self.doc.operations:
            root = self.pre.fields.get(op.key)
            if root is None or not (links := op.links()):
                continue
            target_type = self._response_object_type(root, schema)
            if target_type is None:
                for link in links.values():
                    record_warning(self.report, UNSUPPORTED_FEATURE, link.pointer,
                                   "link declared on a non-object response; link skipped")
                continue
            if always_sent is None:  # before any link field joins the types
                always_sent = self._always_sent()
            attached += attach_links(target_type, op, links, self.doc, self.pre, self.report,
                                     always_sent[target_type.name])
        self.report.stats.links_attached = attached

        self._place_operations(schema)
        if not schema.query_fields:
            schema.query_fields["placeholder"] = FieldIR(
                name="placeholder", type=scalar("String"),
                description=PLACEHOLDER_DESCRIPTION,
                binding=FieldBinding("placeholder"),
            )
        self.report.stats.viewers_created = sum(
            1 for root in (schema.query_fields, schema.mutation_fields)
            for field_ir in root.values() if field_ir.binding.kind == "viewer")
        return schema

    def _response_object_type(self, root: FieldIR, schema: SchemaIR) -> TypeIR | None:
        response = root.type
        if response.kind == LIST:
            response = response.of_type
        if response.kind != REFERENCE:
            return None
        type_ir = schema.types[response.name]
        return type_ir if type_ir.kind == OBJECT else None

    def _always_sent(self) -> dict[str, frozenset[str]]:
        """Per named type, the raw names that every bound operation whose
        response reaches it, through object fields and list items, always
        sends: its required parameters and those with a default."""
        types = self.pre.dictionary.types
        always_sent: dict[str, frozenset[str]] = {}
        stack: list[tuple[str, frozenset[str]]] = []
        for op in self.doc.operations:
            root = self.pre.fields.get(op.key)
            if root is not None:
                sends = frozenset(p.name for p in op.parameters
                                  if p.required or p.default is not None)
                stack.append((root.type.unwrap().name, sends))
        while stack:  # a type's set only shrinks, so the walk ends
            name, sends = stack.pop()
            type_ir, known = types.get(name), always_sent.get(name)
            if type_ir is None or type_ir.fields is None or (known is not None and known <= sends):
                continue  # not an object type, or nothing to take away
            always_sent[name] = sends = sends if known is None else known & sends
            stack.extend((f.type.unwrap().name, sends) for f in type_ir.fields.values())
        return always_sent

    # -- root field placement -------------------------------------------------

    def _place_operations(self, schema: SchemaIR) -> None:
        viewer_groups: dict[tuple[str, str], list[FieldIR]] = {}  # (side, scheme) -> fields
        any_auth_fields: dict[str, list[FieldIR]] = {"query": [], "mutation": []}
        for op in self.doc.operations:
            field_ir = self.pre.fields.get(op.key)
            if field_ir is None:
                continue
            side = "query" if op.method == "get" else "mutation"
            eligible = [name for name in op.security
                        if credential_kind(self.doc.security_schemes[name])]
            for scheme_name in eligible:
                viewer_groups.setdefault((side, scheme_name), []).append(field_ir)
            if eligible:
                any_auth_fields[side].append(field_ir)
            else:
                _place(_root_fields(schema, side), field_ir)

        for (side, scheme_name), members in viewer_groups.items():
            kind = credential_kind(self.doc.security_schemes[scheme_name])
            self._add_viewer(
                schema, side, upper_first(self.pre.names[scheme_name]), members,
                f"Gates operations secured by {scheme_name!r}; credentials propagate to "
                f"every nested resolution.",
                f"Supplies {kind} credentials for {scheme_name!r}.",
                {m: ArgIR(m, non_null(scalar("String"))) for m in CREDENTIAL_MEMBERS[kind]},
                FieldBinding("viewer", schemes=[scheme_name]),
            )
        for side, members in any_auth_fields.items():
            if members:
                self._add_any_auth_viewer(schema, side, members)

    # -- viewers -----------------------------------------------------------------

    def _add_any_auth_viewer(self, schema: SchemaIR, side: str,
                             members: list[FieldIR]) -> None:
        args: dict[str, ArgIR] = {}
        credential_args: dict[str, str] = {}
        for scheme_name, scheme in self.doc.security_schemes.items():
            if credential_kind(scheme):
                cred_type = self._credential_type(schema, scheme_name, scheme)
                arg_name = first_free(lower_first(self.pre.names[scheme_name]), args)
                args[arg_name] = ArgIR(arg_name, reference(cred_type))
                credential_args[arg_name] = scheme_name
        self._add_viewer(
            schema, side, "AnyAuth", members,
            "Accepts credentials for several schemes at once, so nested queries can span "
            "differently secured operations.",
            "Combined-credential viewer.", args,
            FieldBinding("viewer", schemes=list(credential_args.values()),
                         credential_args=credential_args),
        )

    def _add_viewer(self, schema: SchemaIR, side: str, base: str, members: list[FieldIR],
                    type_description: str, description: str, args: dict[str, ArgIR],
                    binding: FieldBinding) -> None:
        """A viewer root field on side, named for base, of a new object type
        holding members."""
        root_fields = _root_fields(schema, side)
        prefix = "viewer" if side == "query" else "mutationViewer"
        field_name = first_free(f"{prefix}{base}", root_fields)
        type_name = self.pre.dictionary.take(upper_first(field_name))
        fields: dict[str, FieldIR] = {}
        for field_ir in members:
            _place(fields, field_ir)
        schema.types[type_name] = TypeIR(OBJECT, name=type_name, fields=fields,
                                         description=type_description)
        root_fields[field_name] = FieldIR(
            name=field_name, type=non_null(reference(type_name)), args=args,
            description=description, binding=binding,
        )

    def _credential_type(self, schema: SchemaIR, scheme_name: str, scheme) -> str:
        """One credential input type per scheme, shared by both viewer sides."""
        if scheme_name in self._credential_types:
            return self._credential_types[scheme_name]
        pretty = upper_first(self.pre.names[scheme_name])
        name = self._credential_types[scheme_name] = self.pre.dictionary.take(f"{pretty}Credentials")
        fields = {member: FieldIR(member, non_null(scalar("String")))
                  for member in CREDENTIAL_MEMBERS[credential_kind(scheme)]}
        schema.types[name] = TypeIR(INPUT_OBJECT, name=name, fields=fields,
                                    description=f"Credential group for {scheme_name!r}.")
        return name


def _root_fields(schema: SchemaIR, side: str) -> dict[str, FieldIR]:
    return schema.query_fields if side == "query" else schema.mutation_fields


def _place(fields: dict[str, FieldIR], field_ir: FieldIR) -> None:
    """Add field_ir to fields under the first free of its name, name2, ..."""
    name = first_free(field_ir.name, fields)
    fields[name] = field_ir if name == field_ir.name else replace(field_ir, name=name)


def assemble_schema(doc: OasDocument, pre: PreprocessResult, report: Report) -> SchemaIR:
    return SchemaAssembler(doc, pre, report).assemble()


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
                f"{arg.name}: {type_str(arg.type)}" for arg in field_ir.args.values()
            )
            entry += f"({rendered})"
        entry += f": {type_str(field_ir.type)}"
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


def _string_literal(text: str) -> str:
    return json.dumps(text)
