"""Seeded input generators for the four workloads.

Every generator is a pure function of the seed: the same seed gives the same
bytes. The seed changes names, enum values and data, never the shape of the
work, so that counts such as deep_equal calls or upstream requests per query
are the same for every seed.

Each generator also returns the facts the checkers need (distinct structures,
operation counts, the GraphQL names the queries use, the data the stub
serves). These come from the generator's own model, never from the program.
"""

from __future__ import annotations

import hashlib
import json
import random

# All five letters long, so that a seed changes names but not their sizes.
WORDS = (
    "amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heath",
    "ivory", "jewel", "karst", "lemon", "maple", "nylon", "olive", "pearl",
    "quilt", "raven", "sable", "tulip", "umbra", "vapor", "wheat", "xenon",
    "yacht", "zebra", "acorn", "basil", "coral", "dunes", "eagle", "flint",
    "glade", "hazel", "inlet", "jolly", "kiosk", "lilac", "mango", "north",
    "ocean", "prism", "quail", "ridge", "slate", "thyme", "urban", "vigor",
)

# gen-dedup: one bucket of schemas that share their top-level keys.
DEDUP_SCHEMAS = 36
DEDUP_CLASSES = 27
DEDUP_DOCS = 4
DEDUP_SCALAR_KEYS = 8

# gen-corpus: synthetic documents added to the fixture corpus.
CORPUS_SYNTHETIC = 8
CORPUS_RESOURCES = 1

# serve-fanout: aliased link chains and aliased mutations.
FANOUT_USERS = 4
FANOUT_COMPANIES = 3
FANOUT_ALIASES = 12
FANOUT_READS = 4  # per round, with one mutation
FANOUT_MUTATION_ALIASES = 3

# serve-wide: one upstream call returning a wide list.
WIDE_PAGES = 4
WIDE_ITEMS = 200


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def camel(words: list[str]) -> str:
    """The GraphQL name the paper's camel-case sanitation gives a key built
    from these words with separators between them."""
    return words[0] + "".join(w.capitalize() for w in words[1:])


def dumps(doc) -> bytes:
    return json.dumps(doc, indent=1).encode("utf-8")


def _distinct_words(rng: random.Random, count: int) -> list[str]:
    return rng.sample(WORDS, count)


# -- structure counting --------------------------------------------------------


def named_structures(schema: dict, components: dict, out: set):
    """Add to out the canonical form of every object and enum reachable from
    a schema, the way a structural de-duplicator should see them: titles and
    descriptions ignored, property order and enum order irrelevant. Returns
    the schema's own canonical form."""
    if "$ref" in schema:
        schema = components[schema["$ref"].rsplit("/", 1)[1]]
    if "enum" in schema:
        key = ("enum", schema.get("type"), tuple(sorted(json.dumps(v) for v in schema["enum"])))
        out.add(key)
        return key
    if schema.get("type") == "object":
        props = tuple(sorted((name, named_structures(child, components, out))
                             for name, child in schema["properties"].items()))
        key = ("object", props, tuple(sorted(schema.get("required", []))))
        out.add(key)
        return key
    if schema.get("type") == "array":
        return ("array", named_structures(schema["items"], components, out))
    return ("scalar", schema.get("type"))


# -- gen-dedup -------------------------------------------------------------------


def dedup_class_of(index: int) -> int:
    """Schema i < DEDUP_CLASSES opens its own class; later schemas repeat an
    earlier class at fixed positions, so the work is the same for every seed."""
    if index < DEDUP_CLASSES:
        return index
    return ((index - DEDUP_CLASSES) * 7) % DEDUP_CLASSES


def make_dedup_documents(seed: int) -> list[dict]:
    """DEDUP_DOCS OAS 3 documents. In each, DEDUP_SCHEMAS component schemas
    share their top-level keys and differ only in an enum nested inside the
    last property, so a shallow fingerprint puts them all in one bucket."""
    rng = rng_for("gen-dedup", seed)
    docs = []
    for doc_index in range(DEDUP_DOCS):
        words = _distinct_words(rng, DEDUP_SCALAR_KEYS * 2 + 4)
        scalar_types = ["integer", "string", "string", "number", "boolean", "string",
                        "integer", "string"]
        keys = [f"{words[2 * k]}_{words[2 * k + 1]}" for k in range(DEDUP_SCALAR_KEYS)]
        state_values = [f"{w}_state" for w in words[-4:]]
        kind_words = _distinct_words(rng, 4)
        title_words = _distinct_words(rng, 8)
        components: dict[str, dict] = {}
        paths: dict[str, dict] = {}
        for i in range(DEDUP_SCHEMAS):
            cls = dedup_class_of(i)
            props: dict[str, dict] = {}
            for key, stype in zip(keys, scalar_types):
                props[key] = {"type": stype}
            props["state"] = {"type": "string", "enum": state_values}
            props["detail"] = {
                "type": "object",
                "properties": {
                    "kind": {"type": "string",
                             "enum": [f"{w}{cls}" for w in kind_words]},
                    "level": {"type": "integer"},
                    "label": {"type": "string"},
                },
            }
            name = f"{title_words[i % 8].capitalize()}{i}"
            components[name] = {
                "type": "object",
                "title": f"{name} record",
                "required": [keys[0]],
                "properties": props,
            }
            paths[f"/{title_words[i % 8]}{i}"] = {"get": {
                "operationId": f"get{name}",
                "responses": {"200": {"description": "ok", "content": {
                    "application/json": {"schema": {"$ref": f"#/components/schemas/{name}"}}}}},
            }}
        doc = {
            "openapi": "3.0.3",
            "info": {"title": f"Dedup {doc_index}", "version": "1.0.0"},
            "servers": [{"url": "https://dedup.example.com"}],
            "paths": paths,
            "components": {"schemas": components},
        }
        docs.append(doc)
    return docs


def dedup_expected(doc: dict) -> dict:
    components = doc["components"]["schemas"]
    structures: set = set()
    for item in doc["paths"].values():
        for op in item.values():
            schema = op["responses"]["200"]["content"]["application/json"]["schema"]
            named_structures(schema, components, structures)
    return {"types": len(structures), "operations": len(doc["paths"])}


# -- gen-corpus --------------------------------------------------------------------


def _entity_schema(words: list[str], other: str | None) -> dict:
    props = {
        f"{words[0]}_id": {"type": "string"},
        f"{words[1]}-name": {"type": "string"},
        "created_at": {"type": "string"},
        "score": {"type": "number"},
        "rank": {"type": "integer"},
        "active": {"type": "boolean"},
        "tags": {"type": "array", "items": {"type": "string"}},
        "phase": {"type": "string", "enum": [f"{words[2]}-start", f"{words[2]}-end"]},
    }
    if other:
        props[f"{other}_id"] = {"type": "string"}
    return {"type": "object", "required": [f"{words[0]}_id"], "properties": props}


def _v3_corpus_doc(rng: random.Random, index: int, resources: int) -> tuple[dict, int]:
    """An OAS 3 API with an API-key scheme, a link from each item to the
    next resource, an allOf schema, and an inline schema repeated across
    operations."""
    names = [w.capitalize() for w in _distinct_words(rng, resources)]
    schemas: dict[str, dict] = {}
    paths: dict[str, dict] = {}
    ops = 0
    for r, name in enumerate(names):
        words = _distinct_words(rng, 3)
        other = names[(r + 1) % resources].lower()
        schema = _entity_schema(words, other)
        schemas[f"{name}Base"] = schema
        schemas[name] = {"allOf": [
            {"$ref": f"#/components/schemas/{name}Base"},
            {"type": "object", "properties": {"note": {"type": "string"}}},
        ]}
        lower = name.lower()
        item_ref = {"$ref": f"#/components/schemas/{name}"}
        summary = {"type": "object", "properties": {
            "total": {"type": "integer"}, "cursor": {"type": "string"}}}
        paths[f"/{lower}s/{{{lower}Id}}"] = {"get": {
            "operationId": f"get{name}",
            "parameters": [{"name": f"{lower}Id", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"200": {"description": "ok",
                                  "content": {"application/json": {"schema": item_ref}},
                                  "links": {f"Next{names[(r + 1) % resources]}": {
                                      "operationId": f"get{names[(r + 1) % resources]}",
                                      "parameters": {f"{other}Id": f"$response.body#/{other}_id"},
                                  }}}},
        }}
        paths[f"/{lower}s"] = {
            "get": {
                "operationId": f"list{name}s",
                "parameters": [{"name": "limit", "in": "query", "schema": {"type": "integer"}}],
                "responses": {"200": {"description": "ok", "content": {"application/json": {
                    "schema": {"type": "array", "items": item_ref}}}}},
            },
            "post": {
                "operationId": f"create{name}",
                "requestBody": {"required": True, "content": {"application/json": {
                    "schema": {"$ref": f"#/components/schemas/{name}Base"}}}},
                "responses": {"201": {"description": "created", "content": {
                    "application/json": {"schema": item_ref}}}},
            },
        }
        paths[f"/{lower}s/summary"] = {"get": {
            "operationId": f"summarize{name}s",
            "responses": {"200": {"description": "ok",
                                  "content": {"application/json": {"schema": summary}}}},
        }}
        ops += 4
    doc = {
        "openapi": "3.0.3",
        "info": {"title": f"Synthetic {index}", "version": "1.0.0"},
        "servers": [{"url": f"https://api{index}.example.com/v1"}],
        "security": [{"KeyAuth": []}],
        "paths": paths,
        "components": {
            "schemas": schemas,
            "securitySchemes": {"KeyAuth": {"type": "apiKey", "in": "header",
                                            "name": "X-Api-Key"}},
        },
    }
    return doc, ops


def _v2_corpus_doc(rng: random.Random, index: int, resources: int) -> tuple[dict, int]:
    """A Swagger 2.0 API with HTTP basic auth, body and query parameters, and
    inline item schemas repeated across operations."""
    names = [w.capitalize() for w in _distinct_words(rng, resources)]
    definitions: dict[str, dict] = {}
    paths: dict[str, dict] = {}
    ops = 0
    for r, name in enumerate(names):
        words = _distinct_words(rng, 3)
        schema = _entity_schema(words, None)
        definitions[name] = schema
        lower = name.lower()
        ref = {"$ref": f"#/definitions/{name}"}
        inline = json.loads(json.dumps(schema))
        paths[f"/{lower}s/{{id}}"] = {"get": {
            "operationId": f"get{name}",
            "produces": ["application/json"],
            "parameters": [{"name": "id", "in": "path", "required": True, "type": "string"}],
            "responses": {"200": {"description": "ok", "schema": ref}},
        }}
        paths[f"/{lower}s"] = {
            "get": {
                "operationId": f"list{name}s",
                "produces": ["application/json"],
                "parameters": [{"name": "page", "in": "query", "type": "integer"}],
                "responses": {"200": {"description": "ok",
                                      "schema": {"type": "array", "items": inline}}},
            },
            "post": {
                "operationId": f"create{name}",
                "consumes": ["application/json"],
                "produces": ["application/json"],
                "parameters": [{"name": "body", "in": "body", "required": True, "schema": ref}],
                "responses": {"200": {"description": "ok", "schema": inline}},
            },
        }
        ops += 3
    doc = {
        "swagger": "2.0",
        "info": {"title": f"Legacy {index}", "version": "1.0.0"},
        "host": f"legacy{index}.example.com",
        "basePath": "/api",
        "schemes": ["https"],
        "security": [{"basic": []}],
        "securityDefinitions": {"basic": {"type": "basic"}},
        "paths": paths,
        "definitions": definitions,
    }
    return doc, ops


# Which synthetic documents are OAS 2.0; fixed, so every seed has the same
# mix. They are all JSON: the fixtures bring the YAML documents.
CORPUS_V2 = (1, 4, 6)


def make_corpus_documents(seed: int) -> list[tuple[str, bytes, int]]:
    """(file name, bytes, operations built) for each synthetic document."""
    rng = rng_for("gen-corpus", seed)
    out = []
    for index in range(CORPUS_SYNTHETIC):
        if index in CORPUS_V2:
            doc, ops = _v2_corpus_doc(rng, index, CORPUS_RESOURCES)
        else:
            doc, ops = _v3_corpus_doc(rng, index, CORPUS_RESOURCES)
        name = f"synthetic_{index:02d}.json"
        data = dumps(doc)
        out.append((name, data, ops))
    return out


# -- serve-fanout --------------------------------------------------------------------

API_KEY_HEADER = "X-Bench-Key"


def _api_key(rng: random.Random) -> str:
    return "k-" + "".join(rng.choice("abcdef0123456789") for _ in range(24))


def make_fanout(seed: int) -> dict:
    """The spec template, the stub's data, and the query rounds for
    serve-fanout. The spec's server URL is filled in once the stub listens."""
    rng = rng_for("serve-fanout", seed)
    key = _api_key(rng)
    user_ids = [f"u{rng.randrange(10_000, 99_999)}" for _ in range(FANOUT_USERS)]
    company_ids = [f"c{rng.randrange(10_000, 99_999)}" for _ in range(FANOUT_COMPANIES)]
    cities = _distinct_words(rng, FANOUT_COMPANIES)
    roles = ["team-lead", "staff", "on-call"]

    users = {}
    for n, uid in enumerate(user_ids):
        first, last = _distinct_words(rng, 2)
        users[uid] = {"user_id": uid, "first_name": first.capitalize(),
                      "last_name": last.capitalize(), "home-city": rng.choice(cities),
                      "employer_id": company_ids[n % FANOUT_COMPANIES],
                      "score": rng.randrange(100, 1000), "role": roles[n % len(roles)],
                      "ref_code": f"seed-{n}"}
    companies = {}
    for n, cid in enumerate(company_ids):
        companies[cid] = {"company_id": cid, "legal_name": f"{cities[n].capitalize()} Ltd",
                          "city": cities[n], "head-count": rng.randrange(1000, 10_000)}

    user_fields = {"user_id": "userId", "first_name": "firstName", "last_name": "lastName",
                   "home-city": "homeCity", "employer_id": "employerId", "score": "score",
                   "role": "role", "ref_code": "refCode"}
    company_fields = {"company_id": "companyId", "legal_name": "legalName", "city": "city",
                      "head-count": "headCount"}
    role_names = {"team-lead": "teamLead", "staff": "staff", "on-call": "onCall"}
    input_fields = {"first_name": "firstName", "last_name": "lastName",
                    "home-city": "homeCity", "employer_id": "employerId",
                    "ref_code": "refCode"}

    def obj(fields: dict, required: str, types: dict) -> dict:
        props = {raw: {"type": types.get(raw, "string")} for raw in fields}
        if "role" in props:
            props["role"] = {"type": "string", "enum": roles}
        return {"type": "object", "required": [required], "properties": props}

    spec = {
        "openapi": "3.0.3",
        "info": {"title": "Fanout", "version": "1.0.0"},
        "servers": [{"url": "STUB"}],
        "security": [{"BenchKey": []}],
        "paths": {
            "/users/{userId}": {"get": {
                "operationId": "getUser",
                "parameters": [{"name": "userId", "in": "path", "required": True,
                                "schema": {"type": "string"}}],
                "responses": {"200": {
                    "description": "ok",
                    "content": {"application/json": {"schema": {
                        "$ref": "#/components/schemas/User"}}},
                    "links": {"EmployerCompany": {
                        "operationId": "getCompany",
                        "parameters": {"companyId": "$response.body#/employer_id"}}}}},
            }},
            "/companies/{companyId}": {"get": {
                "operationId": "getCompany",
                "parameters": [{"name": "companyId", "in": "path", "required": True,
                                "schema": {"type": "string"}}],
                "responses": {"200": {"description": "ok", "content": {"application/json": {
                    "schema": {"$ref": "#/components/schemas/Company"}}}}},
            }},
            "/users": {"post": {
                "operationId": "createUser",
                "requestBody": {"required": True, "content": {"application/json": {
                    "schema": {"$ref": "#/components/schemas/NewUser"}}}},
                "responses": {"201": {"description": "created", "content": {
                    "application/json": {"schema": {
                        "$ref": "#/components/schemas/CreatedUser"}}}}},
            }},
        },
        "components": {
            "schemas": {
                "User": obj(user_fields, "user_id", {"score": "integer"}),
                "Company": obj(company_fields, "company_id", {"head-count": "integer"}),
                "NewUser": {"type": "object", "required": ["first_name", "ref_code"],
                            "properties": {raw: {"type": "string"} for raw in input_fields}},
                "CreatedUser": {"type": "object", "required": ["user_id"], "properties": {
                    "user_id": {"type": "string"}, "first_name": {"type": "string"},
                    "home-city": {"type": "string"}, "ref_code": {"type": "string"},
                    "created": {"type": "boolean"}}},
            },
            "securitySchemes": {"BenchKey": {"type": "apiKey", "in": "header",
                                             "name": API_KEY_HEADER}},
        },
    }

    user_sel = " ".join(user_fields.values())
    company_sel = " ".join(company_fields.values())
    reads = []
    for _ in range(FANOUT_READS):
        aliases = [(f"a{n}", rng.choice(user_ids)) for n in range(FANOUT_ALIASES)]
        body = " ".join(f'{alias}: user(userId: "{uid}") {{ {user_sel} '
                        f'employerCompany {{ {company_sel} }} }}' for alias, uid in aliases)
        query = f'query {{ viewerBenchKey(apiKey: "{key}") {{ {body} }} }}'
        expected = {"viewerBenchKey": {
            alias: _project_user(users[uid], companies, user_fields, company_fields, role_names)
            for alias, uid in aliases}}
        reads.append({"query": query, "expected": {"data": expected}})

    first_names = _distinct_words(rng, FANOUT_MUTATION_ALIASES)
    mutation = {"key": key, "input_fields": input_fields, "first_names": first_names,
                "cities": cities, "company_ids": company_ids}
    return {"spec": spec, "api_key": key, "users": users, "companies": companies,
            "reads": reads, "mutation": mutation}


def _project_user(user: dict, companies: dict, user_fields: dict, company_fields: dict,
                  role_names: dict) -> dict:
    out = {}
    for raw, name in user_fields.items():
        out[name] = role_names[user[raw]] if raw == "role" else user[raw]
    company = companies[user["employer_id"]]
    out["employerCompany"] = {name: company[raw] for raw, name in company_fields.items()}
    return out


def created_user(payload: dict) -> dict:
    """The stub's answer to POST /users: a deterministic function of the
    payload, so the benchmark can predict every mutation response."""
    ref = payload.get("ref_code", "")
    return {"user_id": "n-" + hashlib.sha1(ref.encode()).hexdigest()[:10],
            "first_name": payload.get("first_name"), "home-city": payload.get("home-city"),
            "ref_code": ref, "created": True}


def fanout_mutation(model: dict, query_id: int) -> dict:
    """The mutation for one query id: FANOUT_MUTATION_ALIASES create fields,
    each marked with the query id and its alias index, and the raw payloads
    the stub must receive, in alias order.

    Each create field sits in its own aliased root viewer field. Root
    mutation fields run serially; several create fields inside one viewer
    run concurrently and reach the upstream in any order (see CHANGES.md).
    """
    m = model["mutation"]
    fields = []
    payloads = []
    expected = {}
    for n in range(FANOUT_MUTATION_ALIASES):
        raw = {"first_name": m["first_names"][n].capitalize(),
               "last_name": f"Q{query_id}",
               "home-city": m["cities"][n % len(m["cities"])],
               "employer_id": m["company_ids"][n % len(m["company_ids"])],
               "ref_code": f"q{query_id}-m{n}"}
        args = ", ".join(f'{m["input_fields"][k]}: {json.dumps(v)}' for k, v in raw.items())
        fields.append(f'm{n}: mutationViewerBenchKey(apiKey: "{m["key"]}") '
                      f"{{ createdUser(newUser: {{ {args} }}) "
                      f"{{ userId firstName homeCity refCode created }} }}")
        payloads.append(raw)
        made = created_user(raw)
        expected[f"m{n}"] = {"createdUser": {
            "userId": made["user_id"], "firstName": made["first_name"],
            "homeCity": made["home-city"], "refCode": made["ref_code"], "created": True}}
    query = f'mutation {{ {" ".join(fields)} }}'
    return {"query": query, "payloads": payloads, "expected": {"data": expected}}


def fanout_stub_model(model: dict) -> dict:
    routes = {}
    for uid, user in model["users"].items():
        routes[f"/users/{uid}"] = user
    for cid, company in model["companies"].items():
        routes[f"/companies/{cid}"] = company
    return {"api_key_header": API_KEY_HEADER, "api_key": model["api_key"],
            "get": routes, "post": ["/users"]}


# -- serve-wide -------------------------------------------------------------------------


def make_wide(seed: int) -> dict:
    """A list endpoint returning WIDE_ITEMS records of about twenty fields:
    keys that need sanitizing, an enum whose values need sanitizing, a nested
    object and a list."""
    rng = rng_for("serve-wide", seed)
    key = _api_key(rng)
    words = _distinct_words(rng, 24)
    scalar_types = ("string", "integer", "number", "boolean")
    fields: list[tuple[str, str, str]] = []  # raw key, GraphQL name, type
    separators = ("_", "-", " ", ".")
    for n in range(16):
        parts = [words[n], words[n + 8] if n + 8 < 24 else words[n - 8]]
        raw = separators[n % 4].join(parts)
        fields.append((raw, camel(parts), scalar_types[n % 4]))
    statuses = [f"{w}-{s}" for w, s in zip(_distinct_words(rng, 4), ("ok", "new", "old", "gone"))]
    status_names = {s: camel(s.split("-")) for s in statuses}
    owner_fields = [("owner_id", "ownerId", "string"), ("full name", "fullName", "string"),
                    ("e-mail", "eMail", "string"), ("seat_no", "seatNo", "integer")]

    props = {raw: {"type": t} for raw, _, t in fields}
    props["record_id"] = {"type": "string"}
    props["status_code"] = {"type": "string", "enum": statuses}
    props["tag_list"] = {"type": "array", "items": {"type": "string"}}
    props["owner"] = {"type": "object", "properties": {raw: {"type": t}
                                                      for raw, _, t in owner_fields}}
    spec = {
        "openapi": "3.0.3",
        "info": {"title": "Wide", "version": "1.0.0"},
        "servers": [{"url": "STUB"}],
        "security": [{"BenchKey": []}],
        "paths": {"/records": {"get": {
            "operationId": "listRecords",
            "parameters": [{"name": "page", "in": "query", "required": True,
                            "schema": {"type": "integer"}}],
            "responses": {"200": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "array",
                           "items": {"$ref": "#/components/schemas/Record"}}}}}},
        }}},
        "components": {
            "schemas": {"Record": {"type": "object", "required": ["record_id"],
                                   "properties": props}},
            "securitySchemes": {"BenchKey": {"type": "apiKey", "in": "header",
                                             "name": API_KEY_HEADER}},
        },
    }

    def value(t: str, n: int):
        if t == "string":
            return f"{rng.choice(WORDS)}-{n}"
        if t == "integer":
            return rng.randrange(10_000, 100_000)
        if t == "number":
            return rng.randrange(100_000, 1_000_000) + 0.5
        return rng.random() < 0.5

    pages = {}
    for page in range(WIDE_PAGES):
        items = []
        for n in range(WIDE_ITEMS):
            item = {"record_id": f"r{page}-{n}"}
            for raw, _, t in fields:
                item[raw] = value(t, n)
            item["status_code"] = rng.choice(statuses)
            item["tag_list"] = [rng.choice(WORDS) for _ in range(3)]
            item["owner"] = {raw: value(t, n) for raw, _, t in owner_fields}
            items.append(item)
        pages[page] = items

    # The query selects every field except the last scalar one.
    selected = fields[:-1]
    sel = " ".join(["recordId"] + [name for _, name, _ in selected]
                   + ["statusCode", "tagList",
                      "owner { " + " ".join(name for _, name, _ in owner_fields) + " }"])
    queries = []
    for page, items in pages.items():
        query = f'{{ viewerBenchKey(apiKey: "{key}") {{ getRecords(page: {page}) {{ {sel} }} }} }}'
        expected = [_project_record(item, selected, owner_fields, status_names)
                    for item in items]
        queries.append({"query": query,
                        "expected": {"data": {"viewerBenchKey": {"getRecords": expected}}}})
    return {"spec": spec, "api_key": key, "pages": pages, "queries": queries}


def _project_record(item: dict, selected, owner_fields, status_names) -> dict:
    out = {"recordId": item["record_id"]}
    for raw, name, t in selected:
        out[name] = float(item[raw]) if t == "number" else item[raw]
    out["statusCode"] = status_names[item["status_code"]]
    out["tagList"] = list(item["tag_list"])
    out["owner"] = {name: item["owner"][raw] for raw, name, _ in owner_fields}
    return out


def wide_stub_model(model: dict) -> dict:
    routes = {f"/records?page={page}": items for page, items in model["pages"].items()}
    return {"api_key_header": API_KEY_HEADER, "api_key": model["api_key"],
            "get": routes, "post": []}


def spec_bytes(spec: dict, base_url: str) -> bytes:
    spec = dict(spec, servers=[{"url": base_url}])
    return dumps(spec)
