"""The host-speed reference loop, in a module that imports nothing else, so
that a process can load it without changing what its start-up costs."""

import time

REF_ITERATIONS = 2500


def reference_loop() -> float:
    """Run a fixed pure-Python loop and return how long it took (s).

    The loop touches nothing of the program. It does the kind of work the
    program does (small dicts and objects built and walked, short strings,
    a sort), so a slow phase of the host slows it and the program alike.
    """
    start = time.perf_counter()
    nodes = []
    for i in range(REF_ITERATIONS):
        name = "n%d" % (i % 89)
        nodes.append({"name": name, "kind": i % 7, "children": [i, name], "ok": i & 1 == 0})
    index: dict[str, list] = {}
    for node in nodes:
        index.setdefault(node["name"], []).append(node)
    ordered = sorted(index.items(), key=lambda item: (len(item[1]), item[0]))
    checksum = sum(len(k) + len(v) for k, v in ordered)
    if checksum <= 0:
        raise RuntimeError("reference loop lost its work")
    return time.perf_counter() - start
