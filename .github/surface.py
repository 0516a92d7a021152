#!/usr/bin/env python3
"""Holds the shipped crates to the surface their users name.

Builds rustdoc JSON for memsim, fabric, jamvm, linker and core and lists every
named public item (functions, types, constants, fields; modules and variants
aside). An item is *named* when its name appears, outside comments, in a user:
another shipped crate, crates/bench, crates/oracle, the root tests, examples,
src/ or the benchmark/ package. Fails on an unnamed item that
.github/surface-allow.txt does not hold, and on an allowlist line that names
an item now named by a user or gone. Prints, without failing, how many items
only the root tests or the oracle name.

Run from the repository root: python3 .github/surface.py [toolchain]
(default nightly-2026-05-19, the toolchain whose JSON format this reads).
"""
import json, os, re, subprocess, sys

FORMAT_VERSION = 57
CRATES = {"memsim": "twochains_memsim", "fabric": "twochains_fabric",
          "jamvm": "twochains_jamvm", "linker": "twochains_linker", "core": "twochains"}
USERS = ["crates/bench", "examples", "src", "benchmark/src"]
TEST_USERS = ["tests", "crates/oracle"]
ALLOW = ".github/surface-allow.txt"

def names_in(*dirs):
    words = set()
    for d in dirs:
        for dirpath, _, files in os.walk(d):
            for f in files:
                if f.endswith(".rs"):
                    text = re.sub(r"//.*", "", open(os.path.join(dirpath, f)).read())
                    words |= set(re.findall(r"[A-Za-z_]\w*", text))
    return words

def public_items(doc):
    """(path, name) of every public named item, walking breadth-first from the crate root."""
    index, found, seen, queue = doc["index"], [], set(), [(doc["root"], [])]
    while queue:
        i, path = queue.pop(0)
        item = index.get(str(i))
        if item is None or item["crate_id"] != 0 or i in seen:
            continue
        seen.add(i)
        kind, inner = next(iter(item["inner"].items()))
        if item["visibility"] == "public" and item["name"] is not None and kind != "module":
            found.append(("::".join(path), item["name"]))
        children = []
        if kind == "module":
            for c in inner["items"]:
                use = index[str(c)]["inner"].get("use")
                if use and not use["is_glob"] and use["id"] is not None:
                    children.append((use["id"], use["name"]))
                else:
                    children.append((c, index[str(c)]["name"]))
        if kind in ("struct", "enum"):
            shape = inner["kind"] if kind == "struct" and isinstance(inner["kind"], dict) else {}
            fields = shape.get("plain", {}).get("fields", []) + [f for f in shape.get("tuple", []) if f is not None]
            children += [(f, index[str(f)]["name"]) for f in fields]
            for imp in inner["impls"]:
                imp = index[str(imp)]["inner"]["impl"]
                if imp["trait"] is None and imp["blanket_impl"] is None:
                    children += [(c, index[str(c)]["name"]) for c in imp["items"]]
        queue += [(c, path + [name]) for c, name in children]
    return found

def main():
    toolchain = sys.argv[1] if len(sys.argv) > 1 else "nightly-2026-05-19"
    env = dict(os.environ, CARGO_TARGET_DIR="target/surface")
    allow = {}
    for line in open(ALLOW):
        if line.strip() and not line.startswith("#"):
            path, _, reason = line.partition("#")
            assert reason.strip(), f"{ALLOW}: no reason given for {path.strip()}"
            allow[path.strip()] = reason.strip()
    tests, unnamed, test_only, paths = names_in(*TEST_USERS), [], 0, []
    for short, name in CRATES.items():
        subprocess.run(["cargo", f"+{toolchain}", "rustdoc", "-q", "-p", name.replace("_", "-"), "--lib",
                        "--", "-Z", "unstable-options", "--output-format", "json"], env=env, check=True)
        doc = json.load(open(f"target/surface/doc/{name}.json"))
        if doc["format_version"] != FORMAT_VERSION:
            sys.exit(f"surface: {name}.json has format_version {doc['format_version']}, this script reads "
                     f"{FORMAT_VERSION}: run it on the toolchain CI pins, or update it for the new format")
        others = names_in(*USERS, *(f"crates/{c}/src" for c in CRATES if c != short))
        for path, item in public_items(doc):
            path = f"{name}::{path}"
            paths.append(path)
            named = item in others or item in tests
            test_only += item in tests and item not in others
            if named and path in allow:
                unnamed.append(f"stale allowlist line: {path} is named by a user now")
            elif not named and path not in allow:
                unnamed.append(f"no user names {path}: make it pub(crate), or allowlist it with a reason")
    unnamed += [f"stale allowlist line: {p} is not a public item" for p in allow if p not in paths]
    print(f"surface: {len(paths)} named public items; {test_only} named outside their crate only by root tests or the oracle")
    if unnamed:
        sys.exit("\n".join(unnamed))

main()
